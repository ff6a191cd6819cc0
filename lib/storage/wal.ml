open Nullrel

type change = { rel : string; added : Xrel.t; removed : Xrel.t }

type op =
  | Change of change
  | Add_constraint of Constr.def
  | Drop_constraint of string

type record = { lsn : int; ops : op list }

exception Error of string

let errorf fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt
let file ~dir = Filename.concat dir "wal"

(* ------------------------- deltas ----------------------------- *)

let change ~rel ~before ~after =
  let b = Relation.tuples (Xrel.rep before)
  and a = Relation.tuples (Xrel.rep after) in
  (* Both sides are subsets of minimal representations (antichains), so
     wrapping them unsafely is sound and they roundtrip exactly. *)
  let wrap set = Xrel.unsafe_of_minimal (Relation.of_tuples set) in
  {
    rel;
    added = wrap (Tuple.Set.diff a b);
    removed = wrap (Tuple.Set.diff b a);
  }

let change_is_noop c = Xrel.is_empty c.added && Xrel.is_empty c.removed

let delta ~lsn ~rel ~before ~after =
  { lsn; ops = [ Change (change ~rel ~before ~after) ] }

let apply_change cat c =
  match Catalog.find cat c.rel with
  | None -> errorf "journal references unknown relation %s" c.rel
  | Some _ ->
      (* Replay runs the same incremental discipline as the live DML
         path: on the exact before-state the recorded net delta admits
         and evicts precisely what the original statement did, and on
         any other state the insert discipline still yields a minimal
         relation — degraded, never wrong. *)
      fst
        (Catalog.apply_delta cat c.rel ~added:(Xrel.to_list c.added)
           ~removed:(Xrel.to_list c.removed))

let apply_op ?(verify_constraints = false) cat = function
  | Change c -> apply_change cat c
  | Add_constraint def ->
      if verify_constraints then Catalog.add_constraint cat def
      else Catalog.attach_constraint cat def
  | Drop_constraint name -> Catalog.drop_constraint cat name

let apply ?verify_constraints cat r =
  List.fold_left (fun cat op -> apply_op ?verify_constraints cat op) cat r.ops

(* ------------------------- framing ---------------------------- *)

let add_u32 buf n =
  for k = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * k)) land 0xff))
  done

let add_u64 buf n =
  for k = 0 to 7 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * k)) land 0xff))
  done

let add_block buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let encode_op buf = function
  | Change c ->
      Buffer.add_char buf 'C';
      add_block buf c.rel;
      add_block buf (Binary.encode c.added);
      add_block buf (Binary.encode c.removed)
  | Add_constraint def ->
      Buffer.add_char buf 'A';
      add_block buf (Constr.def_to_line def)
  | Drop_constraint name ->
      Buffer.add_char buf 'D';
      add_block buf name

let encode_payload r =
  let buf = Buffer.create 256 in
  add_u64 buf r.lsn;
  add_u32 buf (List.length r.ops);
  List.iter (encode_op buf) r.ops;
  Buffer.contents buf

let encode_frame r =
  let payload = encode_payload r in
  let buf = Buffer.create (String.length payload + 8) in
  add_block buf payload;
  add_u32 buf (Crc32.digest payload);
  Buffer.contents buf

(* A cursor reads [data] up to [stop] in place: frames, their blocks and
   the relations in them are checked and decoded without being copied
   out. *)
type cursor = { data : string; mutable pos : int; stop : int }

let remaining cur = cur.stop - cur.pos

let read_u n cur =
  let v = ref 0 in
  for k = n - 1 downto 0 do
    v := (!v lsl 8) lor Char.code cur.data.[cur.pos + k]
  done;
  cur.pos <- cur.pos + n;
  !v

(* Moves past a block and returns where its bytes start and how many
   there are. *)
let skip_block cur =
  if remaining cur < 4 then errorf "truncated block length";
  let len = read_u 4 cur in
  if len < 0 || remaining cur < len then errorf "truncated block";
  let at = cur.pos in
  cur.pos <- cur.pos + len;
  (at, len)

let read_block cur =
  let at, len = skip_block cur in
  String.sub cur.data at len

let decode_op ctx cur =
  if remaining cur < 1 then errorf "truncated op tag";
  let tag = cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  match tag with
  | 'C' ->
      let rel = read_block cur in
      let decode what =
        let at, len = skip_block cur in
        try Binary.decode_sub ~context:ctx cur.data at len
        with Binary.Corrupt msg -> errorf "bad %s delta: %s" what msg
      in
      let added = decode "added" in
      let removed = decode "removed" in
      Change { rel; added; removed }
  | 'A' -> (
      let line = read_block cur in
      match Constr.def_of_line line with
      | Some def -> Add_constraint def
      | None -> errorf "bad constraint definition %S" line)
  | 'D' -> Drop_constraint (read_block cur)
  | c -> errorf "unknown op tag %C" c

(* The payload [data.[pos] .. data.[pos + len - 1]]. *)
let decode_payload ctx data pos len =
  let cur = { data; pos; stop = pos + len } in
  if remaining cur < 12 then errorf "truncated header";
  let lsn = read_u 8 cur in
  let n_ops = read_u 4 cur in
  if n_ops < 0 then errorf "negative op count";
  let ops = List.init n_ops (fun _ -> decode_op ctx cur) in
  if remaining cur <> 0 then errorf "trailing payload bytes";
  { lsn; ops }

let m_appends =
  Obs.Metrics.counter ~help:"Write-ahead journal frames appended"
    "storage_wal_appends_total"

let m_append_bytes =
  Obs.Metrics.counter ~help:"Write-ahead journal bytes appended"
    "storage_wal_append_bytes_total"

let m_batches =
  Obs.Metrics.counter
    ~help:"Group-commit batches appended to the write-ahead journal"
    "storage_wal_group_batches_total"

let m_batch_records =
  Obs.Metrics.histogram
    ~help:"Records per group-commit batch appended to the journal"
    "storage_wal_group_batch_records"

let append ~io ~dir r =
  let frame = encode_frame r in
  Obs.Metrics.inc m_appends;
  Obs.Metrics.add m_append_bytes (String.length frame);
  io.Io.append_file (file ~dir) frame

let append_batch ~io ~dir rs =
  match rs with
  | [] -> ()
  | rs ->
      let buf = Buffer.create 1024 in
      List.iter (fun r -> Buffer.add_string buf (encode_frame r)) rs;
      let frames = Buffer.contents buf in
      Obs.Metrics.add m_appends (List.length rs);
      Obs.Metrics.add m_append_bytes (String.length frames);
      Obs.Metrics.inc m_batches;
      Obs.Metrics.observe m_batch_records (List.length rs);
      io.Io.append_file (file ~dir) frames

let read ~io ~dir =
  let path = file ~dir in
  if not (io.Io.file_exists path) then ([], None)
  else begin
    let data = io.Io.read_file path in
    let cur = { data; pos = 0; stop = String.length data } in
    (* One decoding context for the journal: its blocks share their
       dictionaries and key arrays. *)
    let ctx = Binary.context () in
    let torn lsn msg =
      Some
        (Printf.sprintf "journal tail dropped after lsn %d: %s" lsn msg)
    in
    let rec go acc last_lsn =
      if remaining cur = 0 then (List.rev acc, None)
      else if remaining cur < 4 then (List.rev acc, torn last_lsn "torn frame header")
      else begin
        let start = cur.pos in
        let len = read_u 4 cur in
        if len < 0 || remaining cur < len + 4 then
          (List.rev acc, torn last_lsn "torn frame")
        else begin
          let payload = cur.pos in
          cur.pos <- cur.pos + len;
          let crc = read_u 4 cur in
          if crc <> Crc32.digest_sub data payload len then
            (List.rev acc, torn last_lsn "frame checksum mismatch")
          else
            match decode_payload ctx data payload len with
            | r -> go (r :: acc) r.lsn
            | exception Error msg ->
                (* A frame whose checksum matches but whose body does not
                   decode is not a torn tail — the record is corrupt. *)
                ( List.rev acc,
                  Some
                    (Printf.sprintf "corrupt journal record at byte %d: %s"
                       start msg) )
        end
      end
    in
    go [] 0
  end

let reset ~io ~dir =
  let path = file ~dir in
  let tmp = path ^ ".tmp" in
  io.Io.write_file tmp "";
  io.Io.rename tmp path;
  io.Io.fsync_dir dir
