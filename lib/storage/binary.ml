open Nullrel

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)
let magic = "NRX2"

(* ------------------------- encoding --------------------------- *)

(* The int is treated as an unsigned 63-bit pattern: logical shifts make
   the loop terminate even when zigzag wraps to a negative OCaml int
   (e.g. for max_int). *)
let add_varint buf n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (- (z land 1))

let add_string_pfx buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_value buf = function
  | Value.Int n ->
      Buffer.add_char buf '\x00';
      add_varint buf (zigzag n)
  | Value.Float f ->
      Buffer.add_char buf '\x01';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_char buf '\x02';
      add_string_pfx buf s
  | Value.Bool b ->
      Buffer.add_char buf '\x03';
      Buffer.add_char buf (if b then '\x01' else '\x00')
  | Value.Null ->
      (* Documented internal assert, deliberately not an Exec_error:
         Tuple's canonical form drops null bindings before they reach
         the encoder, so this is unreachable from any user input. *)
      invalid_arg "Binary.add_value: ni is never stored"

let encode x =
  let tuples = Xrel.to_list x in
  (* attribute dictionary: every attribute appearing in any tuple *)
  let dict =
    Attr.Set.elements
      (List.fold_left
         (fun acc r -> Attr.Set.union acc (Tuple.attrs r))
         Attr.Set.empty tuples)
  in
  let index_of =
    let table = Hashtbl.create 16 in
    List.iteri (fun idx a -> Hashtbl.replace table (Attr.name a) idx) dict;
    fun a ->
      (* The dictionary is derived from these very tuples, so a miss
         means the in-memory value is inconsistent — surface it as the
         classified integrity error, not a bare [Not_found] that
         callers cannot tell from a lookup bug. *)
      match Hashtbl.find_opt table (Attr.name a) with
      | Some idx -> idx
      | None ->
          corrupt
            (Printf.sprintf "attribute %s missing from the dictionary"
               (Attr.name a))
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  add_varint buf (List.length dict);
  List.iter (fun a -> add_string_pfx buf (Attr.name a)) dict;
  add_varint buf (List.length tuples);
  List.iter
    (fun r ->
      let bindings = Tuple.to_list r in
      add_varint buf (List.length bindings);
      List.iter
        (fun (a, v) ->
          add_varint buf (index_of a);
          add_value buf v)
        bindings)
    tuples;
  (* checksum trailer: CRC-32 of everything before it, little-endian *)
  let crc = Crc32.digest (Buffer.contents buf) in
  for k = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * k)) land 0xff))
  done;
  Buffer.contents buf

(* ------------------------- decoding --------------------------- *)

(* A cursor reads [data] up to [stop] in place: a journal frame's
   blocks decode without being copied out first. *)
type cursor = { data : string; mutable pos : int; stop : int }

let byte cur =
  if cur.pos >= cur.stop then corrupt "truncated input";
  let c = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

(* Top-level, not a local closure over [cur]: a varint is read per
   count, index and integer, and a closure would be allocated for
   each. *)
let rec varint_from cur shift acc =
  if shift > 62 then corrupt "varint too long";
  let b = byte cur in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_from cur (shift + 7) acc

let read_varint cur = varint_from cur 0 0

(* Moves past [n] bytes and returns where they start. *)
let skip cur n =
  if n < 0 || n > cur.stop - cur.pos then corrupt "truncated input";
  let at = cur.pos in
  cur.pos <- cur.pos + n;
  at

let read_string_pfx cur =
  let n = read_varint cur in
  String.sub cur.data (skip cur n) n

let read_value cur =
  match byte cur with
  | 0x00 -> Value.int (unzigzag (read_varint cur))
  | 0x01 ->
      Value.Float
        (Int64.float_of_bits (String.get_int64_le cur.data (skip cur 8)))
  | 0x02 -> Value.Str (read_string_pfx cur)
  | 0x03 -> Value.Bool (byte cur <> 0)
  | tag -> corrupt (Printf.sprintf "unknown value tag 0x%02x" tag)

let rec read_bindings cur b dict_len k =
  if k <> 0 then begin
    let idx = read_varint cur in
    if idx < 0 || idx >= dict_len then corrupt "attribute index out of range";
    Tuple.bind b idx (read_value cur);
    read_bindings cur b dict_len (k - 1)
  end

(* A dictionary as read, kept with the builder its tuples use. *)
type dictionary = {
  raw : string;
  attrs : Attr.t array;
  builder : Tuple.builder;
}

type context = { mutable dicts : dictionary list }

let context () = { dicts = [] }

(* A journal names the same few attribute lists over and over; past
   this many distinct ones a context stops remembering new ones. *)
let max_dicts = 16

let rec same_from raw data pos k =
  k = String.length raw
  || (raw.[k] = data.[pos + k] && same_from raw data pos (k + 1))

let rec find_dict data pos len = function
  | [] -> None
  | d :: rest ->
      if String.length d.raw = len && same_from d.raw data pos 0 then Some d
      else find_dict data pos len rest

(* The [n] entries at the cursor: skipped first, raising what reading
   them would, then read only when the context has not seen these
   bytes. *)
let read_dict ctx cur n =
  let start = cur.pos in
  for _ = 1 to n do
    let len = read_varint cur in
    if len = 0 then corrupt "empty attribute name";
    ignore (skip cur len)
  done;
  let len = cur.pos - start in
  match find_dict cur.data start len ctx.dicts with
  | Some d -> d
  | None ->
      cur.pos <- start;
      let attrs =
        if n = 0 then [||]
        else begin
          let attrs = Array.make n (Attr.make (read_string_pfx cur)) in
          for i = 1 to n - 1 do
            attrs.(i) <- Attr.make (read_string_pfx cur)
          done;
          attrs
        end
      in
      let d =
        {
          raw = String.sub cur.data start len;
          attrs;
          builder = Tuple.builder attrs;
        }
      in
      if List.length ctx.dicts < max_dicts then ctx.dicts <- d :: ctx.dicts;
      d

let forget ctx d = ctx.dicts <- List.filter (fun d' -> d' != d) ctx.dicts

let decode_sub ?(context = context ()) data pos len =
  if pos < 0 || len < 0 || pos > String.length data - len then
    invalid_arg "Binary.decode_sub";
  let cur = { data; pos; stop = pos + len } in
  let m = skip cur (String.length magic) in
  for k = 0 to String.length magic - 1 do
    if data.[m + k] <> magic.[k] then corrupt "bad magic"
  done;
  let dict_len = read_varint cur in
  (* Every dictionary entry and tuple costs at least one byte, so a
     count exceeding the input length is corruption — reject it before
     [Array.make]/[List.init] turn it into an allocation failure. *)
  if dict_len < 0 || dict_len > len then
    corrupt "implausible dictionary length";
  let d = read_dict context cur dict_len in
  let tuple_count = read_varint cur in
  if tuple_count < 0 || tuple_count > len then
    corrupt "implausible tuple count";
  let tuples =
    match
      List.init tuple_count (fun _ ->
          read_bindings cur d.builder dict_len (read_varint cur);
          Tuple.build d.builder)
    with
    | tuples -> tuples
    | exception e ->
        (* Cut off between two bindings, the builder holds half a
           tuple: no later input may use it. *)
        forget context d;
        raise e
  in
  if cur.stop - cur.pos < 4 then corrupt "missing checksum trailer";
  let payload_len = cur.pos - pos in
  let trailer = skip cur 4 in
  if cur.pos <> cur.stop then corrupt "trailing bytes";
  let stored = ref 0 in
  for k = 3 downto 0 do
    stored := (!stored lsl 8) lor Char.code data.[trailer + k]
  done;
  let computed = Crc32.digest_sub data pos payload_len in
  if !stored <> computed then
    corrupt
      (Printf.sprintf "checksum mismatch (stored %s, computed %s)"
         (Crc32.to_hex !stored) (Crc32.to_hex computed));
  Xrel.of_list tuples

let decode data = decode_sub data 0 (String.length data)

let write_file path x =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode x))

let read_file path =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  decode data
