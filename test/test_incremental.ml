(* Incremental maintenance and persistent secondary indexes: the
   truncation taxonomy of the binary codec, the no-op [set_relation]
   guard that keeps memoized indexes alive, the INDEX file freshness
   protocol (attach verbatim on a matching stamp, rebuild on a stale or
   anomalous dump, drop declarations on a torn file), and the
   probe-served compiled-query path. *)

open Nullrel

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

(* Current value of an unlabelled counter, parsed out of the Prometheus
   dump ("name value" lines). *)
let metric name =
  let prefix = name ^ " " in
  List.fold_left
    (fun acc line ->
      if
        String.length line > String.length prefix
        && String.sub line 0 (String.length prefix) = prefix
      then
        int_of_string_opt
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
        |> Option.value ~default:acc
      else acc)
    0
    (String.split_on_char '\n' (Obs.Metrics.dump_prometheus ()))

(* ------------------- binary corruption taxonomy ----------------- *)

let fuzz_seed =
  Xrel.of_list
    [
      Tuple.of_strings [ ("A", Value.Int 1); ("B", Value.Str "one") ];
      Tuple.of_strings [ ("A", Value.Int 2); ("B", Value.Str "tab\there") ];
      Tuple.of_strings [ ("A", Value.Int max_int) ];
      Tuple.of_strings [ ("B", Value.Str ""); ("C", Value.Bool true) ];
      Tuple.of_strings [ ("C", Value.Float 2.5) ];
    ]

let test_binary_truncation_fuzz () =
  let enc = Storage.Binary.encode fuzz_seed in
  for n = 0 to String.length enc - 1 do
    match Storage.Binary.decode (String.sub enc 0 n) with
    | exception Storage.Binary.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "prefix of length %d raised %s, not Corrupt" n
          (Printexc.to_string e)
    | _ -> Alcotest.failf "decoded a strict prefix of length %d" n
  done

let test_binary_byteflip_fuzz () =
  let enc = Storage.Binary.encode fuzz_seed in
  for i = 0 to String.length enc - 1 do
    let b = Bytes.of_string enc in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    match Storage.Binary.decode (Bytes.to_string b) with
    | exception Storage.Binary.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "flip at %d raised %s, not Corrupt" i
          (Printexc.to_string e)
    | _ -> Alcotest.failf "flip at byte %d went undetected" i
  done

(* ------------- decoders against a Tuple.set per cell -------------- *)

(* The two decoders as they read before the tuple builder, one
   [Tuple.set] per cell: the reference the builder must equal, on
   every input, accepted or rejected. *)
module Reference = struct
  open Storage

  let corrupt msg = raise (Binary.Corrupt msg)

  type cursor = { data : string; mutable pos : int }

  let byte cur =
    if cur.pos >= String.length cur.data then corrupt "truncated input";
    let c = Char.code cur.data.[cur.pos] in
    cur.pos <- cur.pos + 1;
    c

  let read_varint cur =
    let rec go shift acc =
      if shift > 62 then corrupt "varint too long";
      let b = byte cur in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let read_bytes cur n =
    if cur.pos + n > String.length cur.data then corrupt "truncated input";
    let s = String.sub cur.data cur.pos n in
    cur.pos <- cur.pos + n;
    s

  let read_string_pfx cur = read_bytes cur (read_varint cur)
  let unzigzag z = (z lsr 1) lxor -(z land 1)

  let read_value cur =
    match byte cur with
    | 0x00 -> Value.int (unzigzag (read_varint cur))
    | 0x01 ->
        let bits = read_bytes cur 8 in
        let n = ref 0L in
        for k = 7 downto 0 do
          n :=
            Int64.logor (Int64.shift_left !n 8)
              (Int64.of_int (Char.code bits.[k]))
        done;
        Value.Float (Int64.float_of_bits !n)
    | 0x02 -> Value.Str (read_string_pfx cur)
    | 0x03 -> Value.Bool (byte cur <> 0)
    | tag -> corrupt (Printf.sprintf "unknown value tag 0x%02x" tag)

  let binary_decode data =
    let cur = { data; pos = 0 } in
    if read_bytes cur 4 <> "NRX2" then corrupt "bad magic";
    let dict_len = read_varint cur in
    if dict_len > String.length data then
      corrupt "implausible dictionary length";
    let dict = Array.init dict_len (fun _ -> Attr.make (read_string_pfx cur)) in
    let tuple_count = read_varint cur in
    if tuple_count > String.length data then corrupt "implausible tuple count";
    let read_tuple () =
      let bindings = read_varint cur in
      let rec go k acc =
        if k = 0 then acc
        else
          let idx = read_varint cur in
          if idx >= dict_len then corrupt "attribute index out of range";
          let v = read_value cur in
          go (k - 1) (Tuple.set acc dict.(idx) v)
      in
      go bindings Tuple.empty
    in
    let tuples = List.init tuple_count (fun _ -> read_tuple ()) in
    if String.length data - cur.pos < 4 then corrupt "missing checksum trailer";
    let payload_len = cur.pos in
    let trailer = read_bytes cur 4 in
    if cur.pos <> String.length data then corrupt "trailing bytes";
    let stored = ref 0 in
    for k = 3 downto 0 do
      stored := (!stored lsl 8) lor Char.code trailer.[k]
    done;
    let computed = Crc32.digest (String.sub data 0 payload_len) in
    if !stored <> computed then
      corrupt
        (Printf.sprintf "checksum mismatch (stored %s, computed %s)"
           (Crc32.to_hex !stored) (Crc32.to_hex computed));
    Xrel.of_list tuples

  type cell = Quoted of string | Raw of string

  let error msg = raise (Csv.Error msg)

  let parse_cells src =
    let n = String.length src in
    let rows = ref [] and row = ref [] and buf = Buffer.create 32 in
    let quoted = ref false in
    let flush_cell () =
      let c =
        if !quoted then Quoted (Buffer.contents buf)
        else Raw (Buffer.contents buf)
      in
      row := c :: !row;
      Buffer.clear buf;
      quoted := false
    in
    let flush_row () =
      flush_cell ();
      rows := List.rev !row :: !rows;
      row := []
    in
    let rec plain i =
      if i >= n then ()
      else
        match src.[i] with
        | ',' ->
            flush_cell ();
            plain (i + 1)
        | '\n' ->
            flush_row ();
            plain (i + 1)
        | '\r' ->
            flush_row ();
            plain (if i + 1 < n && src.[i + 1] = '\n' then i + 2 else i + 1)
        | '"' when Buffer.length buf = 0 && not !quoted ->
            quoted := true;
            in_quotes (i + 1)
        | c ->
            Buffer.add_char buf c;
            plain (i + 1)
    and in_quotes i =
      if i >= n then error "unterminated quoted cell"
      else
        match src.[i] with
        | '"' when i + 1 < n && src.[i + 1] = '"' ->
            Buffer.add_char buf '"';
            in_quotes (i + 2)
        | '"' -> after_quotes (i + 1)
        | c ->
            Buffer.add_char buf c;
            in_quotes (i + 1)
    and after_quotes i =
      if i >= n then ()
      else
        match src.[i] with
        | ',' ->
            flush_cell ();
            plain (i + 1)
        | '\n' ->
            flush_row ();
            plain (i + 1)
        | '\r' ->
            flush_row ();
            plain (if i + 1 < n && src.[i + 1] = '\n' then i + 2 else i + 1)
        | c -> error (Printf.sprintf "unexpected %C after closing quote" c)
    in
    plain 0;
    if Buffer.length buf > 0 || !row <> [] || !quoted then flush_row ();
    List.rev !rows

  let value_of_cell ?domain cell =
    match (cell, domain) with
    | Quoted s, _ -> Value.Str s
    | Raw "-", _ -> Value.Null
    | Raw s, None -> Value.of_string_guess s
    | Raw s, Some d -> (
        match d with
        | Domain.Int_range _ | Domain.Ints -> (
            match int_of_string_opt s with
            | Some i -> Value.int i
            | None -> error (Printf.sprintf "expected an integer, got %S" s))
        | Domain.Floats -> (
            match float_of_string_opt s with
            | Some f -> Value.Float f
            | None -> error (Printf.sprintf "expected a float, got %S" s))
        | Domain.Bools -> (
            match bool_of_string_opt s with
            | Some b -> Value.Bool b
            | None -> error (Printf.sprintf "expected a bool, got %S" s))
        | Domain.Enum _ | Domain.Strings -> Value.Str s)

  let csv_read ?schema src =
    match parse_cells src with
    | [] -> error "empty CSV: missing header"
    | header :: body ->
        let attrs =
          List.map
            (function
              | Quoted s | Raw s ->
                  if String.equal s "" then error "empty column name"
                  else Attr.make s)
            header
        in
        let domain_of a =
          match schema with
          | None -> None
          | Some sc -> (
              match Schema.domain sc a with
              | Some d -> Some d
              | None ->
                  error
                    (Printf.sprintf "column %s not in schema %s" (Attr.name a)
                       (Schema.name sc)))
        in
        let domains = List.map domain_of attrs in
        let tuple_of_row cells =
          if List.length cells <> List.length attrs then
            error
              (Printf.sprintf "row has %d cells, header has %d"
                 (List.length cells) (List.length attrs));
          List.fold_left2
            (fun (t, doms) a cell ->
              match doms with
              | d :: rest ->
                  (Tuple.set t a (value_of_cell ?domain:d cell), rest)
              | [] -> assert false)
            (Tuple.empty, domains) attrs cells
          |> fst
        in
        (attrs, Xrel.of_list (List.map tuple_of_row body))
end

let outcome f = match f () with v -> Ok v | exception e -> Error e

let same_tuples x y = List.equal Tuple.equal (Xrel.to_list x) (Xrel.to_list y)

(* The same relation, or the same exception with the same message. One
   exception to the rule: where the reference let a bare exception out
   of a damaged binary input, the decoder calls the input corrupt. Seen
   on replaced bytes: a length varint past [max_int] reached its
   [String.sub] ([Invalid_argument]), an empty dictionary name its
   [Attr.make] ([Exec_error]). *)
let agree what reference actual =
  match (outcome reference, outcome actual) with
  | Ok x, Ok y ->
      if not (same_tuples x y) then
        Alcotest.failf "%s: decoded %s, the reference %s" what
          (Pp.to_string Xrel.pp y) (Pp.to_string Xrel.pp x)
  | ( Error (Invalid_argument _ | Exec_error.Error _),
      Error (Storage.Binary.Corrupt _) ) ->
      ()
  | Error e, Error e' ->
      if Printexc.to_string e <> Printexc.to_string e' then
        Alcotest.failf "%s: raised %s, the reference %s" what
          (Printexc.to_string e') (Printexc.to_string e)
  | Ok _, Error e ->
      Alcotest.failf "%s: raised %s, the reference decoded" what
        (Printexc.to_string e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: decoded, the reference raised %s" what
        (Printexc.to_string e)

let names = [| "A"; "B"; "C"; "AB"; "A1"; "x.A" |]

let random_value g =
  match Random.State.int g 4 with
  | 0 ->
      Value.int
        (match Random.State.int g 4 with
        | 0 -> Random.State.int g 300 - 100
        | 1 -> max_int
        | 2 -> min_int
        | _ -> Random.State.bits g * 1_000_003)
  | 1 ->
      Value.Float
        [| 0.; -0.; 1.5; -2.25; 1e300; Float.nan; 3.0 |].(Random.State.int g 7)
  | 2 ->
      Value.Str
        [|
          ""; "-"; "a"; "a,b"; "say \"hi\""; "two\nlines"; "cr\r"; "tab\there";
        |].(Random.State.int g 8)
  | _ -> Value.Bool (Random.State.bool g)

(* A relation over [cols] with nulls: some rows share a null pattern,
   some do not. *)
let random_xrel g cols =
  Xrel.of_list
    (List.init (Random.State.int g 12) (fun _ ->
         Tuple.of_list
           (List.map
              (fun a ->
                ( a,
                  if Random.State.int g 4 = 0 then Value.Null
                  else random_value g ))
              cols)))

let random_cols g =
  List.sort_uniq Attr.compare
    (List.init
       (1 + Random.State.int g 4)
       (fun _ -> Attr.make names.(Random.State.int g (Array.length names))))

(* A binary input the encoder never writes but [decode] accepts: its
   dictionary unsorted and with repeated names, its tuples listing
   indexes in any order and more than once. *)
let crafted_binary g =
  let buf = Buffer.create 64 in
  let varint n =
    let rec go n =
      if n < 0x80 then Buffer.add_char buf (Char.chr n)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n
  in
  Buffer.add_string buf "NRX2";
  let dict_len = 1 + Random.State.int g 5 in
  varint dict_len;
  for _ = 1 to dict_len do
    let n = names.(Random.State.int g 3) in
    varint (String.length n);
    Buffer.add_string buf n
  done;
  let count = Random.State.int g 6 in
  varint count;
  for _ = 1 to count do
    let bindings = Random.State.int g 5 in
    varint bindings;
    for _ = 1 to bindings do
      varint (Random.State.int g dict_len);
      Buffer.add_char buf '\x00';
      let v = Random.State.int g 5 in
      varint ((v lsl 1) lxor (v asr 62))
    done
  done;
  let crc = Storage.Crc32.digest (Buffer.contents buf) in
  for k = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * k)) land 0xff))
  done;
  Buffer.contents buf

let test_binary_matches_reference () =
  let g = Random.State.make [| 7 |] in
  let check what data =
    agree what
      (fun () -> Reference.binary_decode data)
      (fun () -> Storage.Binary.decode data)
  in
  for case = 1 to 60 do
    let enc =
      if case mod 4 = 0 then crafted_binary g
      else Storage.Binary.encode (random_xrel g (random_cols g))
    in
    check (Printf.sprintf "case %d" case) enc;
    for n = 0 to String.length enc - 1 do
      check (Printf.sprintf "case %d cut at %d" case n) (String.sub enc 0 n)
    done;
    for i = 0 to String.length enc - 1 do
      let b = Bytes.of_string enc in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      check (Printf.sprintf "case %d flipped at %d" case i) (Bytes.to_string b);
      Bytes.set b i (Char.chr (Random.State.int g 256));
      check
        (Printf.sprintf "case %d byte %d replaced" case i)
        (Bytes.to_string b)
    done
  done

(* A cell as a hand-written file might hold it: strings quoted or not
   when the dialect allows both, empty cells raw or quoted, the null as
   a raw [-] and the string "-" quoted. *)
let render_cell g v =
  let quote s =
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  in
  let special = function ',' | '"' | '\n' | '\r' -> true | _ -> false in
  match v with
  | Value.Null -> "-"
  | Value.Str s
    when Random.State.bool g
         && (not (String.equal s "-"))
         && not (String.exists special s) ->
      s
  | Value.Str s -> quote s
  | v -> Value.to_string v

let random_csv g =
  let cols = random_cols g in
  let x = random_xrel g cols in
  (* A header may name a column twice: the later cell wins. *)
  let header =
    if Random.State.int g 5 = 0 then cols @ [ List.hd cols ] else cols
  in
  let rows =
    List.map
      (fun t ->
        List.map
          (fun a ->
            if Random.State.int g 8 = 0 then
              if Random.State.bool g then "" else "\"\""
            else render_cell g (Tuple.get t a))
          header)
      (Xrel.to_list x)
  in
  let eol = [| "\n"; "\r\n"; "\r" |].(Random.State.int g 3) in
  ( cols,
    String.concat eol
      (List.map (String.concat ",") (List.map Attr.name header :: rows))
    ^ if Random.State.bool g then eol else "" )

let test_csv_matches_reference () =
  let g = Random.State.make [| 11 |] in
  for case = 1 to 150 do
    let cols, text = random_csv g in
    let domain () =
      [| Domain.Ints; Domain.Floats; Domain.Strings; Domain.Bools |]
        .(Random.State.int g 4)
    in
    let schema =
      Schema.make "R" (List.map (fun a -> (Attr.name a, domain ())) cols)
    in
    let check what text =
      agree what
        (fun () -> snd (Reference.csv_read text))
        (fun () -> snd (Storage.Csv.read_string text));
      agree (what ^ " under a schema")
        (fun () -> snd (Reference.csv_read ~schema text))
        (fun () -> snd (Storage.Csv.read_string ~schema text))
    in
    check (Printf.sprintf "case %d" case) text;
    for n = 0 to String.length text - 1 do
      check (Printf.sprintf "case %d cut at %d" case n) (String.sub text 0 n)
    done
  done

(* ---------------- no-op set_relation keeps the index ------------- *)

let test_noop_set_relation_keeps_index () =
  with_metrics (fun () ->
      let schema = Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints) ] in
      let cat = Storage.Catalog.add Storage.Catalog.empty schema Xrel.bottom in
      let cat = (Dml.exec_string cat "append to R (A = 1, B = 10)").Dml.catalog in
      let builds = metric "nullrel_subsume_index_builds_total" in
      let advances = metric "nullrel_subsume_index_advances_total" in
      Alcotest.(check bool) "first statement built an index" true (builds >= 1);
      (* Writing a relation's own value back must be the identity — the
         memoized subsumption index survives untouched. *)
      let cat' =
        Storage.Catalog.set_relation cat "R" (Storage.Catalog.relation cat "R")
      in
      Alcotest.(check bool) "no-op set_relation returns the catalog itself"
        true (cat' == cat);
      let cat'' =
        (Dml.exec_string cat' "append to R (A = 2, B = 20)").Dml.catalog
      in
      Alcotest.(check int) "no rebuild after the no-op write" builds
        (metric "nullrel_subsume_index_builds_total");
      Alcotest.(check bool) "the second statement advanced instead" true
        (metric "nullrel_subsume_index_advances_total" > advances);
      Alcotest.(check int) "both appends landed" 2
        (Xrel.cardinal (Storage.Catalog.relation cat'' "R")))

(* ------------- a compaction carries only the tables read ---------- *)

(* Every advance here adds 40 rows binding only C, past the overlay
   bound, so each one compacts. The table a probe of (A = 1) reads is
   carried by the compaction that follows its read, and dropped by one
   it was not read before: the probe after that builds it again. *)
let test_compaction_drops_unread_tables () =
  with_metrics (fun () ->
      let row k = Tuple.of_strings [ ("A", Value.Int k); ("B", Value.Int k) ] in
      let probe = Tuple.of_strings [ ("A", Value.Int 1) ] in
      let grow idx lo =
        Subsume_index.advance idx ~removed:[]
          ~added:(List.init 40 (fun k -> Tuple.of_strings [ ("C", Value.Int (lo + k)) ]))
      in
      let built = metric "nullrel_subsume_index_tables_built_total" in
      let compactions = metric "nullrel_subsume_index_compactions_total" in
      let check what expected idx =
        Alcotest.(check int) (what ^ ": count") 1 (Subsume_index.count_at idx probe);
        Alcotest.(check int) (what ^ ": tables built") expected
          (metric "nullrel_subsume_index_tables_built_total" - built)
      in
      let idx = Subsume_index.build (Relation.of_list [ row 1; row 2 ]) in
      check "the first probe builds" 1 idx;
      let idx = grow idx 0 in
      check "read, then carried" 1 idx;
      let idx = grow idx 100 in
      check "read again, carried again" 1 idx;
      let idx = grow (grow idx 200) 300 in
      check "unread through a compaction, dropped" 2 idx;
      Alcotest.(check int) "every advance compacted" 4
        (metric "nullrel_subsume_index_compactions_total" - compactions))

(* ---------------- INDEX file persistence protocol ---------------- *)

let attr s = Attr.make s
let single s = Attr.Set.singleton (attr s)

let indexed_seed () =
  let schema = Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints) ] in
  let x =
    Xrel.of_list
      [
        Tuple.of_strings [ ("A", Value.Int 1); ("B", Value.Int 10) ];
        Tuple.of_strings [ ("A", Value.Int 1); ("B", Value.Int 20) ];
        Tuple.of_strings [ ("A", Value.Int 2); ("B", Value.Int 30) ];
        Tuple.of_strings [ ("A", Value.Int 3) ];
        Tuple.of_strings [ ("B", Value.Int 40) ];
      ]
  in
  let cat = Storage.Catalog.add Storage.Catalog.empty schema x in
  let cat = Storage.Catalog.create_index cat "R" ~kind:"hash" (single "A") in
  Storage.Catalog.create_index cat "R" ~kind:"range" (single "B")

(* Every probe through the catalog must agree with the naive filter:
   exact matches on the attribute for total tuples, nothing for tuples
   null there. *)
let check_probe_agrees cat name a =
  match Storage.Catalog.equi_probe cat name (Attr.Set.singleton a) with
  | None -> Alcotest.failf "no equi probe on %s" (Attr.name a)
  | Some probe ->
      let tuples = Xrel.to_list (Storage.Catalog.relation cat name) in
      List.iter
        (fun t ->
          let expect =
            if not (Tuple.is_total_on (Attr.Set.singleton a) t) then []
            else
              List.filter
                (fun u ->
                  Tuple.is_total_on (Attr.Set.singleton a) u
                  && Value.equal (Tuple.get u a) (Tuple.get t a))
                tuples
          in
          Alcotest.(check bool)
            (Printf.sprintf "probe on %s agrees with filter" (Attr.name a))
            true
            (List.sort Tuple.compare (probe t)
            = List.sort Tuple.compare expect))
        tuples

let index_file dir = Filename.concat dir "INDEX"

(* Rewrite the INDEX file through [f] (a filter/mapper over its lines,
   split into fields) and re-seal it, so only the stale-dump protocol —
   not the whole-file damage path — is exercised. *)
let rewrite_index dir f =
  let path = index_file dir in
  let text = In_channel.with_open_text path In_channel.input_all in
  let lines = Option.get (Storage.Sidecar.unseal text) in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (Storage.Sidecar.seal (List.filter_map f lines)))

let is_line_entry = function "line" :: _ -> true | _ -> false

(* A load re-attaches every declaration and builds nothing: the
   probes read the relations' subsumption indexes, built on demand. *)
let test_index_persist_roundtrip () =
  Test_durability.with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (indexed_seed ());
      with_metrics (fun () ->
          let report = Storage.Persist.load_report ~dir () in
          Alcotest.(check (option string)) "clean load" None
            report.Storage.Persist.journal_note;
          let cat = report.Storage.Persist.catalog in
          Alcotest.(check int) "both declarations survive" 2
            (List.length (Storage.Catalog.all_indexes cat));
          Alcotest.(check int) "both declarations re-attached" 2
            (metric "storage_index_attach_total");
          Alcotest.(check int) "nothing built at load" 0
            (metric "nullrel_subsume_index_tables_built_total");
          check_probe_agrees cat "R" (attr "A");
          check_probe_agrees cat "R" (attr "B")))

(* An INDEX written before declarations became probes of the
   subsumption index carries a positional dump of each index in [line]
   entries, these for [indexed_seed]. With them or stripped of them, it
   loads the same declarations, and the first probe of each builds its
   listing from the data. *)
let dumped_lines =
  [
    [ "line"; "R"; "hash"; "A"; "3" ];
    [ "line"; "R"; "hash"; "A"; "2" ];
    [ "line"; "R"; "hash"; "A"; "1 0" ];
    [ "line"; "R"; "range"; "B"; "0 1 2 4" ];
  ]

let test_index_stripped_dump_rebuilds () =
  Test_durability.with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (indexed_seed ());
      let load () =
        with_metrics (fun () ->
            let report = Storage.Persist.load_report ~dir () in
            let cat = report.Storage.Persist.catalog in
            Alcotest.(check bool) "no repair" false
              report.Storage.Persist.needs_repair;
            Alcotest.(check int) "declarations survive" 2
              (List.length (Storage.Catalog.all_indexes cat));
            Alcotest.(check int) "nothing built at load" 0
              (metric "nullrel_subsume_index_tables_built_total");
            check_probe_agrees cat "R" (attr "A");
            check_probe_agrees cat "R" (attr "B");
            Alcotest.(check int) "each probe built its listing" 2
              (metric "nullrel_subsume_index_tables_built_total"))
      in
      load ();
      let path = index_file dir in
      let text = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Storage.Sidecar.seal
               (Option.get (Storage.Sidecar.unseal text) @ dumped_lines)));
      load ();
      rewrite_index dir (fun l -> if is_line_entry l then None else Some l);
      load ())

(* A [line] payload is never read: a garbled one (positions reversed,
   out of range, not numbers) loads like any other, with no note. *)
let test_index_garbled_payload_rebuilds () =
  Test_durability.with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (indexed_seed ());
      let path = index_file dir in
      let text = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Storage.Sidecar.seal
               (Option.get (Storage.Sidecar.unseal text)
               @ [
                   [ "line"; "R"; "range"; "B"; "4 2 1 0" ];
                   [ "line"; "R"; "hash"; "A"; "99 -1" ];
                   [ "line"; "R"; "hash"; "A"; "x y" ];
                 ])));
      let report = Storage.Persist.load_report ~dir () in
      let cat = report.Storage.Persist.catalog in
      Alcotest.(check (option string)) "no note" None
        report.Storage.Persist.journal_note;
      Alcotest.(check bool) "no repair" false report.Storage.Persist.needs_repair;
      Alcotest.(check int) "declarations survive" 2
        (List.length (Storage.Catalog.all_indexes cat));
      check_probe_agrees cat "R" (attr "A");
      check_probe_agrees cat "R" (attr "B"))

let test_index_torn_file_drops_declarations () =
  Test_durability.with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (indexed_seed ());
      let path = index_file dir in
      let text = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (String.sub text 0 (String.length text / 2)));
      let report = Storage.Persist.load_report ~dir () in
      (match report.Storage.Persist.journal_note with
      | Some note ->
          Alcotest.(check bool) "the journal note names the INDEX file" true
            (contains note "INDEX file damaged")
      | None -> Alcotest.fail "torn INDEX file must be reported");
      let cat = report.Storage.Persist.catalog in
      Alcotest.(check int) "declarations are dropped, not guessed" 0
        (List.length (Storage.Catalog.all_indexes cat));
      List.iter
        (fun (name, status) ->
          match status with
          | Storage.Persist.Ok | Storage.Persist.Recovered _ -> ()
          | Storage.Persist.Corrupt r ->
              Alcotest.failf "relation %s quarantined: %s" name r)
        report.Storage.Persist.statuses;
      Alcotest.(check int) "data unaffected" 5
        (Xrel.cardinal (Storage.Catalog.relation cat "R")))

(* -------------- probe-served compiled queries ------------------- *)

let test_compiled_query_probe_parity () =
  let emp = Schema.make "EMP" [ ("ENAME", Domain.Strings); ("EDEPT", Domain.Ints) ] in
  let dept = Schema.make "DEPT" [ ("DDEPT", Domain.Ints); ("LOC", Domain.Strings) ] in
  let emp_x =
    Xrel.of_list
      [
        Tuple.of_strings [ ("ENAME", Value.Str "smith"); ("EDEPT", Value.Int 1) ];
        Tuple.of_strings [ ("ENAME", Value.Str "jones"); ("EDEPT", Value.Int 2) ];
        Tuple.of_strings [ ("ENAME", Value.Str "blake"); ("EDEPT", Value.Int 2) ];
        Tuple.of_strings [ ("ENAME", Value.Str "clark") ];
      ]
  in
  let dept_x =
    Xrel.of_list
      [
        Tuple.of_strings [ ("DDEPT", Value.Int 1); ("LOC", Value.Str "ny") ];
        Tuple.of_strings [ ("DDEPT", Value.Int 2); ("LOC", Value.Str "sf") ];
        Tuple.of_strings [ ("DDEPT", Value.Int 3); ("LOC", Value.Str "la") ];
      ]
  in
  let cat =
    Storage.Catalog.add
      (Storage.Catalog.add Storage.Catalog.empty emp emp_x)
      dept dept_x
  in
  let cat = Storage.Catalog.create_index cat "DEPT" ~kind:"hash" (single "DDEPT") in
  let db = Storage.Catalog.to_db cat in
  let q =
    match
      Quel.Parser.parse_statement
        "range of e is EMP range of d is DEPT retrieve (e.ENAME, d.LOC) \
         where e.EDEPT = d.DDEPT"
    with
    | Quel.Ast.Retrieve q -> q
    | _ -> Alcotest.fail "expected a retrieve"
  in
  let indexed = Plan.Compile.run_catalog cat db q in
  let plain = Plan.Compile.run db q in
  Alcotest.(check bool) "probe-served result = product-select result" true
    (Xrel.equal (Xrel.unsafe_of_minimal indexed.Quel.Eval.sure)
       plain.Quel.Eval.rel);
  (* A join the index serves never evaluates the indexed factor. *)
  let rec evaluated n =
    n.Plan.Analyze.label :: List.concat_map evaluated n.Plan.Analyze.children
  in
  let evaluated = evaluated (Plan.Compile.analyze_catalog cat db q) in
  Alcotest.(check bool) "the declared index actually served the join" true
    (List.mem "EMP" evaluated && not (List.mem "DEPT" evaluated));
  Alcotest.(check int) "null-department employee joins nothing" 3
    (Relation.cardinal indexed.Quel.Eval.sure)

(* Four domains force one catalog's unbuilt subsumption index at once
   and probe it through every memoized part (tuple set, signature
   counts, size, per-signature probe tables). Each must answer exactly
   as a sequential probe of a private index does, and none may raise. *)
let test_index_memo_four_domains () =
  let schema =
    Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints); ("C", Domain.Ints) ]
  in
  let row i =
    Tuple.of_strings
      ([ ("A", Value.Int i) ]
      @ (if i mod 3 = 0 then [] else [ ("B", Value.Int (i mod 7)) ])
      @ if i mod 5 = 0 then [] else [ ("C", Value.Int (i mod 11)) ])
  in
  let x = Xrel.of_list (List.init 3000 row) in
  let probes =
    List.concat_map
      (fun i ->
        let t = row i in
        [ t; Tuple.restrict t (Attr.Set.singleton (Attr.make "A"));
          Tuple.set t (Attr.make "B") (Value.Int 99) ])
      [ 0; 1; 2; 14; 15; 299; 2999; 4000 ]
  in
  let answer idx t =
    ( Subsume_index.subsuming_exists idx t,
      Subsume_index.strictly_subsuming_exists idx t,
      Subsume_index.mem idx t,
      List.sort Tuple.compare (Subsume_index.subsumed_within idx t),
      Subsume_index.cardinal idx )
  in
  let same (a1, b1, c1, l1, n1) (a2, b2, c2, l2, n2) =
    a1 = a2 && b1 = b2 && c1 = c2 && n1 = n2 && List.equal Tuple.equal l1 l2
  in
  let expected = List.map (answer (Subsume_index.build (Xrel.rep x))) probes in
  let domains = 4 in
  for _ = 1 to 25 do
    let cat = Storage.Catalog.add Storage.Catalog.empty schema x in
    let ready = Atomic.make 0 in
    let worker () =
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Stdlib.Domain.cpu_relax ()
      done;
      let idx = Option.get (Storage.Catalog.probe_index cat "R") in
      List.map (answer idx) probes
    in
    List.iter
      (fun d ->
        Alcotest.(check bool) "concurrent probes agree with a sequential one"
          true
          (List.equal same (Stdlib.Domain.join d) expected))
      (List.init domains (fun _ -> Stdlib.Domain.spawn worker))
  done

let suite =
  [
    Alcotest.test_case "binary: every truncation raises Corrupt" `Quick
      test_binary_truncation_fuzz;
    Alcotest.test_case "binary: every byte flip raises Corrupt" `Quick
      test_binary_byteflip_fuzz;
    Alcotest.test_case "binary: decode = a Tuple.set per cell, cut or flipped"
      `Quick test_binary_matches_reference;
    Alcotest.test_case "csv: read = a Tuple.set per cell, cut or typed" `Quick
      test_csv_matches_reference;
    Alcotest.test_case "index: a compaction drops the tables no probe read"
      `Quick test_compaction_drops_unread_tables;
    Alcotest.test_case "no-op set_relation keeps the memoized index" `Quick
      test_noop_set_relation_keeps_index;
    Alcotest.test_case "INDEX roundtrip re-attaches without rebuilding" `Quick
      test_index_persist_roundtrip;
    Alcotest.test_case "stripped INDEX dumps degrade to rebuild" `Quick
      test_index_stripped_dump_rebuilds;
    Alcotest.test_case "garbled INDEX payload degrades to rebuild" `Quick
      test_index_garbled_payload_rebuilds;
    Alcotest.test_case "torn INDEX file drops declarations with a note" `Quick
      test_index_torn_file_drops_declarations;
    Alcotest.test_case "compiled join is probe-served and agrees" `Quick
      test_compiled_query_probe_parity;
    Alcotest.test_case "four domains force one index memo" `Quick
      test_index_memo_four_domains;
  ]
