(* Storage substrate: hash indexes, CSV, catalog and algebraic updates. *)

open Nullrel
open Helpers

(* --------------------- Subsume_index --------------------- *)

let ab = t [ ("A", i 1); ("B", i 2) ]
let abc = t [ ("A", i 1); ("B", i 2); ("C", i 3) ]
let a1 = t [ ("A", i 1) ]
let a2 = t [ ("A", i 2) ]

let test_index_probes () =
  let idx = Subsume_index.build (rel [ ab; a2 ]) in
  Alcotest.(check int) "count at a1: ab matches" 1
    (Subsume_index.count_at idx a1);
  Alcotest.(check int) "count at ab" 1 (Subsume_index.count_at idx ab);
  Alcotest.(check int) "count at a2" 1 (Subsume_index.count_at idx a2);
  Alcotest.(check int) "no match" 0
    (Subsume_index.count_at idx (t [ ("A", i 9) ]));
  Alcotest.(check bool) "subsuming exists" true
    (Subsume_index.subsuming_exists idx a1);
  Alcotest.(check bool) "strictly subsuming (a1 < ab)" true
    (Subsume_index.strictly_subsuming_exists idx a1);
  Alcotest.(check bool) "ab not strictly subsumed" false
    (Subsume_index.strictly_subsuming_exists idx ab)

let test_index_strict_with_member () =
  (* a1 is itself indexed: its own presence must not count as a strict
     subsumer, but ab's must. *)
  let idx = Subsume_index.build (rel [ a1; ab ]) in
  Alcotest.(check int) "two tuples agree on A=1" 2
    (Subsume_index.count_at idx a1);
  Alcotest.(check bool) "a1 strictly subsumed by ab" true
    (Subsume_index.strictly_subsuming_exists idx a1);
  let idx_alone = Subsume_index.build (rel [ a1; a2 ]) in
  Alcotest.(check bool) "a1 alone not strictly subsumed" false
    (Subsume_index.strictly_subsuming_exists idx_alone a1)

let test_index_diff_agrees () =
  let r1 = rel [ ab; a2; t [ ("B", i 9) ] ] in
  let r2 = rel [ abc; t [ ("A", i 2) ] ] in
  let naive =
    Relation.filter (fun r -> not (Relation.x_mem r r2)) r1
  in
  Alcotest.check relation "indexed diff = naive diff" naive
    (Subsume_index.diff r1 r2)

let test_index_minimize_agrees () =
  let redundant = rel [ ab; abc; a1; a2; Tuple.empty; t [ ("C", i 3) ] ] in
  Alcotest.check relation "indexed minimize = naive minimize"
    (Relation.minimize redundant)
    (Subsume_index.minimize redundant)

let test_index_randomized_agreement () =
  (* Cross-validate on generated relations with nulls. *)
  let g = Workload.Prng.create 42 in
  let spec =
    { Workload.Gen.arity = 3; rows = 120; domain_size = 4; null_density = 0.3 }
  in
  for _ = 1 to 10 do
    let r1 = Workload.Gen.relation g spec in
    let r2 = Workload.Gen.relation g spec in
    Alcotest.check relation "diff agreement"
      (Relation.filter (fun r -> not (Relation.x_mem r r2)) r1)
      (Subsume_index.diff r1 r2);
    Alcotest.check relation "minimize agreement" (Relation.minimize r1)
      (Subsume_index.minimize r1)
  done

let test_index_x_mem () =
  (* The one-shot [x_mem] helper is gone: a membership probe is a
     [build] + [subsuming_exists], so repeated probes share the index. *)
  let idx = Subsume_index.build (rel [ ab ]) in
  Alcotest.(check bool) "indexed x_mem" true
    (Subsume_index.subsuming_exists idx a1);
  Alcotest.(check bool) "indexed x_mem negative" false
    (Subsume_index.subsuming_exists idx a2)

(* A compaction carries the tables built before it: here the table of
   a1's signature, whose bucket must drop a1 itself, the exact match,
   and keep counting ab above it. The fillers bind only C, so they sit
   in no bucket of that table but push the overlay past its bound. *)
let test_index_compaction_carries_tables () =
  let idx = Subsume_index.build (rel [ a1; ab ]) in
  Alcotest.(check bool) "a1 strictly subsumed before" true
    (Subsume_index.strictly_subsuming_exists idx a1);
  Alcotest.(check (list string)) "listed before" [ "(A=1)"; "(A=1, B=2)" ]
    (List.map (Pp.to_string Tuple.pp) (Subsume_index.matching idx a1));
  let fillers = List.init 40 (fun k -> t [ ("C", i k) ]) in
  let idx = Subsume_index.advance idx ~added:fillers ~removed:[ a1 ] in
  Alcotest.(check int) "count at a1: ab alone" 1 (Subsume_index.count_at idx a1);
  Alcotest.(check bool) "a1 strictly subsumed by ab" true
    (Subsume_index.strictly_subsuming_exists idx a1);
  Alcotest.(check (list string)) "listed after" [ "(A=1, B=2)" ]
    (List.map (Pp.to_string Tuple.pp) (Subsume_index.matching idx a1))

(* A listing is keyed by the hash of a restriction, so tuples whose
   restrictions collide share a key: (A=0, B=65599) and (A=1, B=0) hash
   alike ((2 * 65599 + 0) * 65599 + 65599 = (2 * 65599 + 1) * 65599). *)
let test_index_listing_collision () =
  let r1 = t [ ("A", i 0); ("B", i 65599) ] and r2 = t [ ("A", i 1); ("B", i 0) ] in
  Alcotest.(check int) "the restrictions collide" (Tuple.hash r1) (Tuple.hash r2);
  let idx = Subsume_index.build (rel [ t [ ("A", i 0); ("B", i 65599); ("C", i 7) ]; r2 ]) in
  Alcotest.(check (list string)) "only the agreeing tuple"
    [ "(A=0, B=65599, C=7)" ]
    (List.map (Pp.to_string Tuple.pp) (Subsume_index.matching idx r1))

(* --------------------------- Csv -------------------------- *)

let emp_csv = "E#,NAME,SEX,MGR#,TEL#\n1120,SMITH,M,2235,-\n4335,BROWN,F,2235,-\n8799,GREEN,M,1255,-\n"

let test_csv_read () =
  let attrs, x1 = Storage.Csv.read_string emp_csv in
  Alcotest.(check (list string)) "header"
    [ "E#"; "NAME"; "SEX"; "MGR#"; "TEL#" ]
    (List.map Attr.name attrs);
  check_xrel "Table II roundtrips from CSV" emp_table1 x1

let test_csv_roundtrip () =
  let attrs = Schema.attrs emp_schema_v2 in
  let out = Storage.Csv.write_string attrs emp_table2 in
  let _, back = Storage.Csv.read_string out in
  check_xrel "write . read = id" emp_table2 back

let test_csv_quoting () =
  let tricky =
    x
      [
        t [ ("A", s "a,b"); ("B", s "say \"hi\"") ];
        t [ ("A", s "-") ];
        (* the string dash, not the null *)
        t [ ("B", s "line1") ];
      ]
  in
  let out = Storage.Csv.write_string [ a_ "A"; a_ "B" ] tricky in
  let _, back = Storage.Csv.read_string out in
  check_xrel "quoting roundtrips" tricky back

let test_csv_with_schema () =
  let schema =
    Schema.make "R" [ ("A", Domain.Int_range (0, 99)); ("B", Domain.Strings) ]
  in
  let _, x1 = Storage.Csv.read_string ~schema "A,B\n7,42\n" in
  (* With the schema, B's 42 stays a string. *)
  check_xrel "typed parse" (x [ t [ ("A", i 7); ("B", s "42") ] ]) x1

let test_csv_errors () =
  let fails src =
    try
      ignore (Storage.Csv.read_string src);
      false
    with Storage.Csv.Error _ -> true
  in
  Alcotest.(check bool) "ragged row" true (fails "A,B\n1\n");
  Alcotest.(check bool) "empty input" true (fails "");
  Alcotest.(check bool) "unterminated quote" true (fails "A\n\"oops\n")

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "nullrel" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Storage.Csv.write_file path (Schema.attrs emp_schema_v1) emp_table1;
      let _, back = Storage.Csv.read_file path in
      check_xrel "file roundtrip" emp_table1 back)

(* ------------------------- Catalog ------------------------ *)

let test_catalog_basics () =
  let cat = Storage.Catalog.add Storage.Catalog.empty emp_schema_v1 emp_table1 in
  Alcotest.(check bool) "mem" true (Storage.Catalog.mem cat "EMP");
  Alcotest.(check (list string)) "names" [ "EMP" ] (Storage.Catalog.names cat);
  check_xrel "relation back" emp_table1 (Storage.Catalog.relation cat "EMP");
  Alcotest.(check string) "schema back" "EMP"
    (Schema.name (Storage.Catalog.schema cat "EMP"));
  Alcotest.(check bool) "remove" false
    (Storage.Catalog.mem (Storage.Catalog.remove cat "EMP") "EMP")

let test_catalog_checks () =
  (* A duplicate key must be rejected at registration. *)
  let dup =
    x
      [
        t [ ("E#", i 1); ("NAME", s "X"); ("SEX", s "M") ];
        t [ ("E#", i 1); ("NAME", s "Y"); ("SEX", s "F") ];
      ]
  in
  Alcotest.(check bool) "violation raised" true
    (try
       ignore (Storage.Catalog.add Storage.Catalog.empty emp_schema_v1 dup);
       false
     with Storage.Catalog.Violation _ -> true);
  (* add_unchecked lets it through. *)
  Alcotest.(check bool) "unchecked accepts" true
    (Storage.Catalog.mem
       (Storage.Catalog.add_unchecked Storage.Catalog.empty emp_schema_v1 dup)
       "EMP")

let test_catalog_to_db () =
  let cat = Storage.Catalog.add Storage.Catalog.empty emp_schema_v1 emp_table1 in
  let db = Storage.Catalog.to_db cat in
  let result =
    Quel.Eval.run db
      (Quel.Parser.parse "range of e is EMP retrieve (e.NAME) where e.SEX = \"M\"")
  in
  check_xrel "query through catalog"
    (x [ t [ ("NAME", s "SMITH") ]; t [ ("NAME", s "GREEN") ] ])
    result.Quel.Eval.rel

let orders_schema =
  Schema.make "ORDERS" ~key:[ "O#" ]
    ~foreign_keys:[ ([ "CUST" ], "EMP", [ "E#" ]) ]
    [ ("O#", Domain.Ints); ("CUST", Domain.Ints) ]

let test_referential_integrity () =
  let orders ok_cust =
    x
      [
        t [ ("O#", i 1); ("CUST", i ok_cust) ];
        t [ ("O#", i 2) ];
        (* customer unknown: asserts nothing, never a violation *)
      ]
  in
  let cat =
    Storage.Catalog.add
      (Storage.Catalog.add Storage.Catalog.empty emp_schema_v1 emp_table1)
      orders_schema (orders 1120)
  in
  Alcotest.(check int) "valid references" 0
    (List.length (Storage.Catalog.check_references cat));
  (* A dangling total reference is flagged. *)
  let bad =
    Storage.Catalog.set_relation cat "ORDERS" (orders 9999)
  in
  let violations = Storage.Catalog.check_references bad in
  Alcotest.(check int) "one dangling reference" 1 (List.length violations);
  (match violations with
  | [ v ] ->
      Alcotest.(check string) "names the referencing relation" "ORDERS"
        v.Storage.Catalog.relation
  | _ -> Alcotest.fail "expected one violation");
  (* A missing target relation flags every total reference. *)
  let orphan =
    Storage.Catalog.add Storage.Catalog.empty orders_schema (orders 1120)
  in
  Alcotest.(check int) "absent target flags the reference" 1
    (List.length (Storage.Catalog.check_references orphan))

let test_foreign_key_declaration_guards () =
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       ignore
         (Schema.make "R"
            ~foreign_keys:[ ([ "A" ], "S", [ "X"; "Y" ]) ]
            [ ("A", Domain.Ints) ]);
       false
     with Exec_error.Error (Exec_error.Bad_input _) -> true);
  Alcotest.(check bool) "unknown local attribute rejected" true
    (try
       ignore
         (Schema.make "R"
            ~foreign_keys:[ ([ "Z" ], "S", [ "X" ]) ]
            [ ("A", Domain.Ints) ]);
       false
     with Exec_error.Error (Exec_error.Bad_input _) -> true)

(* ------------------------- Binary ------------------------- *)

let test_binary_roundtrip () =
  List.iter
    (fun x_ ->
      check_xrel "decode . encode = id" x_
        (Storage.Binary.decode (Storage.Binary.encode x_)))
    [
      emp_table1;
      ps;
      Xrel.bottom;
      x [ t [ ("A", Value.Float 1.5); ("B", Value.Bool true) ] ];
      x [ t [ ("S", s "with,comma\"quote\nnewline") ] ];
      x [ t [ ("N", i (-123456789)) ]; t [ ("N", i max_int) ] ];
    ]

let test_binary_randomized () =
  let g = Workload.Prng.create 99 in
  for _ = 1 to 20 do
    let spec =
      { Workload.Gen.arity = 4; rows = 50; domain_size = 1000; null_density = 0.4 }
    in
    let x_ = Workload.Gen.xrel g spec in
    check_xrel "randomized roundtrip" x_
      (Storage.Binary.decode (Storage.Binary.encode x_))
  done

let test_binary_corruption () =
  let good = Storage.Binary.encode emp_table1 in
  let fails data =
    try
      ignore (Storage.Binary.decode data);
      false
    with Storage.Binary.Corrupt _ -> true
  in
  Alcotest.(check bool) "bad magic" true (fails ("XXXX" ^ String.sub good 4 (String.length good - 4)));
  Alcotest.(check bool) "truncated" true
    (fails (String.sub good 0 (String.length good - 3)));
  Alcotest.(check bool) "trailing bytes" true (fails (good ^ "!"));
  Alcotest.(check bool) "empty input" true (fails "")

let test_binary_file_roundtrip () =
  let path = Filename.temp_file "nullrel" ".nrx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Storage.Binary.write_file path ps;
      check_xrel "file roundtrip" ps (Storage.Binary.read_file path))

let test_binary_compactness () =
  (* Sparse data: nulls cost nothing in the binary form. *)
  let g = Workload.Prng.create 123 in
  let spec =
    { Workload.Gen.arity = 6; rows = 300; domain_size = 100; null_density = 0.6 }
  in
  let x_ = Workload.Gen.xrel g spec in
  let attrs = Workload.Gen.attrs spec in
  let csv = Storage.Csv.write_string attrs x_ in
  let bin = Storage.Binary.encode x_ in
  Alcotest.(check bool) "binary smaller than CSV on sparse data" true
    (String.length bin < String.length csv)

(* ------------------------- Update ------------------------- *)

let test_insert_monotone () =
  let inserted = Storage.Update.insert ps' [ t [ ("P#", s "p9"); ("S#", s "s9") ] ] in
  Alcotest.(check bool) "new contains old" true (Xrel.contains inserted ps');
  (* Inserting already-subsumed information is a no-op. *)
  check_xrel "subsumed insert is identity" ps'
    (Storage.Update.insert ps' [ t [ ("S#", s "s2") ] ])

let test_delete () =
  check_xrel "delete a tuple"
    (x [ t [ ("S#", s "s1") ] ])
    (Storage.Update.delete ps' (x [ t [ ("P#", s "p1"); ("S#", s "s2") ] ]));
  (* Deleting with a less informative tuple removes everything it
     subsumes... nothing here, since (S#=s2) is less informative. *)
  check_xrel "less informative delete keeps the tuple" ps'
    (Storage.Update.delete ps' (x [ t [ ("P#", s "p9"); ("S#", s "s2") ] ]))

let test_delete_where () =
  let remaining =
    Storage.Update.delete_where
      (Predicate.cmp_const "S#" Predicate.Eq (s "s2"))
      ps'
  in
  check_xrel "only the sure match goes" (x [ t [ ("S#", s "s1") ] ]) remaining

(* ------------------------- Persist ------------------------ *)

let test_schema_roundtrip () =
  List.iter
    (fun schema ->
      let text = Storage.Persist.schema_to_string schema in
      let back = Storage.Persist.schema_of_string text in
      Alcotest.(check string) "same serialization"
        text
        (Storage.Persist.schema_to_string back))
    [ emp_schema_v1; emp_schema_v2; orders_schema;
      Schema.make "PLAIN" [ ("X", Domain.Bools); ("Y", Domain.Floats) ] ]

let test_schema_parse_errors () =
  let fails text =
    try
      ignore (Storage.Persist.schema_of_string text);
      false
    with Storage.Persist.Error _ -> true
  in
  Alcotest.(check bool) "no relation line" true (fails "column\tA\tint\n");
  Alcotest.(check bool) "bad domain" true
    (fails "relation\tR\ncolumn\tA\tzorp\n");
  Alcotest.(check bool) "odd fk" true
    (fails "relation\tR\ncolumn\tA\tint\nfk\tS\tA\n")

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nullrel_test_%d" (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat dir e))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_catalog_roundtrip () =
  with_temp_dir (fun dir ->
      let cat =
        Storage.Catalog.add
          (Storage.Catalog.add Storage.Catalog.empty emp_schema_v1 emp_table1)
          orders_schema
          (x [ t [ ("O#", i 1); ("CUST", i 1120) ]; t [ ("O#", i 2) ] ])
      in
      Storage.Persist.save ~dir cat;
      let back = Storage.Persist.load ~dir () in
      Alcotest.(check (list string)) "names preserved"
        (Storage.Catalog.names cat)
        (Storage.Catalog.names back);
      List.iter
        (fun name ->
          check_xrel (name ^ " preserved")
            (Storage.Catalog.relation cat name)
            (Storage.Catalog.relation back name);
          Alcotest.(check string) (name ^ " schema preserved")
            (Storage.Persist.schema_to_string (Storage.Catalog.schema cat name))
            (Storage.Persist.schema_to_string
               (Storage.Catalog.schema back name)))
        (Storage.Catalog.names cat);
      Alcotest.(check int) "references still valid" 0
        (List.length (Storage.Catalog.check_references back)))

let test_modify () =
  let modified =
    Storage.Update.modify
      ~where:(Predicate.cmp_const "S#" Predicate.Eq (s "s2"))
      ~using:(fun r -> Tuple.set r (a_ "P#") (s "p7"))
      ps'
  in
  check_xrel "modification rewrites the matching tuple"
    (x [ t [ ("S#", s "s1") ]; t [ ("P#", s "p7"); ("S#", s "s2") ] ])
    modified

(* Line-ending robustness: CRLF files, CR-only files, and a final row
   with no trailing newline must all parse to the same relation. *)
let test_csv_line_endings () =
  let replace_newlines sep =
    String.concat sep (String.split_on_char '\n' emp_csv)
  in
  let chop src = String.sub src 0 (String.length src - 1) in
  let _, expected = Storage.Csv.read_string emp_csv in
  List.iter
    (fun (label, src) ->
      let _, got = Storage.Csv.read_string src in
      check_xrel label expected got)
    [
      ("crlf line endings", replace_newlines "\r\n");
      ("cr-only line endings", chop (replace_newlines "\r"));
      ("no final newline", chop emp_csv);
      ("crlf, no final newline", chop (chop (replace_newlines "\r\n")));
      ("cr at end of file", chop (replace_newlines "\r"));
    ]

let test_csv_quoted_cr_preserved () =
  (* a CR inside quotes is data, not a row break, and survives the
     write/read roundtrip *)
  let tricky = x [ t [ ("A", s "one\rtwo"); ("B", s "three\r\nfour") ] ] in
  let out = Storage.Csv.write_string [ a_ "A"; a_ "B" ] tricky in
  let _, back = Storage.Csv.read_string out in
  check_xrel "quoted CR roundtrips" tricky back

(* Every proper prefix of an encoding must be rejected: the checksum
   trailer makes arbitrary truncation detectable. *)
let test_binary_truncation_fuzz () =
  let enc = Storage.Binary.encode emp_table2 in
  for len = 0 to String.length enc - 1 do
    match Storage.Binary.decode (String.sub enc 0 len) with
    | _ -> Alcotest.failf "truncation to %d of %d bytes was accepted" len
             (String.length enc)
    | exception Storage.Binary.Corrupt _ -> ()
  done

(* ------------------------------ CRC-32 --------------------------- *)

(* The table is built when the module is initialized, so digests taken
   on several domains at once agree with a sequential one. The race the
   table once had, two domains forcing it first at once, cannot be
   re-created here: this process initialized the module long before. *)
let test_crc32_domains () =
  let crc = Storage.Crc32.digest in
  Alcotest.(check string)
    "check vector" "cbf43926"
    (Storage.Crc32.to_hex (crc "123456789"));
  let g = Random.State.make [| 22 |] in
  let inputs =
    Array.init 64 (fun _ ->
        String.init (Random.State.int g 300) (fun _ ->
            Char.chr (Random.State.int g 256)))
  in
  let expected = Array.map crc inputs in
  Array.iteri
    (fun i s ->
      let n = String.length s in
      let pos = if n = 0 then 0 else Random.State.int g n in
      let len = Random.State.int g (n - pos + 1) in
      Alcotest.(check int)
        (Printf.sprintf "digest_sub of input %d" i)
        (crc (String.sub s pos len))
        (Storage.Crc32.digest_sub s pos len);
      Alcotest.(check int)
        (Printf.sprintf "chained digest of input %d" i)
        expected.(i)
        (crc ~init:(crc (String.sub s 0 pos)) (String.sub s pos (n - pos))))
    inputs;
  let worker () =
    let ok = ref true in
    for _ = 1 to 50 do
      if crc "123456789" <> 0xcbf43926 then ok := false;
      Array.iteri (fun i s -> if crc s <> expected.(i) then ok := false) inputs
    done;
    !ok
  in
  let domains = List.init 4 (fun _ -> Stdlib.Domain.spawn worker) in
  Alcotest.(check (list bool))
    "every domain's digests equal the sequential ones"
    [ true; true; true; true ]
    (List.map Stdlib.Domain.join domains)

let suite =
  [
    Alcotest.test_case "index: probes" `Quick test_index_probes;
    Alcotest.test_case "index: strictness bookkeeping" `Quick
      test_index_strict_with_member;
    Alcotest.test_case "index: diff agrees with naive" `Quick
      test_index_diff_agrees;
    Alcotest.test_case "index: minimize agrees with naive" `Quick
      test_index_minimize_agrees;
    Alcotest.test_case "index: randomized agreement" `Quick
      test_index_randomized_agreement;
    Alcotest.test_case "index: one-shot x_mem" `Quick test_index_x_mem;
    Alcotest.test_case "index: a compaction carries its tables" `Quick
      test_index_compaction_carries_tables;
    Alcotest.test_case "index: a listing drops colliding restrictions" `Quick
      test_index_listing_collision;
    Alcotest.test_case "csv: read" `Quick test_csv_read;
    Alcotest.test_case "csv: roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv: quoting" `Quick test_csv_quoting;
    Alcotest.test_case "csv: schema-typed parse" `Quick test_csv_with_schema;
    Alcotest.test_case "csv: errors" `Quick test_csv_errors;
    Alcotest.test_case "csv: line endings" `Quick test_csv_line_endings;
    Alcotest.test_case "csv: quoted CR preserved" `Quick
      test_csv_quoted_cr_preserved;
    Alcotest.test_case "csv: file roundtrip" `Quick test_csv_file_roundtrip;
    Alcotest.test_case "catalog: basics" `Quick test_catalog_basics;
    Alcotest.test_case "catalog: schema enforcement" `Quick
      test_catalog_checks;
    Alcotest.test_case "catalog: to_db" `Quick test_catalog_to_db;
    Alcotest.test_case "catalog: referential integrity" `Quick
      test_referential_integrity;
    Alcotest.test_case "catalog: foreign-key guards" `Quick
      test_foreign_key_declaration_guards;
    Alcotest.test_case "update: insert is monotone" `Quick
      test_insert_monotone;
    Alcotest.test_case "update: delete" `Quick test_delete;
    Alcotest.test_case "update: delete_where" `Quick test_delete_where;
    Alcotest.test_case "update: modify" `Quick test_modify;
    Alcotest.test_case "persist: schema roundtrip" `Quick
      test_schema_roundtrip;
    Alcotest.test_case "persist: schema parse errors" `Quick
      test_schema_parse_errors;
    Alcotest.test_case "persist: catalog roundtrip" `Quick
      test_catalog_roundtrip;
    Alcotest.test_case "binary: roundtrip" `Quick test_binary_roundtrip;
    Alcotest.test_case "binary: randomized roundtrip" `Quick
      test_binary_randomized;
    Alcotest.test_case "binary: corruption detected" `Quick
      test_binary_corruption;
    Alcotest.test_case "binary: file roundtrip" `Quick
      test_binary_file_roundtrip;
    Alcotest.test_case "binary: compactness" `Quick test_binary_compactness;
    Alcotest.test_case "binary: truncation fuzz" `Quick
      test_binary_truncation_fuzz;
    Alcotest.test_case "crc32: digests agree across four domains" `Quick
      test_crc32_domains;
  ]
