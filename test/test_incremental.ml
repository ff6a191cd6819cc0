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
          Alcotest.(check int) "both dumps re-attached verbatim" 2
            (metric "storage_index_attach_total");
          Alcotest.(check int) "nothing rebuilt" 0
            (metric "storage_index_rebuild_total");
          check_probe_agrees cat "R" (attr "A");
          check_probe_agrees cat "R" (attr "B")))

let test_index_stripped_dump_rebuilds () =
  Test_durability.with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (indexed_seed ());
      (* Declarations and stamps intact, dumps gone: the loader must
         degrade to rebuilding from data, never fail. *)
      rewrite_index dir (fun l -> if is_line_entry l then None else Some l);
      with_metrics (fun () ->
          let report = Storage.Persist.load_report ~dir () in
          let cat = report.Storage.Persist.catalog in
          Alcotest.(check int) "declarations survive without dumps" 2
            (List.length (Storage.Catalog.all_indexes cat));
          Alcotest.(check int) "nothing attached verbatim" 0
            (metric "storage_index_attach_total");
          Alcotest.(check int) "both rebuilt from data" 2
            (metric "storage_index_rebuild_total");
          check_probe_agrees cat "R" (attr "A");
          check_probe_agrees cat "R" (attr "B")))

let test_index_garbled_payload_rebuilds () =
  Test_durability.with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (indexed_seed ());
      (* Reverse the range dump's position list: the checksum still
         passes (we recompute it) but restore must spot the broken sort
         order and degrade to a rebuild — stale-never-wrong. *)
      rewrite_index dir (function
        | [ "line"; rel; "range"; attrs; payload ] ->
            let reversed =
              String.concat " " (List.rev (String.split_on_char ' ' payload))
            in
            Some [ "line"; rel; "range"; attrs; reversed ]
        | l -> Some l);
      with_metrics (fun () ->
          let report = Storage.Persist.load_report ~dir () in
          let cat = report.Storage.Persist.catalog in
          Alcotest.(check int) "declarations survive" 2
            (List.length (Storage.Catalog.all_indexes cat));
          Alcotest.(check int) "the intact hash dump still attaches" 1
            (metric "storage_index_attach_total");
          Alcotest.(check int) "the anomalous range dump rebuilds" 1
            (metric "storage_index_rebuild_total");
          check_probe_agrees cat "R" (attr "A");
          check_probe_agrees cat "R" (attr "B")))

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
