(* The constraint subsystem: ni-tolerant uniqueness, not-null, foreign
   keys with restrict/cascade/set-null, declaration-time verification,
   serialization, persistence, and the session layer's typed rejection. *)

open Nullrel

let temp_dir prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) (Random.int 1_000_000))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_temp_dir f =
  let dir = temp_dir "nullrel_constr" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let ints name cols = Schema.make name (List.map (fun c -> (c, Domain.Ints)) cols)

let tup cells =
  Tuple.of_strings (List.map (fun (a, v) -> (a, Value.Int v)) cells)

let xrel rows = Xrel.of_list (List.map tup rows)

(* T(K, V) / R(F, W) / S(G): R.F references T.K, S.G references R.W. *)
let base ?(t = [ [ ("K", 1); ("V", 10) ] ]) ?(r = []) ?(s = []) () =
  let cat = Storage.Catalog.add Storage.Catalog.empty (ints "T" [ "K"; "V" ]) (xrel t) in
  let cat = Storage.Catalog.add cat (ints "R" [ "F"; "W" ]) (xrel r) in
  Storage.Catalog.add cat (ints "S" [ "G" ]) (xrel s)

let run cat stmt = Dml.exec_string cat stmt
let run_cat cat stmt = (run cat stmt).Dml.catalog

let check_violation name pred cat stmt =
  match run cat stmt with
  | _ -> Alcotest.failf "%s: expected a constraint violation" name
  | exception Constr.Error v ->
      Alcotest.(check bool)
        (name ^ ": violation class")
        true
        (pred (Constr.class_name v))

(* ---------------------- unique, ni-tolerant -------------------- *)

let test_unique_ignores_ni () =
  let cat = base ~t:[] () in
  let cat = run_cat cat "constrain unique T (K) as uq" in
  (* two tuples null on K collide with nothing *)
  let cat = run_cat cat "append to T (V = 1)" in
  let cat = run_cat cat "append to T (V = 2)" in
  let cat = run_cat cat "append to T (K = 1, V = 3)" in
  (* re-appending the same tuple is idempotent, not a duplicate *)
  let cat = run_cat cat "append to T (K = 1, V = 3)" in
  Alcotest.(check int) "three distinct tuples" 3
    (Tuple.Set.cardinal (Relation.tuples (Xrel.rep (Storage.Catalog.relation cat "T"))));
  check_violation "duplicate key"
    (String.equal "unique")
    cat "append to T (K = 1, V = 9)"

(* -------------------------- not-null --------------------------- *)

let test_not_null () =
  let cat = base ~t:[] () in
  let cat = run_cat cat "constrain notnull T (K) as nn" in
  let cat = run_cat cat "append to T (K = 1, V = 1)" in
  check_violation "ni on a not-null attribute"
    (String.equal "not-null")
    cat "append to T (V = 2)"

(* ----------------------- foreign keys -------------------------- *)

let test_fk_null_reference_passes () =
  let cat = base () in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete restrict as fkr" in
  (* a tuple null on the local attribute asserts nothing *)
  let cat = run_cat cat "append to R (W = 7)" in
  Alcotest.(check (list Alcotest.reject)) "no reference violations" []
    (Storage.Catalog.check_references cat);
  check_violation "dangling total reference"
    (String.equal "fk-dangling")
    cat "append to R (F = 9, W = 8)"

let test_fk_restrict () =
  let cat = base ~r:[ [ ("F", 1); ("W", 2) ] ] () in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete restrict as fkr" in
  check_violation "restrict blocks the delete"
    (String.equal "fk-restricted")
    cat "range of v is T delete v where v.K = 1"

let test_fk_cascade_transitive () =
  let cat =
    base
      ~t:[ [ ("K", 1); ("V", 10) ]; [ ("K", 2); ("V", 20) ] ]
      ~r:[ [ ("F", 1); ("W", 5) ]; [ ("F", 2); ("W", 6) ] ]
      ~s:[ [ ("G", 5) ] ]
      ()
  in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete cascade as fkr" in
  let cat = run_cat cat "constrain fk S (G) to R (W) on delete cascade as fks" in
  let out = run cat "range of v is T delete v where v.K = 1" in
  Alcotest.(check (list string))
    "touched lists the whole chain" [ "R"; "S"; "T" ] out.Dml.touched;
  Alcotest.(check bool) "message narrates the cascade" true
    (let rec contains i =
       i + 7 <= String.length out.Dml.message
       && (String.equal (String.sub out.Dml.message i 7) "cascade"
          || contains (i + 1))
     in
     contains 0);
  let cat = out.Dml.catalog in
  let card n =
    Tuple.Set.cardinal (Relation.tuples (Xrel.rep (Storage.Catalog.relation cat n)))
  in
  Alcotest.(check int) "T keeps the other tuple" 1 (card "T");
  Alcotest.(check int) "R loses the orphan" 1 (card "R");
  Alcotest.(check int) "S loses the transitive orphan" 0 (card "S");
  Alcotest.(check (list Alcotest.reject)) "referentially clean" []
    (Storage.Catalog.check_references cat)

let test_fk_set_null () =
  let cat = base ~r:[ [ ("F", 1); ("W", 2) ] ] () in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete setnull as fkr" in
  let cat = run_cat cat "range of v is T delete v where v.K = 1" in
  let tuples =
    Tuple.Set.elements (Relation.tuples (Xrel.rep (Storage.Catalog.relation cat "R")))
  in
  (match tuples with
  | [ t ] ->
      Alcotest.(check bool) "F rewritten to ni" true
        (Tuple.get t (Attr.make "F") = Value.Null);
      Alcotest.(check bool) "W untouched" true
        (Tuple.get t (Attr.make "W") = Value.Int 2)
  | _ -> Alcotest.fail "R should keep exactly one (nulled) tuple");
  Alcotest.(check (list Alcotest.reject)) "referentially clean" []
    (Storage.Catalog.check_references cat)

let test_fk_set_null_blocked_by_not_null () =
  let cat = base ~r:[ [ ("F", 1); ("W", 2) ] ] () in
  let cat = run_cat cat "constrain notnull R (F) as nn" in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete setnull as fkr" in
  check_violation "set-null forbidden by not-null"
    (String.equal "set-null-blocked")
    cat "range of v is T delete v where v.K = 1";
  (* the aborted delete left everything in place *)
  Alcotest.(check int) "T unchanged" 1
    (Tuple.Set.cardinal (Relation.tuples (Xrel.rep (Storage.Catalog.relation cat "T"))))

let test_fk_set_null_blocked_by_key () =
  let t = Schema.make "T" [ ("K", Domain.Ints) ] in
  let r = Schema.make "R" ~key:[ "F" ] [ ("F", Domain.Ints) ] in
  let cat = Storage.Catalog.add Storage.Catalog.empty t (xrel [ [ ("K", 1) ] ]) in
  let cat = Storage.Catalog.add cat r (xrel [ [ ("F", 1) ] ]) in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete setnull as fkr" in
  check_violation "set-null forbidden by the primary key"
    (String.equal "set-null-blocked")
    cat "range of v is T delete v where v.K = 1"

(* ------------- delete actions under an unverified fk ----------- *)

(* T = {1, 2} referenced by R, the foreign key declared over clean data;
   then R is reloaded wholesale with [r], which may dangle — the
   constraint stays attached, unverified. [indexed] declares a hash
   index on R (F), so the delete action is served by probes instead of
   a scan; both must act on the same tuples. *)
let unverified_fk ~action ~indexed r =
  let cat =
    base
      ~t:[ [ ("K", 1); ("V", 10) ]; [ ("K", 2); ("V", 20) ] ]
      ~r:[ [ ("F", 1); ("W", 5) ]; [ ("F", 2); ("W", 6) ] ]
      ()
  in
  let cat =
    run_cat cat
      (Printf.sprintf "constrain fk R (F) to T (K) on delete %s as fkr" action)
  in
  let cat = Storage.Catalog.add cat (ints "R" [ "F"; "W" ]) (xrel r) in
  Alcotest.(check (list string)) "reload leaves fkr unverified" [ "fkr" ]
    (Storage.Catalog.unverified_constraints cat);
  if indexed then
    Storage.Catalog.create_index cat "R" ~kind:"hash"
      (Attr.Set.singleton (Attr.make "F"))
  else cat

let r_rows cat =
  List.map
    (fun t ->
      List.map
        (fun a -> match Tuple.get t (Attr.make a) with Value.Int v -> v | _ -> -1)
        [ "F"; "W" ])
    (Xrel.to_list (Storage.Catalog.relation cat "R"))

let both_paths f =
  List.iter (fun indexed -> f ~indexed) [ false; true ]

let test_cascade_only_broken () =
  both_paths @@ fun ~indexed ->
  let cat =
    unverified_fk ~action:"cascade" ~indexed
      [ [ ("F", 1); ("W", 5) ]; [ ("F", 2); ("W", 6) ]; [ ("F", 99); ("W", 7) ] ]
  in
  let out = run cat "range of v is T delete v where v.K = 1" in
  Alcotest.(check string) "one cascade, the broken reference"
    "1 tuple deleted; cascade: 1 removed from R" out.Dml.message;
  Alcotest.(check (list (list int))) "the unrelated dangling row survives"
    [ [ 2; 6 ]; [ 99; 7 ] ] (r_rows out.Dml.catalog)

let test_restrict_only_broken () =
  both_paths @@ fun ~indexed ->
  let cat =
    unverified_fk ~action:"restrict" ~indexed
      [ [ ("F", 2); ("W", 6) ]; [ ("F", 99); ("W", 7) ] ]
  in
  let out = run cat "range of v is T delete v where v.K = 1" in
  Alcotest.(check string) "nothing references K = 1" "1 tuple deleted"
    out.Dml.message;
  (* With a real reference beside a lesser unrelated dangling row, the
     refusal names the reference the delete broke. *)
  let cat =
    unverified_fk ~action:"restrict" ~indexed
      [ [ ("F", 0); ("W", 7) ]; [ ("F", 1); ("W", 5) ] ]
  in
  match run cat "range of v is T delete v where v.K = 1" with
  | _ -> Alcotest.fail "the delete breaks (F=1, W=5) and must be refused"
  | exception Constr.Error (Constr.Restricted { tuple; _ }) ->
      Alcotest.(check string) "names the broken reference" "(F=1, W=5)"
        (Pp.to_string Tuple.pp tuple)

let test_set_null_only_broken () =
  both_paths @@ fun ~indexed ->
  let cat =
    unverified_fk ~action:"setnull" ~indexed
      [ [ ("F", 1); ("W", 5) ]; [ ("F", 2); ("W", 6) ]; [ ("F", 99); ("W", 7) ] ]
  in
  let out = run cat "range of v is T delete v where v.K = 1" in
  Alcotest.(check string) "one rewrite, the broken reference"
    "1 tuple deleted; cascade: 1 set to null in R" out.Dml.message;
  Alcotest.(check (list (list int))) "only (F=1, W=5) lost its F"
    [ [ -1; 5 ]; [ 2; 6 ]; [ 99; 7 ] ]
    (List.sort compare (r_rows out.Dml.catalog))

(* ------------------- declaration-time verify ------------------- *)

let test_declare_verifies_existing_data () =
  let cat = base ~t:[ [ ("K", 1); ("V", 1) ]; [ ("K", 1); ("V", 2) ] ] () in
  (match run cat "constrain unique T (K)" with
  | _ -> Alcotest.fail "declaring over duplicates must fail"
  | exception Constr.Error _ -> ());
  Alcotest.(check int) "nothing was attached" 0
    (List.length (Storage.Catalog.constraints cat));
  (* dangling data blocks a foreign key too *)
  let cat = base ~r:[ [ ("F", 9); ("W", 1) ] ] () in
  match run cat "constrain fk R (F) to T (K) on delete restrict" with
  | _ -> Alcotest.fail "declaring over dangling references must fail"
  | exception Constr.Error _ -> ()

let test_unconstrain () =
  let cat = base ~r:[ [ ("F", 1); ("W", 2) ] ] () in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete restrict as fkr" in
  let cat = run_cat cat "unconstrain fkr" in
  Alcotest.(check int) "dropped" 0 (List.length (Storage.Catalog.constraints cat));
  (* the restricted delete now goes through *)
  let cat = run_cat cat "range of v is T delete v where v.K = 1" in
  Alcotest.(check int) "T empty" 0
    (Tuple.Set.cardinal (Relation.tuples (Xrel.rep (Storage.Catalog.relation cat "T"))))

(* ----------------------- serialization ------------------------- *)

let test_def_line_roundtrip () =
  let defs =
    [
      Constr.Unique { name = "uq"; rel = "T"; attrs = [ Attr.make "K"; Attr.make "V" ] };
      Constr.Not_null { name = "nn"; rel = "R"; attr = Attr.make "F" };
      Constr.Foreign_key
        {
          name = "fk1"; rel = "R"; target = "T";
          pairs = [ (Attr.make "F", Attr.make "K") ];
          on_delete = Constr.Restrict;
        };
      Constr.Foreign_key
        {
          name = "fk2"; rel = "S"; target = "R";
          pairs = [ (Attr.make "G", Attr.make "W"); (Attr.make "H", Attr.make "F") ];
          on_delete = Constr.Cascade;
        };
      Constr.Foreign_key
        {
          name = "fk3"; rel = "R"; target = "T";
          pairs = [ (Attr.make "F", Attr.make "K") ];
          on_delete = Constr.Set_null;
        };
    ]
  in
  List.iter
    (fun def ->
      match Constr.def_of_line (Constr.def_to_line def) with
      | Some back ->
          Alcotest.(check string)
            ("roundtrip " ^ Constr.name def)
            (Constr.def_to_line def) (Constr.def_to_line back)
      | None -> Alcotest.failf "unparseable line for %s" (Constr.name def))
    defs;
  Alcotest.(check bool) "garbage is None" true
    (Constr.def_of_line "nonsense\tT\tK" = None)

(* ------------------------ persistence -------------------------- *)

let test_constraints_persist () =
  with_temp_dir @@ fun dir ->
  let cat = base ~r:[ [ ("F", 1); ("W", 2) ] ] () in
  let cat = run_cat cat "constrain unique T (K) as uq" in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete cascade as fkr" in
  Storage.Persist.save ~dir cat;
  let loaded = Storage.Persist.load ~dir () in
  Alcotest.(check (list string))
    "definitions restored" [ "uq"; "fkr" ]
    (List.map Constr.name (Storage.Catalog.constraints loaded));
  Alcotest.(check (list string))
    "restored as verified" []
    (Storage.Catalog.unverified_constraints loaded);
  (* enforcement is live on the loaded catalog *)
  match run loaded "append to T (K = 1, V = 99)" with
  | _ -> Alcotest.fail "loaded unique constraint must still fire"
  | exception Constr.Error _ -> ()

let test_stale_constraints_reported () =
  with_temp_dir @@ fun dir ->
  let cat = base () in
  let cat = run_cat cat "constrain unique T (K) as uq" in
  (* a wholesale reload of T marks the constraint unverified *)
  let cat =
    Storage.Catalog.add cat (ints "T" [ "K"; "V" ])
      (xrel [ [ ("K", 3); ("V", 1) ]; [ ("K", 4); ("V", 2) ] ])
  in
  Alcotest.(check (list string)) "stale before save" [ "uq" ]
    (Storage.Catalog.unverified_constraints cat);
  Storage.Persist.save ~dir cat;
  let report = Storage.Persist.load_report ~dir () in
  Alcotest.(check (list string)) "stale after load" [ "uq" ]
    (Storage.Catalog.unverified_constraints report.Storage.Persist.catalog);
  let mentions_stale =
    List.exists
      (fun line ->
        let rec contains i =
          i + 5 <= String.length line
          && (String.equal (String.sub line i 5) "stale" || contains (i + 1))
        in
        contains 0)
      (Storage.Persist.report_lines report)
  in
  Alcotest.(check bool) "load report surfaces the staleness" true mentions_stale;
  (* revalidation clears it *)
  let cat, violations =
    Storage.Catalog.revalidate_constraints report.Storage.Persist.catalog
  in
  Alcotest.(check int) "clean data revalidates" 0 (List.length violations);
  Alcotest.(check (list string)) "verified again" []
    (Storage.Catalog.unverified_constraints cat)

(* ------------------- session-layer rejection ------------------- *)

let test_session_constraint_rejection () =
  with_temp_dir @@ fun dir ->
  let cat = base () in
  let cat = run_cat cat "constrain fk R (F) to T (K) on delete restrict as fkr" in
  Storage.Persist.save ~dir cat;
  let eng, _ = Session.open_engine ~dir () in
  let a = Session.attach eng in
  let b = Session.attach eng in
  Session.begin_ a;
  Session.begin_ b;
  ignore (Session.exec_string a "append to R (F = 1, W = 7)");
  (* B's snapshot has no referencing row, so the delete stages fine *)
  ignore (Session.exec_string b "range of v is T delete v where v.K = 1");
  ignore (Session.commit a);
  (match Session.commit b with
  | _ -> Alcotest.fail "B's delete must be rejected at commit"
  | exception Session.Session_error.Error e ->
      (match e with
      | Session.Session_error.Constraint v ->
          Alcotest.(check string) "restricted" "fk-restricted" (Constr.class_name v)
      | _ -> Alcotest.fail "expected a Constraint rejection");
      Alcotest.(check int) "constraint rejections exit 10" 10
        (Session.Session_error.exit_code e));
  let snap = (Session.engine_snapshot eng).Session.catalog in
  Alcotest.(check (list Alcotest.reject)) "published snapshot is clean" []
    (Storage.Catalog.check_references snap);
  Session.shutdown eng

let suite =
  [
    Alcotest.test_case "unique ignores ni" `Quick test_unique_ignores_ni;
    Alcotest.test_case "not-null forbids ni" `Quick test_not_null;
    Alcotest.test_case "fk: null reference passes" `Quick test_fk_null_reference_passes;
    Alcotest.test_case "fk: restrict blocks" `Quick test_fk_restrict;
    Alcotest.test_case "fk: cascade is transitive" `Quick test_fk_cascade_transitive;
    Alcotest.test_case "fk: set-null rewrites to ni" `Quick test_fk_set_null;
    Alcotest.test_case "set-null blocked by not-null" `Quick
      test_fk_set_null_blocked_by_not_null;
    Alcotest.test_case "set-null blocked by the key" `Quick
      test_fk_set_null_blocked_by_key;
    Alcotest.test_case "unverified fk: cascade acts on broken refs only" `Quick
      test_cascade_only_broken;
    Alcotest.test_case "unverified fk: restrict refuses broken refs only" `Quick
      test_restrict_only_broken;
    Alcotest.test_case "unverified fk: set-null acts on broken refs only" `Quick
      test_set_null_only_broken;
    Alcotest.test_case "declare verifies existing data" `Quick
      test_declare_verifies_existing_data;
    Alcotest.test_case "unconstrain drops enforcement" `Quick test_unconstrain;
    Alcotest.test_case "def line roundtrip" `Quick test_def_line_roundtrip;
    Alcotest.test_case "constraints persist" `Quick test_constraints_persist;
    Alcotest.test_case "stale constraints reported" `Quick
      test_stale_constraints_reported;
    Alcotest.test_case "session rejects with exit 10" `Quick
      test_session_constraint_rejection;
  ]
