(* The statistics subsystem: collection, serialization, the catalog
   freshness protocol, checkpoint persistence, invalidation by journal
   replay, and the estimation-quality contract of the cost model built
   on top. *)

open Nullrel
open Helpers

let temp_dir prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) (Random.int 1_000_000))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_temp_dir f =
  let dir = temp_dir "nullrel_stats" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let stats_table = Alcotest.testable Stats.pp Stats.equal

(* ------------------------- collection ------------------------- *)

let abc = [ a_ "A"; a_ "B"; a_ "C" ]

let sample =
  x
    [
      t [ ("A", i 1); ("B", i 10); ("C", s "u") ];
      t [ ("A", i 2); ("B", i 20) ];
      t [ ("A", i 3); ("C", s "v") ];
      t [ ("A", i 3); ("B", i 20); ("C", s "u") ];
    ]

let test_collect () =
  let tbl = Stats.collect ~attrs:abc sample in
  Alcotest.(check int) "rows" 4 tbl.Stats.rows;
  let col name = Option.get (Stats.column tbl (a_ name)) in
  let a = col "A" and b = col "B" and c = col "C" in
  Alcotest.(check int) "A nulls" 0 a.Stats.nulls;
  Alcotest.(check int) "A distinct" 3 a.Stats.distinct;
  Alcotest.(check (option int)) "A min" (Some 1) a.Stats.min_int;
  Alcotest.(check (option int)) "A max" (Some 3) a.Stats.max_int;
  Alcotest.(check int) "B nulls" 1 b.Stats.nulls;
  Alcotest.(check int) "B distinct" 2 b.Stats.distinct;
  Alcotest.(check (option int)) "B min" (Some 10) b.Stats.min_int;
  Alcotest.(check (option int)) "B max" (Some 20) b.Stats.max_int;
  Alcotest.(check int) "C nulls" 1 c.Stats.nulls;
  Alcotest.(check int) "C distinct" 2 c.Stats.distinct;
  Alcotest.(check (option int)) "C min (strings)" None c.Stats.min_int;
  Alcotest.(check (float 1e-9)) "B null fraction" 0.25
    (Stats.null_fraction tbl b)

let test_collect_empty () =
  let tbl = Stats.collect ~attrs:abc Xrel.bottom in
  Alcotest.(check int) "rows" 0 tbl.Stats.rows;
  let a = Option.get (Stats.column tbl (a_ "A")) in
  Alcotest.(check (float 1e-9)) "null fraction of empty" 0.
    (Stats.null_fraction tbl a)

(* The parallel fold must compute exactly the sequential answer. *)
let test_strategy_parity () =
  let spec = { Workload.Gen.default with rows = 2000 } in
  let rel = Workload.Gen.xrel (Workload.Prng.create 42) spec in
  let attrs = Workload.Gen.attrs spec in
  let seq = Stats.collect ~strategy:Kernel.Sequential ~attrs rel in
  let par = Stats.collect ~strategy:Kernel.Parallel ~attrs rel in
  let auto = Stats.collect ~attrs rel in
  Alcotest.check stats_table "parallel = sequential" seq par;
  Alcotest.check stats_table "auto = sequential" seq auto

(* ----------------------- serialization ------------------------ *)

let test_roundtrip () =
  let tbl = Stats.collect ~attrs:abc sample in
  let entries = [ ("R", "deadbeef", tbl); ("S", "00000000", tbl) ] in
  let back = Stats.tables_of_lines (Stats.tables_to_lines entries) in
  Alcotest.(check int) "two entries" 2 (List.length back);
  List.iter2
    (fun (n1, c1, t1) (n2, c2, t2) ->
      Alcotest.(check string) "name" n1 n2;
      Alcotest.(check string) "crc" c1 c2;
      Alcotest.check stats_table "table" t1 t2)
    entries back

let test_corrupt_rejected () =
  List.iter
    (fun lines ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S"
           (String.concat "\n" (List.map (String.concat "\t") lines)))
        true
        (try
           ignore (Stats.tables_of_lines lines);
           false
         with Stats.Corrupt _ -> true))
    [
      [ [ "column"; "A"; "0"; "1" ] ];
      [ [ "table"; "R"; "not-a-number"; "cafe" ] ];
      [ [ "garbage line" ] ];
      [ [ "table"; "R"; "3"; "cafe" ]; [ "column"; "A"; "0" ] ];
    ]

(* -------------------- freshness protocol ---------------------- *)

let r_schema = Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints) ]
let r0 = x [ t [ ("A", i 1); ("B", i 10) ]; t [ ("A", i 2) ] ]

let freshness cat name =
  match Storage.Catalog.stats_status cat name with
  | Storage.Catalog.Fresh _ -> "fresh"
  | Storage.Catalog.Stale _ -> "stale"
  | Storage.Catalog.Missing -> "missing"

let test_freshness_protocol () =
  let cat = Storage.Catalog.add Storage.Catalog.empty r_schema r0 in
  Alcotest.(check string) "starts missing" "missing" (freshness cat "R");
  let tbl = Stats.collect ~attrs:(Schema.attrs r_schema) r0 in
  let cat = Storage.Catalog.set_stats cat "R" tbl in
  Alcotest.(check string) "set -> fresh" "fresh" (freshness cat "R");
  Alcotest.(check bool) "stats returns them" true
    (Storage.Catalog.stats cat "R" = Some tbl);
  let r1 = Xrel.union r0 (x [ t [ ("A", i 9); ("B", i 9) ] ]) in
  let cat = Storage.Catalog.set_relation cat "R" r1 in
  Alcotest.(check string) "mutation -> stale" "stale" (freshness cat "R");
  Alcotest.(check bool) "stats hides stale" true
    (Storage.Catalog.stats cat "R" = None);
  let cat = Storage.Catalog.set_stats cat "R" (Stats.collect ~attrs:(Schema.attrs r_schema) r1) in
  Alcotest.(check string) "re-analyze -> fresh" "fresh" (freshness cat "R");
  let cat = Storage.Catalog.add cat r_schema r0 in
  Alcotest.(check string) "add over name -> stale" "stale" (freshness cat "R");
  let cat = Storage.Catalog.clear_stats cat "R" in
  Alcotest.(check string) "clear -> missing" "missing" (freshness cat "R");
  Alcotest.(check string) "unknown relation" "missing" (freshness cat "ZZZ")

(* ----------------------- persistence -------------------------- *)

let s_schema = Schema.make "S" [ ("K", Domain.Ints); ("V", Domain.Strings) ]
let s0 = x [ t [ ("K", i 1); ("V", s "one") ] ]

let analyzed_catalog () =
  let cat = Storage.Catalog.add Storage.Catalog.empty r_schema r0 in
  let cat = Storage.Catalog.add cat s_schema s0 in
  let cat =
    Storage.Catalog.set_stats cat "R"
      (Stats.collect ~attrs:(Schema.attrs r_schema) r0)
  in
  Storage.Catalog.set_stats cat "S"
    (Stats.collect ~attrs:(Schema.attrs s_schema) s0)

let test_save_load_roundtrip () =
  with_temp_dir (fun dir ->
      let cat = analyzed_catalog () in
      Storage.Persist.save ~dir cat;
      let loaded = Storage.Persist.load ~dir () in
      List.iter
        (fun name ->
          Alcotest.(check string)
            (name ^ " fresh after load")
            "fresh" (freshness loaded name);
          Alcotest.(check (option stats_table))
            (name ^ " unchanged")
            (Storage.Catalog.stats cat name)
            (Storage.Catalog.stats loaded name))
        [ "R"; "S" ])

let test_stale_stats_not_saved () =
  with_temp_dir (fun dir ->
      let cat = analyzed_catalog () in
      (* mutate R after analysis: its stats are stale and must not be
         persisted, while S's fresh ones must survive *)
      let cat =
        Storage.Catalog.set_relation cat "R"
          (Xrel.union r0 (x [ t [ ("A", i 7); ("B", i 7) ] ]))
      in
      Storage.Persist.save ~dir cat;
      let loaded = Storage.Persist.load ~dir () in
      Alcotest.(check string) "R missing" "missing" (freshness loaded "R");
      Alcotest.(check string) "S fresh" "fresh" (freshness loaded "S"))

let test_torn_stats_file () =
  with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (analyzed_catalog ());
      let stats_path = Filename.concat dir "STATS" in
      let text = In_channel.with_open_text stats_path In_channel.input_all in
      Out_channel.with_open_text stats_path (fun oc ->
          Out_channel.output_string oc
            (String.sub text 0 (String.length text / 2)));
      (* a torn STATS is pure acceleration state: the load must succeed
         and simply come back without statistics *)
      let loaded = Storage.Persist.load ~dir () in
      Alcotest.(check string) "R missing" "missing" (freshness loaded "R");
      Alcotest.(check string) "S missing" "missing" (freshness loaded "S"))

(* Journal replay mutates through [Catalog.set_relation], so recovery
   leaves replayed relations' stats stale — never fresh-but-wrong —
   while untouched relations keep theirs. *)
let test_wal_replay_invalidates () =
  with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (analyzed_catalog ());
      let d, _ = Dml.open_durable ~checkpoint_every:1000 ~dir () in
      let d, _ = Dml.exec_durable_string d "append to R (A = 8, B = 8)" in
      ignore d;
      let report = Storage.Persist.load_report ~dir () in
      let loaded = report.Storage.Persist.catalog in
      Alcotest.(check bool) "R was recovered from the journal" true
        (List.assoc "R" report.Storage.Persist.statuses
        = Storage.Persist.Recovered 1);
      Alcotest.(check string) "replayed R -> stale" "stale"
        (freshness loaded "R");
      Alcotest.(check string) "untouched S stays fresh" "fresh"
        (freshness loaded "S"))

(* --------------------- estimation quality --------------------- *)

(* The bounded-factor contract on Workload.Gen databases: with
   collected statistics, selection and equijoin estimates stay within
   a generous constant factor of the actual cardinality (uniform data,
   so containment/independence assumptions hold up to sampling noise;
   the additive slack absorbs small-count variance). *)
let within_factor ~factor ~slack est actual =
  est <= (factor *. actual) +. slack && actual <= (factor *. est) +. slack

let test_cardinality_bounded () =
  let spec =
    { Workload.Gen.arity = 3; rows = 600; domain_size = 40; null_density = 0.2 }
  in
  List.iter
    (fun seed ->
      let prng = Workload.Prng.create seed in
      let r = Workload.Gen.xrel prng spec in
      let s = Workload.Gen.xrel (Workload.Prng.split prng) spec in
      let attrs = Workload.Gen.attrs spec in
      let r_tbl = Stats.collect ~attrs r and s_tbl = Stats.collect ~attrs s in
      let stats =
        {
          Plan.Cost.rowcount =
            (fun name ->
              match name with
              | "R" -> Some (Xrel.cardinal r)
              | "S" -> Some (Xrel.cardinal s)
              | _ -> None);
          table =
            (fun name ->
              match name with
              | "R" -> Some r_tbl
              | "S" -> Some s_tbl
              | _ -> None);
          equipped = (fun _ _ -> false);
        }
      in
      let check label plan actual =
        let est = Plan.Cost.cardinality ~stats plan in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: %s within bounds (est %.1f, actual %d)"
             seed label est actual)
          true
          (within_factor ~factor:8. ~slack:32. est (float actual))
      in
      let sel =
        Plan.Expr.Select (Predicate.cmp_const "A1" Predicate.Eq (i 7), Rel "R")
      in
      check "base relation" (Plan.Expr.Rel "R") (Xrel.cardinal r);
      check "equality selection" sel
        (Xrel.cardinal
           (Algebra.select (Predicate.cmp_const "A1" Predicate.Eq (i 7)) r));
      let range_p = Predicate.cmp_const "A1" Predicate.Le (i 10) in
      check "range selection"
        (Plan.Expr.Select (range_p, Rel "R"))
        (Xrel.cardinal (Algebra.select range_p r));
      (* QUEL plans rename each variable's columns apart, so join sides
         share only the join attributes; model that by projecting S
         down to the join column (which also routes the stats digger
         through a Project node) *)
      let join_x = aset [ "A1" ] in
      check "equijoin"
        (Plan.Expr.Equijoin (join_x, Rel "R", Project (join_x, Rel "S")))
        (Xrel.cardinal
           (Algebra.equijoin join_x r (Algebra.project join_x s))))
    [ 1; 2; 3; 4; 5 ]

(* With statistics the product chain reorders smallest-first; the
   reordering must never change the result, and must put the smaller
   relation first when sizes differ. *)
let test_reorder_smallest_first () =
  let big =
    x
      (List.init 50 (fun k ->
           t [ ("A", i (k mod 7)); ("B", i k) ]))
  in
  let small = x [ t [ ("K", i 1) ]; t [ ("K", i 2) ] ] in
  let big_schema = Schema.make "BIG" [ ("A", Domain.Ints); ("B", Domain.Ints) ] in
  let small_schema = Schema.make "SMALL" [ ("K", Domain.Ints) ] in
  let db = [ ("BIG", (big_schema, big)); ("SMALL", (small_schema, small)) ] in
  let env_scope name =
    Option.map (fun (s_, _) -> Schema.attr_set s_) (List.assoc_opt name db)
  in
  let stats =
    Plan.Cost.of_rowcount (fun name ->
        Option.map (fun (_, x) -> Xrel.cardinal x) (List.assoc_opt name db))
  in
  let plan = Plan.Expr.Product (Rel "BIG", Rel "SMALL") in
  let reordered = Plan.Rewrite.optimize ~cost:stats ~env_scope plan in
  Alcotest.(check bool) "small factor moved first" true
    (Plan.Expr.equal reordered (Plan.Expr.Product (Rel "SMALL", Rel "BIG")));
  let env name = Option.map snd (List.assoc_opt name db) in
  check_xrel "reordering preserves the result"
    (Plan.Expr.eval ~env plan)
    (Plan.Expr.eval ~env reordered);
  (* without a cost source the rule must not fire *)
  Alcotest.(check bool) "no reorder without stats" true
    (Plan.Expr.equal (Plan.Rewrite.optimize ~env_scope plan) plan)

let suite =
  [
    Alcotest.test_case "collect summarizes columns" `Quick test_collect;
    Alcotest.test_case "collect on empty relation" `Quick test_collect_empty;
    Alcotest.test_case "strategy parity" `Quick test_strategy_parity;
    Alcotest.test_case "serialization roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "corrupt stats rejected" `Quick test_corrupt_rejected;
    Alcotest.test_case "freshness protocol" `Quick test_freshness_protocol;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "stale stats not saved" `Quick test_stale_stats_not_saved;
    Alcotest.test_case "torn STATS degrades to none" `Quick test_torn_stats_file;
    Alcotest.test_case "journal replay invalidates" `Quick
      test_wal_replay_invalidates;
    Alcotest.test_case "estimates within bounded factor" `Quick
      test_cardinality_bounded;
    Alcotest.test_case "cost-based product reorder" `Quick
      test_reorder_smallest_first;
  ]
