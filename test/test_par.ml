(* The domain pool and the parallel kernels: every path a kernel picks
   by input size (scan, subsumption index, fan-out) agrees with
   [Relation]'s kernels and [Algebra]'s operators at pool sizes 1 and 4
   (results are sets, per-tuple verdicts independent, so fan-out cannot
   change any answer), governor semantics across domains (timeout /
   budget / cancellation raised mid-fan-out leave no stuck domains),
   and pool lifecycle (resize, reuse after an abort). *)

open Nullrel
open Helpers
open Qgen

(* [p ()] holds at each of [pools]. *)
let at_pools p = List.for_all (fun d -> with_domains d p) pools

let check_prop ?(count = 100) name arb prop =
  QCheck.Test.check_exn (QCheck.Test.make ~count ~name arb prop)

(* A relation big enough that the fan-out genuinely chunks (several
   chunks per worker) yet small enough for a 1-core CI box. *)
let big_relation ?(rows = 2000) seed =
  let g = Workload.Prng.create seed in
  Workload.Gen.relation g
    { Workload.Gen.arity = 5; rows; domain_size = 10; null_density = 0.3 }

let big_xrel ?rows seed = Xrel.of_relation (big_relation ?rows seed)

(* The input sizes around each cutover: a scan below 64 tuples, the
   subsumption index from 64, the fan-out from 512 on a pool of more
   than one domain. *)
let sizes = [ 0; 63; 64; 511; 512; 1500 ]

let take n ts = List.filteri (fun k _ -> k < n) ts

(* -- parity ------------------------------------------------------- *)

(* United with the small qcheck relations, which bring null tuples and
   subsumed duplicates, this lifts every case past [parallel_cutover]. *)
let fan_out_rows = big_relation ~rows:600 5

let test_minimize_parity () =
  check_prop "minimize at pools 1 and 4 = Relation.minimize"
    arbitrary_relation (fun r ->
      let r = Relation.union r fan_out_rows in
      let expected = Relation.minimize r in
      at_pools (fun () -> Relation.equal (Kernel.minimize r) expected))

let test_subsumes_parity () =
  check_prop "subsumes at pools 1 and 4 = Relation.subsumes"
    (QCheck.pair arbitrary_relation arbitrary_relation) (fun (r1, r2) ->
      List.for_all
        (fun (a, b) ->
          let expected = Relation.subsumes a b in
          at_pools (fun () -> Kernel.subsumes a b = expected))
        [
          (r1, r2);
          (Relation.union r1 fan_out_rows, Relation.union r2 fan_out_rows);
          (r1, Relation.union r2 fan_out_rows);
        ])

let test_scope_is_fold () =
  (* the Def 4.7 invariant behind the direct-fold [scope]: minimizing
     first cannot change the answer *)
  check_prop "scope r = scope (minimize r)" arbitrary_relation (fun r ->
      Attr.Set.equal (Relation.scope r) (Relation.scope (Relation.minimize r)))

let dispatch_count kernel path =
  Obs.Metrics.counter_value
    (Obs.Metrics.counter
       ~labels:[ ("kernel", kernel); ("strategy", path) ]
       ~help:"Kernel dispatches by chosen strategy"
       "nullrel_kernel_dispatch_total")

let with_metrics f =
  let saved = !Obs.Metrics.enabled in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled saved)
    (fun () ->
      Obs.Metrics.set_enabled true;
      f ())

(* Minimize, subsumes and prober at every size around the cutovers and
   at pools 1 and 4, against the [Relation] kernels; the dispatch
   counter must show that each path of minimize and subsumes ran. *)
let test_large_workload_parity () =
  let rows = Relation.to_list (big_relation 7)
  and others = Relation.to_list (big_relation 8) in
  let dispatches =
    List.concat_map
      (fun k ->
        List.map (fun p -> (k, p)) [ "sequential"; "indexed"; "parallel" ])
      [ "minimize"; "subsumes" ]
  in
  with_metrics (fun () ->
      let before = List.map (fun (k, p) -> dispatch_count k p) dispatches in
      List.iter
        (fun n ->
          let r = Relation.of_list (take n rows)
          and r' = Relation.of_list (take n others) in
          let m = Relation.minimize r in
          let probes = take 32 others @ take 32 rows in
          each_pool (fun d ->
              let check what ok =
                Alcotest.(check bool)
                  (Printf.sprintf "%s, %d tuples, %d domains" what n d)
                  true ok
              in
              check "minimize" (Relation.equal (Kernel.minimize r) m);
              List.iter
                (fun (a, b) ->
                  check "subsumes"
                    (Kernel.subsumes a b = Relation.subsumes a b))
                [ (m, r); (r, m); (r, r') ];
              let probe = Kernel.prober r in
              check "prober"
                (List.for_all (fun t -> probe t = Relation.x_mem t r) probes)))
        sizes;
      List.iter2
        (fun (k, p) b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s ran %s" k p)
            true
            (dispatch_count k p > b))
        dispatches before)

(* The equijoin and union-join at every probe-side size around the
   cutover and at pools 1 and 4, against [Algebra]'s nested loops. *)
let test_join_parity () =
  let probe_side = Xrel.to_list (big_xrel ~rows:2500 11)
  and build_side = Xrel.of_list (take 200 (Xrel.to_list (big_xrel 12))) in
  let x = Attr.set_of_list [ "A1"; "A2" ] in
  List.iter
    (fun n ->
      (* a subset of a minimal relation is minimal: [n] probe tuples *)
      let r1 = Xrel.of_list (take n probe_side) in
      Alcotest.(check int) "probe side size" n (Xrel.cardinal r1);
      let eq = Algebra.equijoin x r1 build_side
      and uj = Algebra.union_join x r1 build_side in
      each_pool (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "equijoin, %d probes, %d domains" n d)
            true
            (Xrel.equal (Storage.Join.hash_equijoin x r1 build_side) eq);
          Alcotest.(check bool)
            (Printf.sprintf "union-join, %d probes, %d domains" n d)
            true
            (Xrel.equal (Storage.Join.hash_union_join x r1 build_side) uj)))
    sizes

(* -- governance across domains ------------------------------------ *)

let expect_abort name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a governed abort" name
  | exception Exec_error.Error e -> e

let pool_tasks () =
  (* registration is idempotent by name, so this is the same counter
     the pool increments *)
  Obs.Metrics.counter_value
    (Obs.Metrics.counter ~help:"Parallel fan-out tasks run to completion."
       "nullrel_par_tasks_total")

(* Runs each of the three fan-outs a governor can stop -- a
   minimization, a join's probe side and a statistics fold -- on a
   4-domain pool under the governor [make ()] returns. Each must reach
   the pool, abort as [check_error] accepts, and leave the pool
   computing correct answers ("no stuck domains"). Inputs are built
   before the governor is installed. *)
let abort_each_fan_out seed ~make check_error =
  let r = big_relation seed in
  let expected = Relation.minimize r in
  let x1 = big_xrel seed and x2 = big_xrel (seed + 1) in
  let x = Attr.set_of_list [ "A1" ] in
  let attrs = List.map Attr.make [ "A1"; "A2"; "A3"; "A4"; "A5" ] in
  with_domains 4 (fun () ->
      with_metrics (fun () ->
          List.iter
            (fun (what, run) ->
              let g = make () and tasks = pool_tasks () in
              let e =
                expect_abort what (fun () -> Exec.with_governor g run)
              in
              check_error what e;
              Alcotest.(check bool) (what ^ ": fanned out") true
                (pool_tasks () > tasks);
              Alcotest.(check bool)
                (what ^ ": pool usable after the abort")
                true
                (Relation.equal (Kernel.minimize r) expected))
            [
              ("minimize", fun () -> ignore (Kernel.minimize r));
              ("join", fun () -> ignore (Storage.Join.hash_equijoin x x1 x2));
              ("stats fold", fun () -> ignore (Stats.collect ~attrs x1));
            ]))

(* A governor whose [flag] turns on once any drained work has been
   charged: construction and the entry checkpoint see nothing, and
   since [tick] charges before it consults the flag, the first drain --
   wherever chunk scheduling puts it -- deterministically aborts. *)
let after_first_drain make () =
  let g_ref = ref Exec.unlimited in
  let g = make (fun () -> Exec.charged !g_ref > 0) in
  g_ref := g;
  g

let test_timeout_mid_parallel () =
  abort_each_fan_out 21
    ~make:
      (after_first_drain (fun late ->
           let now () = if late () then 1000.0 else 0.0 in
           Exec.make ~deadline_s:1.0 ~check_every:1 ~now ()))
    (fun what -> function
      | Exec_error.Timeout _ -> ()
      | e ->
          Alcotest.failf "%s: expected Timeout, got %s" what
            (Exec_error.to_string e))

let test_budget_mid_parallel () =
  abort_each_fan_out 22
    ~make:(fun () -> Exec.make ~max_tuples:100 ())
    (fun what -> function
      | Exec_error.Budget_exceeded { resource = Exec_error.Tuples; _ } -> ()
      | e ->
          Alcotest.failf "%s: expected Budget_exceeded, got %s" what
            (Exec_error.to_string e))

let test_cancel_mid_parallel () =
  abort_each_fan_out 23
    ~make:
      (after_first_drain (fun cancelled ->
           Exec.make ~cancelled ~check_every:1 ()))
    (fun what -> function
      | Exec_error.Cancelled -> ()
      | e ->
          Alcotest.failf "%s: expected Cancelled, got %s" what
            (Exec_error.to_string e))

(* -- pool lifecycle ----------------------------------------------- *)

let test_resize () =
  let r = big_relation 31 in
  let seq = Relation.minimize r in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          Alcotest.(check int) "degree applied" d (Par.Pool.domains ());
          Alcotest.(check bool)
            (Printf.sprintf "minimize correct at %d domains" d)
            true
            (Relation.equal seq (Kernel.minimize r))))
    [ 1; 2; 4; 2 ]

let test_pool_metrics () =
  with_domains 4 (fun () ->
      with_metrics (fun () ->
          let before = pool_tasks () in
          ignore (Kernel.minimize (big_relation 41));
          Alcotest.(check bool) "par task counted" true
            (pool_tasks () > before)))

let suite =
  [
    Alcotest.test_case "parallel minimize parity (qcheck)" `Quick
      test_minimize_parity;
    Alcotest.test_case "subsumes pool-size parity (qcheck)" `Quick
      test_subsumes_parity;
    Alcotest.test_case "scope ignores subsumed tuples" `Quick test_scope_is_fold;
    Alcotest.test_case "large workload parity" `Quick
      test_large_workload_parity;
    Alcotest.test_case "join pool-size parity" `Quick test_join_parity;
    Alcotest.test_case "timeout mid-parallel minimize" `Quick
      test_timeout_mid_parallel;
    Alcotest.test_case "tuple budget mid-parallel minimize" `Quick
      test_budget_mid_parallel;
    Alcotest.test_case "cancellation mid-parallel minimize" `Quick
      test_cancel_mid_parallel;
    Alcotest.test_case "pool resize" `Quick test_resize;
    Alcotest.test_case "pool metrics" `Quick test_pool_metrics;
  ]
