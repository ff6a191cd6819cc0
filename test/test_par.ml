(* The domain pool and the parallel kernels: strategy parity on
   arbitrary inputs (results are sets, per-tuple verdicts independent,
   so fan-out cannot change any answer), governor semantics across
   domains (timeout / budget / cancellation raised mid-parallel-run
   leave no stuck domains), and pool lifecycle (resize, reuse after an
   abort). *)

open Nullrel
open Qgen

(* Run [f] with the pool forced to [d] domains, restoring the previous
   degree (and thus the previous pool) afterwards. *)
let with_domains d f =
  let saved = Par.Pool.domains () in
  Par.Pool.set_domains d;
  Fun.protect ~finally:(fun () -> Par.Pool.set_domains saved) f

let check_prop ?(count = 100) name arb prop =
  QCheck.Test.check_exn (QCheck.Test.make ~count ~name arb prop)

(* A relation big enough that [Parallel] genuinely chunks (several
   chunks per worker) yet small enough for a 1-core CI box. *)
let big_relation ?(rows = 2000) seed =
  let g = Workload.Prng.create seed in
  Workload.Gen.relation g
    { Workload.Gen.arity = 5; rows; domain_size = 10; null_density = 0.3 }

let big_xrel seed =
  let g = Workload.Prng.create seed in
  Workload.Gen.xrel g
    { Workload.Gen.arity = 4; rows = 1200; domain_size = 6; null_density = 0.2 }

(* -- parity ------------------------------------------------------- *)

let test_minimize_parity () =
  with_domains 4 (fun () ->
      check_prop "parallel minimize = sequential minimize"
        arbitrary_relation (fun r ->
          Relation.equal
            (Kernel.minimize ~strategy:Parallel r)
            (Relation.minimize r)))

let test_subsumes_parity () =
  with_domains 4 (fun () ->
      check_prop "all subsumption strategies agree"
        (QCheck.pair arbitrary_relation arbitrary_relation) (fun (r1, r2) ->
          let expected = Relation.subsumes r1 r2 in
          Kernel.subsumes ~strategy:Sequential r1 r2 = expected
          && Kernel.subsumes ~strategy:Indexed r1 r2 = expected
          && Kernel.subsumes ~strategy:Parallel r1 r2 = expected))

let test_x_mem_parity () =
  with_domains 4 (fun () ->
      check_prop "all x-membership strategies agree"
        (QCheck.pair arbitrary_tuple arbitrary_relation) (fun (t, r) ->
          let expected = Relation.x_mem t r in
          Kernel.x_mem ~strategy:Indexed t r = expected
          && Kernel.x_mem ~strategy:Parallel t r = expected))

let test_scope_is_fold () =
  (* the Def 4.7 invariant behind the direct-fold [scope]: minimizing
     first cannot change the answer *)
  check_prop "scope r = scope (minimize r)" arbitrary_relation (fun r ->
      Attr.Set.equal (Relation.scope r) (Relation.scope (Relation.minimize r)))

let test_large_workload_parity () =
  with_domains 4 (fun () ->
      let r = big_relation 7 in
      let seq = Relation.minimize r in
      Alcotest.(check bool)
        "indexed minimize on 2000 rows" true
        (Relation.equal seq (Kernel.minimize ~strategy:Indexed r));
      Alcotest.(check bool)
        "parallel minimize on 2000 rows" true
        (Relation.equal seq (Kernel.minimize ~strategy:Parallel r));
      let r2 = big_relation 8 in
      Alcotest.(check bool)
        "parallel subsumes on 2000 rows" true
        (Kernel.subsumes ~strategy:Parallel r r2
        = Relation.subsumes r r2))

let test_join_parity () =
  with_domains 4 (fun () ->
      let x1 = big_xrel 11 and x2 = big_xrel 12 in
      let x = Attr.set_of_list [ "A1" ] in
      let seq = Storage.Join.hash_equijoin ~strategy:Kernel.Sequential x x1 x2 in
      Alcotest.(check bool)
        "parallel equijoin = sequential" true
        (Xrel.equal seq
           (Storage.Join.hash_equijoin ~strategy:Kernel.Parallel x x1 x2));
      let useq =
        Storage.Join.hash_union_join ~strategy:Kernel.Sequential x x1 x2
      in
      Alcotest.(check bool)
        "parallel union-join = sequential" true
        (Xrel.equal useq
           (Storage.Join.hash_union_join ~strategy:Kernel.Parallel x x1 x2)))

(* -- governance across domains ------------------------------------ *)

let expect_abort name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a governed abort" name
  | exception Exec_error.Error e -> e

let pool_still_works r =
  (* "no stuck domains": the same pool computes a correct answer
     immediately after the abort *)
  Relation.equal (Kernel.minimize ~strategy:Parallel r) (Relation.minimize r)

let test_timeout_mid_parallel () =
  with_domains 4 (fun () ->
      let r = big_relation 21 in
      (* a fake clock that jumps past the deadline as soon as any
         worker-counted work has been drained: construction and the
         entry checkpoint see t=0, and since [tick] charges before it
         consults the clock, the first drain -- wherever chunk
         scheduling puts it -- deterministically times out *)
      let g_ref = ref Exec.unlimited in
      let now () = if Exec.charged !g_ref > 0 then 1000.0 else 0.0 in
      let g = Exec.make ~deadline_s:1.0 ~check_every:1 ~now () in
      g_ref := g;
      let e =
        expect_abort "timeout" (fun () ->
            Exec.with_governor g (fun () ->
                ignore (Kernel.minimize ~strategy:Parallel r)))
      in
      (match e with
      | Exec_error.Timeout _ -> ()
      | e -> Alcotest.failf "expected Timeout, got %s" (Exec_error.to_string e));
      Alcotest.(check bool) "pool usable after timeout" true (pool_still_works r))

let test_budget_mid_parallel () =
  with_domains 4 (fun () ->
      let r = big_relation 22 in
      let g = Exec.make ~max_tuples:100 () in
      let e =
        expect_abort "budget" (fun () ->
            Exec.with_governor g (fun () ->
                ignore (Kernel.minimize ~strategy:Parallel r)))
      in
      (match e with
      | Exec_error.Budget_exceeded { resource = Exec_error.Tuples; _ } -> ()
      | e ->
          Alcotest.failf "expected Budget_exceeded, got %s"
            (Exec_error.to_string e));
      Alcotest.(check bool) "pool usable after budget abort" true
        (pool_still_works r))

let test_cancel_mid_parallel () =
  with_domains 4 (fun () ->
      let r = big_relation 23 in
      (* same trick as the timeout test: the flag flips once any
         drained work has been charged, so the abort lands at a drain
         regardless of which domains ran the chunks *)
      let g_ref = ref Exec.unlimited in
      let cancelled () = Exec.charged !g_ref > 0 in
      let g = Exec.make ~cancelled ~check_every:1 () in
      g_ref := g;
      let e =
        expect_abort "cancel" (fun () ->
            Exec.with_governor g (fun () ->
                ignore (Kernel.minimize ~strategy:Parallel r)))
      in
      (match e with
      | Exec_error.Cancelled -> ()
      | e ->
          Alcotest.failf "expected Cancelled, got %s" (Exec_error.to_string e));
      Alcotest.(check bool) "pool usable after cancellation" true
        (pool_still_works r))

(* -- pool lifecycle ----------------------------------------------- *)

let test_resize () =
  let r = big_relation 31 in
  let seq = Relation.minimize r in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          Alcotest.(check int) "degree applied" d (Par.Pool.domains ());
          Alcotest.(check bool)
            (Printf.sprintf "parallel minimize correct at %d domains" d)
            true
            (Relation.equal seq (Kernel.minimize ~strategy:Parallel r))))
    [ 1; 2; 4; 2 ]

let test_pool_metrics () =
  with_domains 4 (fun () ->
      (* registration is idempotent by name, so this is the same
         counter the pool increments *)
      let tasks =
        Obs.Metrics.counter ~help:"Parallel fan-out tasks run to completion."
          "nullrel_par_tasks_total"
      in
      let saved = !Obs.Metrics.enabled in
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled saved)
        (fun () ->
          Obs.Metrics.set_enabled true;
          let before = Obs.Metrics.counter_value tasks in
          ignore (Kernel.minimize ~strategy:Parallel (big_relation 41));
          let after = Obs.Metrics.counter_value tasks in
          Alcotest.(check bool) "par task counted" true (after > before)))

let suite =
  [
    Alcotest.test_case "parallel minimize parity (qcheck)" `Quick
      test_minimize_parity;
    Alcotest.test_case "subsumes strategy parity (qcheck)" `Quick
      test_subsumes_parity;
    Alcotest.test_case "x_mem strategy parity (qcheck)" `Quick
      test_x_mem_parity;
    Alcotest.test_case "scope ignores subsumed tuples" `Quick test_scope_is_fold;
    Alcotest.test_case "large workload parity" `Quick
      test_large_workload_parity;
    Alcotest.test_case "join strategy and index parity" `Quick test_join_parity;
    Alcotest.test_case "timeout mid-parallel minimize" `Quick
      test_timeout_mid_parallel;
    Alcotest.test_case "tuple budget mid-parallel minimize" `Quick
      test_budget_mid_parallel;
    Alcotest.test_case "cancellation mid-parallel minimize" `Quick
      test_cancel_mid_parallel;
    Alcotest.test_case "pool resize" `Quick test_resize;
    Alcotest.test_case "pool metrics" `Quick test_pool_metrics;
  ]
