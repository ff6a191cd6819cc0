(* The resource governor: budgets, deadlines, cancellation, ambient
   install/restore, and the retry-with-backoff storage layer. *)

open Nullrel

let is_timeout = function Exec_error.Timeout _ -> true | _ -> false

let tuples_exceeded = function
  | Exec_error.Budget_exceeded { resource = Exec_error.Tuples; _ } -> true
  | _ -> false

let memory_exceeded = function
  | Exec_error.Budget_exceeded { resource = Exec_error.Memory_words; _ } ->
      true
  | _ -> false

(* Runs [f] expecting a governed abort; returns the error. *)
let expect_abort name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a governed abort" name
  | exception Exec_error.Error e -> e

let test_ungoverned_ticks_are_free () =
  (* no governor installed: a million ticks change nothing and the
     ambient stays the unlimited sentinel *)
  for _ = 1 to 1_000_000 do
    Exec.tick ()
  done;
  Alcotest.(check bool) "still unlimited" false (Exec.limited (Exec.current ()));
  Alcotest.(check int) "nothing charged" 0 (Exec.charged (Exec.current ()))

let test_tuple_budget () =
  let g = Exec.make ~max_tuples:10 () in
  let e =
    expect_abort "tuple budget" (fun () ->
        Exec.with_governor g (fun () ->
            for _ = 1 to 100 do
              Exec.tick ()
            done))
  in
  Alcotest.(check bool) "tuples exceeded" true (tuples_exceeded e);
  Alcotest.(check int) "charged just past the budget" 11 (Exec.charged g);
  Alcotest.(check int) "exit code 5" 5 (Exec_error.exit_code e)

let test_tick_cost () =
  let g = Exec.make ~max_tuples:100 () in
  let e =
    expect_abort "bulk cost" (fun () ->
        Exec.with_governor g (fun () -> Exec.tick ~cost:1000 ()))
  in
  Alcotest.(check bool) "tuples exceeded" true (tuples_exceeded e)

let test_deadline_with_fake_clock () =
  let t = ref 0.0 in
  let g =
    Exec.make ~deadline_s:5.0 ~check_every:1 ~now:(fun () -> !t) ()
  in
  let e =
    expect_abort "deadline" (fun () ->
        Exec.with_governor g (fun () ->
            Exec.tick ();
            t := 10.0;
            Exec.tick ()))
  in
  Alcotest.(check bool) "timeout" true (is_timeout e);
  (match e with
  | Exec_error.Timeout { limit_s } ->
      Alcotest.(check (float 1e-9)) "reports the allowance" 5.0 limit_s
  | _ -> ());
  Alcotest.(check int) "exit code 4" 4 (Exec_error.exit_code e)

let test_expired_deadline_aborts_on_entry () =
  let t = ref 0.0 in
  let g = Exec.make ~deadline_s:1.0 ~now:(fun () -> !t) () in
  t := 2.0;
  let ran = ref false in
  let e =
    expect_abort "entry check" (fun () ->
        Exec.with_governor g (fun () -> ran := true))
  in
  Alcotest.(check bool) "timeout" true (is_timeout e);
  Alcotest.(check bool) "the body never ran" false !ran

let test_cancellation () =
  let calls = ref 0 in
  let cancelled () =
    incr calls;
    !calls > 3
  in
  let g = Exec.make ~cancelled ~check_every:1 () in
  let e =
    expect_abort "cancellation" (fun () ->
        Exec.with_governor g (fun () ->
            for _ = 1 to 100 do
              Exec.tick ()
            done))
  in
  (match e with
  | Exec_error.Cancelled -> ()
  | other -> Alcotest.failf "expected Cancelled, got %s" (Exec_error.to_string other));
  Alcotest.(check int) "exit code 6" 6 (Exec_error.exit_code e)

let test_memory_budget () =
  let g = Exec.make ~max_memory_words:100_000 ~check_every:1 () in
  let e =
    expect_abort "memory budget" (fun () ->
        Exec.with_governor g (fun () ->
            (* a large flat array lands directly on the major heap *)
            let a = Sys.opaque_identity (Array.make 1_000_000 0) in
            Exec.tick ();
            ignore (Sys.opaque_identity a)))
  in
  Alcotest.(check bool) "memory words exceeded" true (memory_exceeded e);
  Alcotest.(check bool) "high-water recorded" true
    (Exec.memory_high_water g > 100_000)

(* Blocks too large for the minor heap go straight to the major heap,
   and [Gc.quick_stat] counts them only at the domain's next minor
   collection. 250 blocks of 300 words (75,000 words) stay far below
   the volume that brings one about, and the budget must still see
   them. *)
let test_memory_budget_between_collections () =
  let g = Exec.make ~max_memory_words:50_000 ~check_every:1 () in
  let e =
    expect_abort "memory budget" (fun () ->
        Exec.with_governor g (fun () ->
            let blocks =
              Sys.opaque_identity (List.init 250 (fun _ -> Array.make 300 0))
            in
            Exec.tick ();
            ignore (Sys.opaque_identity blocks)))
  in
  Alcotest.(check bool) "memory words exceeded" true (memory_exceeded e)

let test_ambient_restored_after_abort () =
  let g = Exec.make ~max_tuples:1 () in
  (try
     Exec.with_governor g (fun () ->
         Exec.tick ();
         Exec.tick ())
   with Exec_error.Error _ -> ());
  Alcotest.(check bool) "ambient back to unlimited" false
    (Exec.limited (Exec.current ()));
  (* and ticking afterwards is unconstrained again *)
  for _ = 1 to 100 do
    Exec.tick ()
  done

let test_nesting_restores_outer () =
  let outer = Exec.make ~max_tuples:1_000_000 () in
  let inner = Exec.make ~max_tuples:5 () in
  Exec.with_governor outer (fun () ->
      Exec.tick ();
      (try
         Exec.with_governor inner (fun () ->
             for _ = 1 to 100 do
               Exec.tick ()
             done)
       with Exec_error.Error _ -> ());
      Alcotest.(check bool) "outer governor back in charge" true
        (Exec.current () == outer);
      Exec.tick ());
  Alcotest.(check int) "outer charged its own ticks" 2 (Exec.charged outer)

let test_checkpoint_forces_check () =
  let t = ref 0.0 in
  (* enormous amortization grain: only [checkpoint] can notice *)
  let g =
    Exec.make ~deadline_s:1.0 ~check_every:max_int ~now:(fun () -> !t) ()
  in
  let e =
    expect_abort "checkpoint" (fun () ->
        Exec.with_governor g (fun () ->
            t := 2.0;
            Exec.tick ();
            (* amortized: not noticed yet *)
            Exec.checkpoint ()))
  in
  Alcotest.(check bool) "timeout via checkpoint" true (is_timeout e)

(* ---------------- governed engine operations ------------------ *)

let wide_universe =
  (* 16^5 extension tuples: far beyond a small tuple budget, well under
     Xrel.top's static cap *)
  List.map
    (fun name -> (Attr.make name, Domain.Int_range (0, 15)))
    [ "A"; "B"; "C"; "D"; "E" ]

let test_top_aborts_under_budget () =
  let e =
    expect_abort "Xrel.top" (fun () ->
        Exec.with_governor
          (Exec.make ~max_tuples:10_000 ())
          (fun () -> Xrel.top wide_universe))
  in
  Alcotest.(check bool) "tuples exceeded" true (tuples_exceeded e)

let test_product_aborts_under_budget () =
  let mk prefix n =
    Xrel.of_list
      (List.init n (fun i ->
           Tuple.of_strings [ (prefix, Value.Int i) ]))
  in
  let x1 = mk "A" 100 and x2 = mk "B" 100 in
  let e =
    expect_abort "Algebra.product" (fun () ->
        Exec.with_governor
          (Exec.make ~max_tuples:500 ())
          (fun () -> Algebra.product x1 x2))
  in
  Alcotest.(check bool) "tuples exceeded" true (tuples_exceeded e)

let test_governed_success_unchanged () =
  (* generous limits: results agree with ungoverned execution *)
  let mk prefix n =
    Xrel.of_list
      (List.init n (fun i -> Tuple.of_strings [ (prefix, Value.Int i) ]))
  in
  let x1 = mk "A" 10 and x2 = mk "B" 10 in
  let free = Algebra.product x1 x2 in
  let governed =
    Exec.with_governor
      (Exec.make ~deadline_s:60.0 ~max_tuples:1_000_000 ())
      (fun () -> Algebra.product x1 x2)
  in
  Alcotest.(check bool) "same result under a generous governor" true
    (Xrel.equal free governed)

(* -------------------- error taxonomy surface ------------------ *)

let test_error_strings_and_codes () =
  let cases =
    [
      (Exec_error.Timeout { limit_s = 1.5 }, "timeout", 4);
      ( Exec_error.Budget_exceeded
          { resource = Exec_error.Tuples; budget = 10; used = 11 },
        "budget",
        5 );
      (Exec_error.Cancelled, "cancelled", 6);
      (Exec_error.Storage_fault "disk on fire", "storage", 3);
      (Exec_error.Bad_input "no such attribute", "bad-input", 2);
    ]
  in
  List.iter
    (fun (e, cls, code) ->
      Alcotest.(check string) "class name" cls (Exec_error.class_name e);
      Alcotest.(check int) "exit code" code (Exec_error.exit_code e);
      Alcotest.(check bool) "to_string is nonempty" true
        (String.length (Exec_error.to_string e) > 0))
    cases;
  match Exec_error.protect (fun () -> Exec_error.bad_input "nope") with
  | Ok _ -> Alcotest.fail "protect should catch"
  | Error (Exec_error.Bad_input msg) ->
      Alcotest.(check string) "protect returns the payload" "nope" msg
  | Error other ->
      Alcotest.failf "unexpected error %s" (Exec_error.to_string other)

(* ---------------------- retrying storage ---------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "nullrel_exec" ".dat" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_retrying_rides_out_transients () =
  with_temp_file (fun path ->
      let io =
        Storage.Io.retrying ~attempts:3 ~backoff:0.0001
          (Storage.Io.flaky ~failures:2 Storage.Io.real)
      in
      io.Storage.Io.write_file path "payload";
      Alcotest.(check string)
        "write survived two transient faults" "payload"
        (io.Storage.Io.read_file path))

let test_retrying_exhaustion_is_storage_fault () =
  with_temp_file (fun path ->
      let io =
        Storage.Io.retrying ~attempts:3 ~backoff:0.0001
          (Storage.Io.flaky ~failures:10 Storage.Io.real)
      in
      match io.Storage.Io.write_file path "payload" with
      | () -> Alcotest.fail "expected exhaustion"
      | exception Exec_error.Error (Exec_error.Storage_fault msg) ->
          Alcotest.(check bool) "mentions the attempts" true
            (String.length msg > 0)
      | exception e ->
          Alcotest.failf "unexpected exception %s" (Printexc.to_string e))

let test_retrying_passes_injected_faults () =
  with_temp_file (fun path ->
      (* a modelled crash must not be retried *)
      let io =
        Storage.Io.retrying ~attempts:5 ~backoff:0.0001
          (Storage.Io.faulty ~fault:Storage.Io.Fail ~after:0 Storage.Io.real)
      in
      match io.Storage.Io.write_file path "payload" with
      | () -> Alcotest.fail "expected the injected crash"
      | exception Storage.Io.Injected_fault _ -> ()
      | exception e ->
          Alcotest.failf "crash was converted to %s" (Printexc.to_string e))

let suite =
  [
    Alcotest.test_case "ungoverned ticks are free" `Quick
      test_ungoverned_ticks_are_free;
    Alcotest.test_case "tuple budget aborts" `Quick test_tuple_budget;
    Alcotest.test_case "tick cost accumulates" `Quick test_tick_cost;
    Alcotest.test_case "deadline aborts (fake clock)" `Quick
      test_deadline_with_fake_clock;
    Alcotest.test_case "expired deadline aborts on entry" `Quick
      test_expired_deadline_aborts_on_entry;
    Alcotest.test_case "cooperative cancellation" `Quick test_cancellation;
    Alcotest.test_case "memory budget aborts" `Quick test_memory_budget;
    Alcotest.test_case "ambient restored after abort" `Quick
      test_ambient_restored_after_abort;
    Alcotest.test_case "nested governors restore the outer" `Quick
      test_nesting_restores_outer;
    Alcotest.test_case "checkpoint forces a full check" `Quick
      test_checkpoint_forces_check;
    Alcotest.test_case "Xrel.top aborts under a budget" `Quick
      test_top_aborts_under_budget;
    Alcotest.test_case "product aborts under a budget" `Quick
      test_product_aborts_under_budget;
    Alcotest.test_case "generous governor changes nothing" `Quick
      test_governed_success_unchanged;
    Alcotest.test_case "error classes, strings, exit codes" `Quick
      test_error_strings_and_codes;
    Alcotest.test_case "retrying io rides out transients" `Quick
      test_retrying_rides_out_transients;
    Alcotest.test_case "retry exhaustion is a storage fault" `Quick
      test_retrying_exhaustion_is_storage_fault;
    Alcotest.test_case "injected crashes are never retried" `Quick
      test_retrying_passes_injected_faults;
    Alcotest.test_case "memory budget sees blocks before a collection"
      `Quick test_memory_budget_between_collections;
  ]
