(* Property: cancelling (or timing out) a governed durable-DML run at a
   PRNG-chosen point always recovers to a committed state — the abort
   behaves exactly like a crash that the journal protocol already
   survives, and because every governed check sits strictly before the
   journal append (a session's commit charges no ticks and polls
   nothing), recovery lands on precisely the state after the last fully
   completed statement. Both properties draw their abort point from
   the polls and ticks an uncancelled run makes, so every case
   aborts. *)

open Nullrel
open Qgen

let with_temp_dir = Test_durability.with_temp_dir
let seed_catalog = Test_durability.seed_catalog
let workload = Test_durability.workload
let catalogs_equal = Test_durability.catalogs_equal
let committed_states = Test_durability.committed_states
let no_corruption = Test_durability.no_corruption

(* The workload under governor [g] through a one-session engine over a
   freshly seeded [dir]; [completed] counts the committed statements. *)
let governed_run g ~completed dir =
  Storage.Persist.save ~dir (seed_catalog ());
  Exec.with_governor g (fun () ->
      Test_durability.with_writer ~dir (fun _ sess ->
          Test_durability.commit_all ~completed sess workload))

(* The cancellation polls and the ticks of one uncancelled run. A
   cancellation at any poll in 1..polls, and a tuple budget anywhere in
   0..ticks-1, aborts the run. *)
let span =
  lazy
    (with_temp_dir (fun dir ->
         let polls = ref 0 in
         let cancelled () =
           incr polls;
           false
         in
         let g = Exec.make ~cancelled ~check_every:1 () in
         governed_run g ~completed:(ref 0) dir;
         (!polls, Exec.charged g)))

let drawn lo hi =
  QCheck.make ~print:string_of_int (fun st ->
      QCheck.Gen.int_range lo (hi (Lazy.force span)) st)

(* One governed run, cancelled at its [k]th cancellation poll: returns
   the number of fully completed statements and whether it aborted. *)
let cancelled_run ~k dir =
  let polls = ref 0 in
  let cancelled () =
    incr polls;
    !polls >= k
  in
  let g = Exec.make ~cancelled ~check_every:1 () in
  let completed = ref 0 in
  let aborted =
    match governed_run g ~completed dir with
    | () -> false
    | exception Exec_error.Error Exec_error.Cancelled -> true
  in
  (!completed, aborted)

let cancel_anywhere_recovers =
  QCheck.Test.make ~count:60
    ~name:"cancel at any point recovers to the committed state"
    (drawn 1 fst)
    (fun k ->
      let states = committed_states () in
      with_temp_dir (fun dir ->
          let completed, aborted = cancelled_run ~k dir in
          let report = Storage.Persist.recover ~dir () in
          no_corruption report;
          (match report.Storage.Persist.journal_note with
          | Some note -> QCheck.Test.fail_reportf "journal note: %s" note
          | None -> ());
          if not aborted then
            QCheck.Test.fail_reportf
              "cancelling at poll %d of an uncancelled run's %d never fired"
              k (fst (Lazy.force span));
          (* Abort-before-apply: the state is exactly the one after the
             last completed statement, never a torn in-between. *)
          if not (catalogs_equal report.Storage.Persist.catalog states.(completed))
          then
            QCheck.Test.fail_reportf
              "cancelled after %d polls (%d statements committed): \
               recovery does not match the committed state"
              k completed;
          true))

let timeout_mid_workload_recovers =
  QCheck.Test.make ~count:30
    ~name:"deadline mid-workload recovers to a committed state"
    (drawn 0 (fun (_, ticks) -> ticks - 1))
    (fun budget ->
      (* a tuple budget stands in for the deadline: same code path
         (amortized full check -> Exec_error), deterministic trigger *)
      let states = committed_states () in
      with_temp_dir (fun dir ->
          let completed = ref 0 in
          let aborted =
            match
              governed_run
                (Exec.make ~max_tuples:budget ~check_every:1 ())
                ~completed dir
            with
            | () -> false
            | exception Exec_error.Error _ -> true
          in
          if not aborted then
            QCheck.Test.fail_reportf
              "a budget of %d under an uncancelled run's %d ticks never fired"
              budget (snd (Lazy.force span));
          let report = Storage.Persist.recover ~dir () in
          no_corruption report;
          let recovered = report.Storage.Persist.catalog in
          (* A budget abort can fire between the journal append and the
             in-memory apply only if some code ticked there; the design
             forbids ticks in that window, so recovery must land on
             [completed] or (if the abort hit the post-append
             bookkeeping) [completed + 1]. *)
          let candidates =
            states.(!completed)
            :: (if !completed + 1 < Array.length states then
                  [ states.(!completed + 1) ]
                else [])
          in
          List.exists (catalogs_equal recovered) candidates))

let suite =
  List.map to_alcotest [ cancel_anywhere_recovers; timeout_mid_workload_recovers ]
