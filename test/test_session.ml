(* The concurrent session layer: snapshot isolation, group commit,
   conflict validation, admission control, crash-fault drills — plus
   the storage-layer robustness satellites (seeded retry jitter, named
   crash points, torn group batches). *)

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
  let dir = temp_dir "nullrel_session" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let open_seeded ?config dir =
  Session.Drive.seed ~dir ();
  let eng, _ = Session.open_engine ?config ~dir () in
  eng

let counter_of eng =
  Session.Drive.counter_value (Session.engine_snapshot eng).Session.catalog

let events_of eng =
  Session.Drive.events_cardinal (Session.engine_snapshot eng).Session.catalog

(* --------------------- snapshot isolation --------------------- *)

let test_snapshot_isolation () =
  with_temp_dir @@ fun dir ->
  let eng = open_seeded dir in
  let a = Session.attach eng in
  let b = Session.attach eng in
  ignore (Session.exec_string a "append to EVENTS (SID = 1, SEQ = 1)");
  (* A sees its own staged write; B and the engine do not. *)
  Alcotest.(check int) "A sees own write" 1
    (Session.Drive.events_cardinal (Session.snapshot a).Session.catalog);
  Session.begin_ b;
  Alcotest.(check int) "B sees nothing" 0
    (Session.Drive.events_cardinal (Session.snapshot b).Session.catalog);
  Alcotest.(check int) "engine sees nothing" 0 (events_of eng);
  let lsn = Session.commit a in
  Alcotest.(check int) "first commit is lsn 1" 1 lsn;
  Alcotest.(check int) "published after commit" 1 (events_of eng);
  (* B's pinned snapshot still reflects the pre-commit world. *)
  Alcotest.(check int) "B's snapshot is immutable" 0
    (Session.Drive.events_cardinal (Session.snapshot b).Session.catalog);
  Session.rollback b;
  Alcotest.(check int) "fresh view after rollback" 1
    (Session.Drive.events_cardinal (Session.snapshot b).Session.catalog);
  Session.shutdown eng

let test_group_batch () =
  with_temp_dir @@ fun dir ->
  let eng = open_seeded dir in
  let sessions = List.init 3 (fun _ -> Session.attach eng) in
  List.iteri
    (fun i s ->
      ignore
        (Session.exec_string s
           (Printf.sprintf "append to EVENTS (SID = %d, SEQ = 1)" (i + 1))))
    sessions;
  List.iter Session.submit sessions;
  Alcotest.(check int) "three queued" 3 (Session.queue_depth eng);
  Session.flush eng;
  let lsns = List.map Session.await sessions in
  Alcotest.(check (list int)) "lsns assigned in submit order" [ 1; 2; 3 ] lsns;
  let s = Session.stats eng in
  Alcotest.(check int) "one batch" 1 s.Session.batches;
  Alcotest.(check int) "three records in it" 3 s.Session.max_batch;
  Alcotest.(check int) "all committed" 3 s.Session.committed;
  Alcotest.(check int) "all published" 3 (events_of eng);
  Session.shutdown eng

(* ---------------------- conflict validation ------------------- *)

let stage_replace s tag =
  ignore
    (Session.exec_string s
       (Printf.sprintf "range of c is COUNTER replace c (N = %d) where c.C = 0"
          tag))

let test_first_committer_wins () =
  with_temp_dir @@ fun dir ->
  let eng = open_seeded dir in
  let setup = Session.attach eng in
  ignore (Session.exec_string setup "append to COUNTER (C = 0, N = 0)");
  ignore (Session.commit setup);
  let a = Session.attach eng in
  let b = Session.attach eng in
  stage_replace a 101;
  stage_replace b 202;
  ignore (Session.commit a);
  (match Session.commit b with
  | _ -> Alcotest.fail "second replace must conflict"
  | exception Session.Session_error.Error
      (Session.Session_error.Conflict { relation }) ->
      Alcotest.(check string) "conflict names the relation" "COUNTER" relation);
  Alcotest.(check (option int)) "first committer's value survives" (Some 101)
    (counter_of eng);
  (* B retries against a fresh snapshot and wins. *)
  stage_replace b 202;
  ignore (Session.commit b);
  Alcotest.(check (option int)) "retry succeeds" (Some 202) (counter_of eng);
  let s = Session.stats eng in
  Alcotest.(check int) "one conflict counted" 1 s.Session.conflicts;
  Session.shutdown eng

let test_disjoint_appends_commute () =
  with_temp_dir @@ fun dir ->
  let eng = open_seeded dir in
  let a = Session.attach eng in
  let b = Session.attach eng in
  (* Same relation, different tuples, overlapping snapshots — appends
     commute under union semantics, so both commit (in one batch). *)
  ignore (Session.exec_string a "append to EVENTS (SID = 1, SEQ = 1)");
  ignore (Session.exec_string b "append to EVENTS (SID = 2, SEQ = 1)");
  Session.submit a;
  Session.submit b;
  Session.flush eng;
  ignore (Session.await a);
  ignore (Session.await b);
  Alcotest.(check int) "both appends landed" 2 (events_of eng);
  Alcotest.(check int) "no conflicts" 0 (Session.stats eng).Session.conflicts;
  (* But an append that would resurrect a concurrently deleted tuple
     conflicts: d pins a snapshot, then w appends (3,3), c deletes it,
     and d's own append of (3,3) hits added(d) ∩ removed(c). (Appending
     a tuple already in one's snapshot is a no-op and stages nothing —
     the conflict needs a snapshot that predates the tuple.) *)
  let w = Session.attach eng in
  let c = Session.attach eng in
  let d = Session.attach eng in
  Session.begin_ d;
  ignore (Session.exec_string w "append to EVENTS (SID = 3, SEQ = 3)");
  ignore (Session.commit w);
  ignore
    (Session.exec_string c "range of e is EVENTS delete e where e.SID = 3");
  ignore (Session.commit c);
  ignore (Session.exec_string d "append to EVENTS (SID = 3, SEQ = 3)");
  (match Session.commit d with
  | _ -> Alcotest.fail "resurrecting a concurrently deleted tuple must abort"
  | exception Session.Session_error.Error (Session.Session_error.Conflict _)
    -> ());
  (* And the mirror: a delete of a tuple a concurrent commit added
     conflicts, through removed(r) ∩ added(q). q pins a snapshot before
     p appends (4,4), so q's own append of (4,4) stages an addition;
     r's snapshot, taken between the two commits, holds (4,4) to
     delete. *)
  let p = Session.attach eng in
  let q = Session.attach eng in
  let r = Session.attach eng in
  Session.begin_ q;
  ignore (Session.exec_string p "append to EVENTS (SID = 4, SEQ = 4)");
  ignore (Session.commit p);
  Session.begin_ r;
  ignore (Session.exec_string q "append to EVENTS (SID = 4, SEQ = 4)");
  ignore (Session.commit q);
  ignore
    (Session.exec_string r "range of e is EVENTS delete e where e.SID = 4");
  (match Session.commit r with
  | _ -> Alcotest.fail "deleting a concurrently added tuple must abort"
  | exception Session.Session_error.Error (Session.Session_error.Conflict _)
    -> ());
  Session.shutdown eng

(* ---------------------- admission control --------------------- *)

let test_queue_full () =
  with_temp_dir @@ fun dir ->
  let config = { Session.default_config with Session.max_queue = 2 } in
  let eng = open_seeded ~config dir in
  let stage i =
    let s = Session.attach eng in
    ignore
      (Session.exec_string s
         (Printf.sprintf "append to EVENTS (SID = %d, SEQ = 1)" i));
    s
  in
  let s1 = stage 1 and s2 = stage 2 and s3 = stage 3 in
  Session.submit s1;
  Session.submit s2;
  (* The third submission is refused immediately — no blocking. *)
  (match Session.submit s3 with
  | () -> Alcotest.fail "third submit must be refused"
  | exception Session.Session_error.Error
      (Session.Session_error.Queue_full { limit }) ->
      Alcotest.(check int) "limit reported" 2 limit);
  Alcotest.(check bool) "s3's txn stays staged" true (Session.in_txn s3);
  Session.flush eng;
  ignore (Session.await s1);
  ignore (Session.await s2);
  (* Once drained, the staged transaction commits on retry. *)
  ignore (Session.commit s3);
  Alcotest.(check int) "all three landed" 3 (events_of eng);
  Alcotest.(check int) "refusal counted" 1
    (Session.stats eng).Session.queue_full;
  Session.shutdown eng

let test_shutdown () =
  with_temp_dir @@ fun dir ->
  let eng = open_seeded dir in
  let s = Session.attach eng in
  ignore (Session.exec_string s "append to EVENTS (SID = 1, SEQ = 1)");
  ignore (Session.commit s);
  Session.shutdown eng;
  Session.shutdown eng (* idempotent *);
  Alcotest.(check bool) "dead" false (Session.alive eng);
  ignore (Session.exec_string s "append to EVENTS (SID = 1, SEQ = 2)");
  (match Session.commit s with
  | _ -> Alcotest.fail "commit after shutdown must fail"
  | exception Session.Session_error.Error Session.Session_error.Shutdown -> ());
  (* The directory is consistent: re-open sees the committed state. *)
  let eng2, _ = Session.open_engine ~dir () in
  Alcotest.(check int) "state survived" 1 (events_of eng2);
  Session.shutdown eng2

(* ------------------- serial (per-commit fsync) ----------------- *)

let test_serial_mode () =
  with_temp_dir @@ fun dir ->
  let config = { Session.default_config with Session.group = false } in
  let eng = open_seeded ~config dir in
  let sessions = List.init 3 (fun _ -> Session.attach eng) in
  List.iteri
    (fun i s ->
      ignore
        (Session.exec_string s
           (Printf.sprintf "append to EVENTS (SID = %d, SEQ = 1)" (i + 1))))
    sessions;
  List.iter Session.submit sessions;
  Session.flush eng;
  List.iter (fun s -> ignore (Session.await s)) sessions;
  Alcotest.(check int) "serial mode commits too" 3 (events_of eng);
  Session.shutdown eng;
  let eng2, _ = Session.open_engine ~dir () in
  Alcotest.(check int) "and is durable" 3 (events_of eng2);
  Session.shutdown eng2

let test_checkpointing () =
  with_temp_dir @@ fun dir ->
  let config = { Session.default_config with Session.checkpoint_every = 2 } in
  let eng = open_seeded ~config dir in
  let s = Session.attach eng in
  for j = 1 to 5 do
    ignore
      (Session.exec_string s
         (Printf.sprintf "append to EVENTS (SID = 1, SEQ = %d)" j));
    ignore (Session.commit s)
  done;
  (* 5 records with a checkpoint every 2: the journal holds at most the
     tail since the last cut. *)
  let records, note = Storage.Wal.read ~io:Storage.Io.real ~dir in
  Alcotest.(check (option string)) "journal clean" None note;
  Alcotest.(check bool) "journal truncated by checkpoints" true
    (List.length records <= 1);
  Session.shutdown eng;
  let eng2, _ = Session.open_engine ~dir () in
  Alcotest.(check int) "nothing lost across checkpoints" 5 (events_of eng2);
  Session.shutdown eng2

(* -------------------- real multicore commits ------------------- *)

let test_concurrent_commits () =
  with_temp_dir @@ fun dir ->
  let eng = open_seeded dir in
  let domains = 4 and txns = 20 in
  let workers =
    List.init domains (fun k ->
        Stdlib.Domain.spawn (fun () ->
            let s = Session.attach eng in
            let committed = ref 0 in
            for j = 1 to txns do
              ignore
                (Session.exec_string s
                   (Printf.sprintf "append to EVENTS (SID = %d, SEQ = %d)"
                      (k + 1) j));
              match Session.commit s with
              | _ -> incr committed
              | exception Session.Session_error.Error _ -> ()
            done;
            !committed))
  in
  let total = List.fold_left (fun acc d -> acc + Stdlib.Domain.join d) 0 workers in
  (* Disjoint appends never conflict: every transaction must land. *)
  Alcotest.(check int) "all committed" (domains * txns) total;
  Alcotest.(check int) "all published" (domains * txns) (events_of eng);
  Session.shutdown eng;
  let eng2, _ = Session.open_engine ~dir () in
  Alcotest.(check int) "all durable" (domains * txns) (events_of eng2);
  Session.shutdown eng2

let test_contention_drive () =
  with_temp_dir @@ fun dir ->
  let eng = open_seeded dir in
  let r =
    Session.Drive.contention eng ~sessions:4 ~txns:8 ~conflict_every:2 ()
  in
  Alcotest.(check int) "every txn resolved" (4 * 8)
    (r.Session.Drive.committed + r.Session.Drive.conflicts);
  (* Conflicted transactions vanish whole: EVENTS holds exactly the
     committed appends. *)
  Alcotest.(check int) "isolation invariant" r.Session.Drive.committed
    r.Session.Drive.events;
  Session.shutdown eng

(* ----------------------- crash-fault drills -------------------- *)

let drill mode () =
  with_temp_dir @@ fun dir ->
  let d = Session.Drive.crash_matrix ~dir ~trials:12 ~mode () in
  Alcotest.(check int) "every trial crashed" d.Session.Drive.trials
    d.Session.Drive.crashes;
  Alcotest.(check int) "zero lost committed transactions" 0
    d.Session.Drive.lost;
  Alcotest.(check int) "zero resurrected aborted transactions" 0
    d.Session.Drive.resurrected;
  Alcotest.(check int) "second replay is always a no-op"
    d.Session.Drive.trials d.Session.Drive.clean_second_replays

let test_torn_batch_tail () =
  with_temp_dir @@ fun dir ->
  let io = Storage.Io.real in
  Session.Drive.seed ~io ~dir ();
  let record lsn seq =
    let tuple =
      Tuple.set
        (Tuple.set Tuple.empty (Attr.make "SID") (Value.Int 1))
        (Attr.make "SEQ") (Value.Int seq)
    in
    {
      Storage.Wal.lsn;
      ops =
        [
          Storage.Wal.Change
            {
              rel = "EVENTS";
              added = Xrel.of_tuples (Tuple.Set.singleton tuple);
              removed = Xrel.of_tuples Tuple.Set.empty;
            };
        ];
    }
  in
  let rs = [ record 1 1; record 2 2; record 3 3 ] in
  Storage.Wal.append_batch ~io ~dir rs;
  let all, note = Storage.Wal.read ~io ~dir in
  Alcotest.(check int) "batch readable" 3 (List.length all);
  Alcotest.(check (option string)) "clean tail" None note;
  (* Tear the batch mid-record: drop the last 7 bytes. *)
  let path = Storage.Wal.file ~dir in
  let data = io.Storage.Io.read_file path in
  io.Storage.Io.write_file path
    (String.sub data 0 (String.length data - 7));
  let prefix, note = Storage.Wal.read ~io ~dir in
  Alcotest.(check int) "valid prefix survives" 2 (List.length prefix);
  Alcotest.(check bool) "torn tail reported" true (note <> None);
  (* Recovery replays the prefix and truncates the tear... *)
  let report = Storage.Persist.recover ~io ~dir () in
  Alcotest.(check bool) "recovery reports the tear" true
    (report.Storage.Persist.journal_note <> None);
  Alcotest.(check int) "prefix replayed" 2
    (Session.Drive.events_cardinal report.Storage.Persist.catalog);
  (* ... so a second replay finds a clean, empty journal: idempotent. *)
  let again = Storage.Persist.load_report ~io ~dir () in
  Alcotest.(check (option string)) "second replay is clean" None
    again.Storage.Persist.journal_note;
  Alcotest.(check int) "and a no-op" 2
    (Session.Drive.events_cardinal again.Storage.Persist.catalog)

(* ------------------ storage-layer satellites ------------------- *)

let test_retry_jitter_seeded () =
  let run seed =
    let delays = ref [] in
    let io =
      Storage.Io.retrying ~attempts:4 ~backoff:0.008 ~seed
        ~sleep:(fun d -> delays := d :: !delays)
        (Storage.Io.flaky ~failures:3 Storage.Io.real)
    in
    with_temp_dir (fun dir ->
        io.Storage.Io.mkdir dir;
        io.Storage.Io.write_file (Filename.concat dir "probe") "x");
    List.rev !delays
  in
  let d1 = run 42 and d2 = run 42 and d3 = run 43 in
  Alcotest.(check int) "three retries slept" 3 (List.length d1);
  Alcotest.(check (list (float 1e-12))) "same seed, same schedule" d1 d2;
  Alcotest.(check bool) "different seed, different schedule" true (d1 <> d3);
  (* Jitter stays inside [1/2, 1] of the nominal exponential delay. *)
  List.iteri
    (fun i d ->
      let nominal = 0.008 *. (2. ** float_of_int i) in
      Alcotest.(check bool)
        (Printf.sprintf "retry %d in [nominal/2, nominal]" i)
        true
        (d >= (nominal /. 2.) -. 1e-12 && d <= nominal +. 1e-12))
    d1

let test_crash_at_point () =
  with_temp_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  let io = Storage.Io.crash_at ~point:"proto:step2" Storage.Io.real in
  let path = Filename.concat dir "f" in
  io.Storage.Io.note "proto:step1";
  io.Storage.Io.write_file path "before";
  (match io.Storage.Io.note "proto:step2" with
  | () -> Alcotest.fail "the named point must kill the process model"
  | exception Storage.Io.Injected_fault _ -> ());
  (* Dead past the point: mutations refuse, reads still work. *)
  (match io.Storage.Io.write_file path "after" with
  | () -> Alcotest.fail "writes after the crash must refuse"
  | exception Storage.Io.Injected_fault _ -> ());
  Alcotest.(check string) "debris readable post-mortem" "before"
    (io.Storage.Io.read_file path)

let test_governor_domain_local () =
  (* A governed session on a spawned domain trips its own budget
     without disturbing the main domain's (unlimited) governor. *)
  let tripped =
    Stdlib.Domain.spawn (fun () ->
        Exec.with_governor
          (Exec.make ~max_tuples:5 ())
          (fun () ->
            match
              for _ = 1 to 10 do
                Exec.tick ()
              done
            with
            | () -> false
            | exception Exec_error.Error (Exec_error.Budget_exceeded _) ->
                true))
  in
  (* Meanwhile the main domain ticks freely. *)
  for _ = 1 to 1000 do
    Exec.tick ()
  done;
  Alcotest.(check bool) "worker domain budget trips locally" true
    (Stdlib.Domain.join tripped)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_demo_deterministic () =
  let lines1 = with_temp_dir (fun dir -> Session.Drive.demo ~dir ()) in
  let lines2 = with_temp_dir (fun dir -> Session.Drive.demo ~dir ()) in
  Alcotest.(check (list string)) "demo output is reproducible" lines1 lines2;
  Alcotest.(check bool) "demo shows a conflict" true
    (List.exists
       (fun l -> contains_sub l "aborted" || contains_sub l "conflict")
       lines1)

(* A governed abort lands before the journal append only if nothing on
   the commit path ticks or polls: [Session.commit] charges the ambient
   governor nothing past its entry check, whatever the statement and
   however large its relation, a due checkpoint (the third commit)
   included. *)
let test_commit_charges_nothing () =
  with_temp_dir (fun dir ->
      let schema =
        Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints) ]
      in
      let row k =
        Tuple.of_strings [ ("A", Value.Int k); ("B", Value.Int (k mod 7)) ]
      in
      Storage.Persist.save ~dir
        (Storage.Catalog.add Storage.Catalog.empty schema
           (Xrel.of_list (List.init 2000 row)));
      Test_durability.with_writer ~dir (fun _ sess ->
          List.iter
            (fun stmt ->
              ignore (Session.exec_string sess stmt);
              let polls = ref 0 in
              let cancelled () =
                incr polls;
                false
              in
              let g = Exec.make ~cancelled ~check_every:1 () in
              ignore (Exec.with_governor g (fun () -> Session.commit sess));
              Alcotest.(check (pair int int))
                (stmt ^ ": ticks, and polls past the entry check")
                (0, 0)
                (Exec.charged g, !polls - 1))
            [
              "append to R (A = 2000, B = 1)";
              "range of r is R delete r where r.B = 3";
              "range of r is R replace r (B = 9) where r.A = 5";
              "constrain unique R (A) as ua";
            ]))

let suite =
  [
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "group batch, one flush" `Quick test_group_batch;
    Alcotest.test_case "first committer wins" `Quick test_first_committer_wins;
    Alcotest.test_case "disjoint appends commute" `Quick
      test_disjoint_appends_commute;
    Alcotest.test_case "queue-full admission control" `Quick test_queue_full;
    Alcotest.test_case "shutdown" `Quick test_shutdown;
    Alcotest.test_case "serial (per-commit fsync) mode" `Quick
      test_serial_mode;
    Alcotest.test_case "checkpoints under group commit" `Quick
      test_checkpointing;
    Alcotest.test_case "concurrent multicore commits" `Quick
      test_concurrent_commits;
    Alcotest.test_case "contention drive invariants" `Quick
      test_contention_drive;
    Alcotest.test_case "crash before group fsync" `Quick
      (drill `Before_fsync);
    Alcotest.test_case "crash inside group fsync (torn)" `Quick
      (drill `Inside_fsync);
    Alcotest.test_case "crash after group fsync" `Quick (drill `After_fsync);
    Alcotest.test_case "torn group batch replay idempotence" `Quick
      test_torn_batch_tail;
    Alcotest.test_case "seeded retry jitter" `Quick test_retry_jitter_seeded;
    Alcotest.test_case "crash at a named protocol point" `Quick
      test_crash_at_point;
    Alcotest.test_case "governors are domain-local" `Quick
      test_governor_domain_local;
    Alcotest.test_case "a commit charges the governor nothing" `Quick
      test_commit_charges_nothing;
    Alcotest.test_case "session demo is deterministic" `Quick
      test_demo_deterministic;
  ]
