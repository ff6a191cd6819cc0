(* Property tests: snapshot isolation and group commit against a
   model. A random schedule of transactions — which session acts,
   whether it touches the write-write hotspot, when the queue is
   flushed — is run sequentially (hence deterministically) through the
   engine; the committed/aborted outcomes reported by [await] induce a
   model of what the database must contain, which is checked both
   against the live snapshot and against a from-disk recovery. *)

open Qgen

let count = 60

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

(* One step of a schedule: session [who] stages a transaction
   (guaranteed-unique EVENTS append, plus the COUNTER hotspot when
   [hot]); [flush_now] decides whether the queue is drained before the
   next step piles on. *)
type step = { who : int; hot : bool; flush_now : bool }

let step_gen =
  QCheck.Gen.(
    map3
      (fun who hot flush_now -> { who; hot; flush_now })
      (int_range 0 2) bool bool)

let schedule_gen = QCheck.Gen.(list_size (int_range 1 24) step_gen)

let print_schedule sched =
  String.concat ";"
    (List.map
       (fun s ->
         Printf.sprintf "s%d%s%s" s.who
           (if s.hot then "!" else "")
           (if s.flush_now then "|" else ""))
       sched)

let arbitrary_schedule = QCheck.make ~print:print_schedule schedule_gen

(* Awaiting a session's in-flight transaction updates the model: on
   commit, its append (and hotspot tag, at its commit lsn) become
   expected state; on conflict they must never appear. *)
type inflight = { seq : int; tag : int option }

let run_schedule sched =
  let dir = temp_dir "nullrel_props_session" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  Session.Drive.seed ~dir ();
  let eng, _ = Session.open_engine ~dir () in
  let setup = Session.attach eng in
  ignore (Session.exec_string setup "append to COUNTER (C = 0, N = 0)");
  ignore (Session.commit setup);
  let sessions = Array.init 3 (fun _ -> Session.attach eng) in
  let inflight = Array.make 3 None in
  let next_seq = Array.make 3 0 in
  let expected_events = ref [] in
  let forbidden_events = ref [] in
  let committed_tags = ref [] (* (lsn, tag) *) in
  let tag_of who seq = 10_000 + (who * 1000) + seq in
  let await who =
    match inflight.(who) with
    | None -> ()
    | Some fl -> (
        inflight.(who) <- None;
        match Session.await sessions.(who) with
        | lsn ->
            expected_events := (who, fl.seq) :: !expected_events;
            Option.iter
              (fun tag -> committed_tags := (lsn, tag) :: !committed_tags)
              fl.tag
        | exception Session.Session_error.Error
            (Session.Session_error.Conflict _) ->
            forbidden_events := (who, fl.seq) :: !forbidden_events)
  in
  List.iter
    (fun { who; hot; flush_now } ->
      (* A session with a submitted txn must collect it first. *)
      await who;
      let s = sessions.(who) in
      next_seq.(who) <- next_seq.(who) + 1;
      let seq = next_seq.(who) in
      ignore
        (Session.exec_string s
           (Printf.sprintf "append to EVENTS (SID = %d, SEQ = %d)" (who + 1)
              seq));
      let tag =
        if hot then begin
          ignore
            (Session.exec_string s
               (Printf.sprintf
                  "range of c is COUNTER replace c (N = %d) where c.C = 0"
                  (tag_of who seq)));
          Some (tag_of who seq)
        end
        else None
      in
      (match Session.submit s with
      | () -> inflight.(who) <- Some { seq; tag }
      | exception Session.Session_error.Error
          (Session.Session_error.Queue_full _) ->
          (* Drain and resubmit; the txn stayed staged. *)
          Session.flush eng;
          Session.submit s;
          inflight.(who) <- Some { seq; tag });
      if flush_now then Session.flush eng)
    sched;
  Session.flush eng;
  for who = 0 to 2 do
    await who
  done;
  let final = (Session.engine_snapshot eng).Session.catalog in
  Session.shutdown eng;
  (* Recovery from disk must reproduce the live snapshot exactly. *)
  let recovered = (Storage.Persist.recover ~dir ()).Storage.Persist.catalog in
  let ok_events cat =
    List.for_all
      (fun (who, seq) -> Session.Drive.has_event cat ~sid:(who + 1) ~seq)
      !expected_events
    && List.for_all
         (fun (who, seq) ->
           not (Session.Drive.has_event cat ~sid:(who + 1) ~seq))
         !forbidden_events
    && Session.Drive.events_cardinal cat = List.length !expected_events
  in
  let expected_counter =
    match
      List.sort (fun (a, _) (b, _) -> compare b a) !committed_tags
    with
    | (_, tag) :: _ -> tag
    | [] -> 0
  in
  let ok_counter cat = Session.Drive.counter_value cat = Some expected_counter in
  ok_events final && ok_counter final && ok_events recovered
  && ok_counter recovered

let isolation_and_durability =
  QCheck.Test.make ~count ~name:"random schedules: isolation + durability"
    arbitrary_schedule run_schedule

(* Committed-batch replay exactness, directly at the journal level: a
   group batch appended and torn at every byte boundary either replays
   a whole-record prefix or reports the tear — never garbage. *)
let torn_everywhere =
  QCheck.Test.make ~count:20 ~name:"group batch torn at any byte is a prefix"
    QCheck.(make Gen.(int_range 1 5))
    (fun n ->
      let dir = temp_dir "nullrel_props_torn" in
      Fun.protect ~finally:(fun () -> rm_rf dir)
      @@ fun () ->
      let io = Storage.Io.real in
      Session.Drive.seed ~io ~dir ();
      let record lsn =
        let tuple =
          Nullrel.Tuple.set
            (Nullrel.Tuple.set Nullrel.Tuple.empty
               (Nullrel.Attr.make "SID") (Nullrel.Value.Int lsn))
            (Nullrel.Attr.make "SEQ") (Nullrel.Value.Int lsn)
        in
        {
          Storage.Wal.lsn;
          ops =
            [
              Storage.Wal.Change
                {
                  rel = "EVENTS";
                  added =
                    Nullrel.Xrel.of_tuples (Nullrel.Tuple.Set.singleton tuple);
                  removed = Nullrel.Xrel.of_tuples Nullrel.Tuple.Set.empty;
                };
            ];
        }
      in
      let rs = List.init n (fun i -> record (i + 1)) in
      let path = Storage.Wal.file ~dir in
      (* Each record's frame size, measured one at a time. *)
      let sizes =
        List.map
          (fun r ->
            Storage.Wal.reset ~io ~dir;
            Storage.Wal.append ~io ~dir r;
            String.length (io.Storage.Io.read_file path))
          rs
      in
      let boundaries =
        List.rev
          (List.fold_left (fun acc s -> (List.hd acc + s) :: acc) [ 0 ] sizes)
      in
      Storage.Wal.reset ~io ~dir;
      Storage.Wal.append_batch ~io ~dir rs;
      let data = io.Storage.Io.read_file path in
      let full = String.length data in
      let ok = ref (full = List.nth boundaries n) in
      for cut = 0 to full - 1 do
        io.Storage.Io.write_file path (String.sub data 0 cut);
        let prefix, note = Storage.Wal.read ~io ~dir in
        let k = List.length prefix in
        (* How many whole frames fit in [cut] bytes. *)
        let whole =
          List.length (List.filter (fun b -> b <= cut) boundaries) - 1
        in
        let at_boundary = List.mem cut boundaries in
        (* The valid prefix is exactly the whole frames, in order, and
           a cut inside a frame — a genuine tear — must be flagged,
           while a cut on a boundary reads clean (indistinguishable
           from a shorter committed log). *)
        ok :=
          !ok && k = whole
          && List.for_all2
               (fun (r : Storage.Wal.record) l -> r.Storage.Wal.lsn = l)
               prefix
               (List.init k (fun i -> i + 1))
          && (if at_boundary then note = None else note <> None)
      done;
      !ok)

(* ------------- composed records vs the whole-relation diff ------------- *)

(* A session journals each transaction from its statements' composed
   deltas. The reference is the exact difference of each touched
   relation's snapshot and staged states, one change per relation in
   first-touch order. *)
let diff_ops before after touched =
  List.filter_map
    (fun rel ->
      let c =
        Storage.Wal.change ~rel
          ~before:(Storage.Catalog.relation before rel)
          ~after:(Storage.Catalog.relation after rel)
      in
      if Storage.Wal.change_is_noop c then None else Some (Storage.Wal.Change c))
    touched

let same_op o1 o2 =
  match (o1, o2) with
  | Storage.Wal.Change c1, Storage.Wal.Change c2 ->
      String.equal c1.Storage.Wal.rel c2.Storage.Wal.rel
      && Nullrel.Xrel.equal c1.Storage.Wal.added c2.Storage.Wal.added
      && Nullrel.Xrel.equal c1.Storage.Wal.removed c2.Storage.Wal.removed
  | _ -> false

(* T(K, V) keyed on K; R(C, F, W) keyed on C, whose F cascades from T;
   S(F, X), unkeyed, whose F is set to ni when its T row goes — two S
   rows differing only in F collapse into one. *)
let composed_catalog () =
  let ints name ?key cols =
    Nullrel.Schema.make ?key name
      (List.map (fun c -> (c, Nullrel.Domain.Ints)) cols)
  in
  let empty = Nullrel.Xrel.bottom in
  let cat = Storage.Catalog.add Storage.Catalog.empty (ints "T" ~key:[ "K" ] [ "K"; "V" ]) empty in
  let cat = Storage.Catalog.add cat (ints "R" ~key:[ "C" ] [ "C"; "F"; "W" ]) empty in
  let cat = Storage.Catalog.add cat (ints "S" [ "F"; "X" ]) empty in
  List.fold_left
    (fun cat stmt -> (Dml.exec_string cat stmt).Dml.catalog)
    cat
    [
      "constrain fk R (F) to T (K) on delete cascade as fk_rt";
      "constrain fk S (F) to T (K) on delete setnull as fk_st";
      "append to T (K = 0, V = 0)";
      "append to T (K = 1)";
      "append to T (K = 2, V = 1)";
      "append to T (K = 3)";
      "append to R (C = 0, F = 0, W = 0)";
      "append to R (C = 1, F = 2)";
      "append to R (C = 2, F = 2, W = 1)";
      "append to S (F = 0, X = 0)";
      "append to S (F = 2, X = 0)";
      "append to S (F = 1, X = 1)";
    ]

(* One to two statements of a pattern whose deltas cancel when composed:
   append then delete of one tuple, delete then re-append, a refining
   append that evicts, a replace (sometimes onto itself), and deletes
   from T that cascade into R or set S's references to ni. *)
let composed_pattern g =
  let k () = Workload.Prng.int g 5 and v () = Workload.Prng.int g 3 in
  match Workload.Prng.int g 7 with
  | 0 ->
      let c = 10 + Workload.Prng.int g 3 and f = k () in
      [
        Printf.sprintf "append to R (C = %d, F = %d, W = %d)" c f (v ());
        Printf.sprintf "range of r is R delete r where r.C = %d" c;
      ]
  | 1 ->
      let key = k () in
      [
        Printf.sprintf "range of t is T delete t where t.K = %d" key;
        Printf.sprintf "append to T (K = %d, V = %d)" key (v ());
      ]
  | 2 ->
      let key = k () in
      [
        Printf.sprintf "append to T (K = %d)" key;
        Printf.sprintf "append to T (K = %d, V = %d)" key (v ());
      ]
  | 3 ->
      let x = v () in
      let y = if Workload.Prng.bool g 0.5 then x else v () in
      [ Printf.sprintf "range of t is T replace t (V = %d) where t.V = %d" y x ]
  | 4 -> [ Printf.sprintf "range of t is T delete t where t.V = %d" (v ()) ]
  | 5 -> [ Printf.sprintf "range of t is T delete t where t.K = %d" (k ()) ]
  | _ ->
      [
        Printf.sprintf "append to S (F = %d, X = %d)" (k ()) (v ());
        Printf.sprintf "append to R (C = %d, F = %d)" (10 + Workload.Prng.int g 3) (k ());
      ]

let composed_records_equal_diff =
  QCheck.Test.make ~count:60
    ~name:"composed txn records = whole-relation diff, in frame bytes"
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let g = Workload.Prng.create seed in
      let dir = temp_dir "nullrel_props_composed" in
      let ref_dir = temp_dir "nullrel_props_composed_ref" in
      Fun.protect
        ~finally:(fun () ->
          rm_rf dir;
          rm_rf ref_dir)
      @@ fun () ->
      let io = Storage.Io.real in
      Storage.Persist.save ~io ~dir (composed_catalog ());
      io.Storage.Io.mkdir ref_dir;
      let eng, _ = Session.open_engine ~io ~dir () in
      let sess = Session.attach eng in
      let ok = ref true in
      for _ = 1 to 1 + Workload.Prng.int g 3 do
        let before = (Session.engine_snapshot eng).Session.catalog in
        let stmts =
          let rec fill acc =
            if List.length acc >= 6 || (acc <> [] && Workload.Prng.bool g 0.4)
            then acc
            else
              let p = composed_pattern g in
              if List.length acc + List.length p > 6 then acc else fill (acc @ p)
          in
          fill []
        in
        Session.begin_ sess;
        let touched = ref [] in
        List.iter
          (fun stmt ->
            match Session.exec_string sess stmt with
            | out ->
                List.iter
                  (fun rel ->
                    if not (List.mem rel !touched) then touched := !touched @ [ rel ])
                  out.Dml.touched
            | exception (Storage.Catalog.Violation _ | Constr.Error _) -> ())
          stmts;
        let staged = (Session.snapshot sess).Session.catalog in
        let expected = diff_ops before staged !touched in
        let n0 = List.length (fst (Storage.Wal.read ~io ~dir)) in
        let lsn = Session.commit sess in
        let records = fst (Storage.Wal.read ~io ~dir) in
        (match (expected, List.filteri (fun i _ -> i >= n0) records) with
        | [], [] -> ()
        | _ :: _, [ r ] ->
            ok :=
              !ok && r.Storage.Wal.lsn = lsn
              && List.length r.Storage.Wal.ops = List.length expected
              && List.for_all2 same_op r.Storage.Wal.ops expected;
            Storage.Wal.append ~io ~dir:ref_dir { Storage.Wal.lsn; ops = expected }
        | _ -> ok := false)
      done;
      Session.shutdown eng;
      let bytes d =
        let path = Storage.Wal.file ~dir:d in
        if io.Storage.Io.file_exists path then io.Storage.Io.read_file path else ""
      in
      !ok && String.equal (bytes dir) (bytes ref_dir))

(* ------------- checkpoint cadence across reopens ------------- *)

(* A schedule at [checkpoint_every = c]: group batches of 1-3 appends,
   and reopens that drop the engine without [shutdown], as a crash at a
   quiet moment does. A clean reopen keeps the journal tail, which
   counts towards the next checkpoint, so the journal never holds more
   than c - 1 records plus the largest batch, however often it reopens;
   and every acknowledged commit is back after each reopen. *)
type cadence_step = Commit of int | Reopen

let cadence_gen =
  QCheck.Gen.(
    pair (int_range 1 6)
      (list_size (int_range 1 30)
         (frequency
            [
              (3, map (fun k -> Commit k) (int_range 1 3)); (1, return Reopen);
            ])))

let print_cadence (c, steps) =
  Printf.sprintf "c=%d %s" c
    (String.concat ";"
       (List.map
          (function Commit k -> Printf.sprintf "C%d" k | Reopen -> "R")
          steps))

let cadence_survives_reopen =
  QCheck.Test.make ~count:40 ~name:"checkpoint cadence survives reopen"
    (QCheck.make ~print:print_cadence cadence_gen)
    (fun (c, steps) ->
      let dir = temp_dir "nullrel_props_cadence" in
      let opened = ref [] in
      Fun.protect
        ~finally:(fun () ->
          List.iter Session.shutdown !opened;
          rm_rf dir)
      @@ fun () ->
      Session.Drive.seed ~dir ();
      let config =
        { Session.default_config with Session.checkpoint_every = c }
      in
      let reopen () =
        let eng, report = Session.open_engine ~config ~dir () in
        opened := eng :: !opened;
        (eng, report.Storage.Persist.needs_repair)
      in
      let largest =
        List.fold_left
          (fun m -> function Commit k -> max m k | Reopen -> m)
          1 steps
      in
      let acked = ref [] in
      let back eng =
        let cat = (Session.engine_snapshot eng).Session.catalog in
        Session.Drive.events_cardinal cat = List.length !acked
        && List.for_all
             (fun seq -> Session.Drive.has_event cat ~sid:1 ~seq)
             !acked
      in
      let bounded () =
        List.length (fst (Storage.Wal.read ~io:Storage.Io.real ~dir))
        <= c - 1 + largest
      in
      let eng = ref (fst (reopen ())) in
      List.for_all
        (fun step ->
          (match step with
          | Commit k ->
              let batch =
                List.init k (fun i ->
                    let seq = List.length !acked + i + 1 in
                    let s = Session.attach !eng in
                    ignore
                      (Session.exec_string s
                         (Printf.sprintf "append to EVENTS (SID = 1, SEQ = %d)"
                            seq));
                    Session.submit s;
                    (s, seq))
              in
              Session.flush !eng;
              List.iter
                (fun (s, seq) ->
                  ignore (Session.await s);
                  acked := seq :: !acked)
                batch
          | Reopen ->
              let e, repaired = reopen () in
              if repaired then
                QCheck.Test.fail_report "a clean reopen repaired";
              eng := e);
          back !eng && bounded ())
        steps)

(* ------------- staged publish vs re-applying every transaction ------------- *)

(* PARENT(K, V) keyed on K; CHILD(C, K, W) keyed on C, with a hash
   index on K and a foreign key to PARENT that cascades deletes. *)
let publish_catalog () =
  let ints name ?key cols =
    Nullrel.Schema.make ?key name
      (List.map (fun c -> (c, Nullrel.Domain.Ints)) cols)
  in
  let empty = Nullrel.Xrel.bottom in
  let cat =
    Storage.Catalog.add Storage.Catalog.empty
      (ints "PARENT" ~key:[ "K" ] [ "K"; "V" ])
      empty
  in
  let cat = Storage.Catalog.add cat (ints "CHILD" ~key:[ "C" ] [ "C"; "K"; "W" ]) empty in
  let cat =
    Storage.Catalog.create_index cat "CHILD" ~kind:"hash"
      (Nullrel.Attr.Set.singleton (Nullrel.Attr.make "K"))
  in
  let cat =
    List.fold_left
      (fun cat stmt -> (Dml.exec_string cat stmt).Dml.catalog)
      cat
      (("constrain fk CHILD (K) to PARENT (K) on delete cascade as fk_cp"
       :: "constrain unique CHILD (K, W) as uq_kw"
       :: List.init 6 (fun k ->
              Printf.sprintf "append to PARENT (K = %d, V = %d)" k (k mod 3)))
      @ List.init 8 (fun c ->
            Printf.sprintf "append to CHILD (C = %d, K = %d, W = %d)" c
              (c mod 6) (c mod 4)))
  in
  (* Fresh statistics, so that a relation written and written back
     shows whether its entry moved. *)
  List.fold_left
    (fun cat rel ->
      let schema, x = Storage.Catalog.get cat rel in
      Storage.Catalog.set_stats cat rel
        (Stats.collect ~attrs:(Nullrel.Schema.attrs schema) x))
    cat [ "PARENT"; "CHILD" ]

(* Appends (some refining, some colliding on a key, some referencing no
   parent), keyed deletes and replaces on both relations, deletes that
   cascade, and constraint DDL: a unique constraint declared and
   dropped, the foreign key dropped and declared again. *)
let publish_statement_fk =
  "constrain fk CHILD (K) to PARENT (K) on delete cascade as fk_cp"

let rec publish_statement g =
  let k () = Workload.Prng.int g 8
  and c () = Workload.Prng.int g 10
  and v () = Workload.Prng.int g 4 in
  match Workload.Prng.int g 13 with
  | 0 -> Printf.sprintf "append to PARENT (K = %d, V = %d)" (k ()) (v ())
  | 1 -> Printf.sprintf "append to PARENT (K = %d)" (k ())
  | 2 -> Printf.sprintf "range of p is PARENT delete p where p.K = %d" (k ())
  | 3 ->
      Printf.sprintf "range of p is PARENT replace p (V = %d) where p.K = %d"
        (v ()) (k ())
  | 4 | 5 ->
      Printf.sprintf "append to CHILD (C = %d, K = %d, W = %d)" (c ()) (k ()) (v ())
  | 6 -> Printf.sprintf "range of c is CHILD delete c where c.C = %d" (c ())
  | 7 ->
      Printf.sprintf "range of c is CHILD replace c (W = %d) where c.C = %d"
        (v ()) (c ())
  | 8 -> Printf.sprintf "range of c is CHILD delete c where c.K = %d" (k ())
  | 9 -> "constrain unique CHILD (K, W) as uq_kw"
  | 10 -> "unconstrain uq_kw"
  | 11 -> "unconstrain fk_cp"
  | _ -> publish_statement_fk

(* A transaction's statements: random ones, or a pair whose effects
   cancel — a child appended and deleted, a constraint dropped and
   declared again. *)
and publish_statements g =
  match Workload.Prng.int g 5 with
  | 0 ->
      let c = 20 + Workload.Prng.int g 3 in
      [
        Printf.sprintf "append to CHILD (C = %d, K = %d)" c (Workload.Prng.int g 6);
        Printf.sprintf "range of c is CHILD delete c where c.C = %d" c;
      ]
  | 1 ->
      if Workload.Prng.bool g 0.5 then
        [ "unconstrain fk_cp"; publish_statement_fk ]
      else [ "unconstrain uq_kw"; "constrain unique CHILD (K, W) as uq_kw" ]
  | _ -> List.init (1 + Workload.Prng.int g 3) (fun _ -> publish_statement g)

(* Transactions that published their staged catalog and those that
   were re-applied, counted over one run of the test below: it must see
   both. Decided as the engine decides it: nothing committed since the
   snapshot, and the staged catalog exactly what the re-apply gives (no
   constraint statement ran, and every relation a statement changed
   has a change in the record). *)
let published_as_staged = ref 0
let reapplied = ref 0

exception Conflicting of string

(* The group-commit leader as it was before staged catalogs were
   published: every transaction is validated tuple-wise against what
   committed after its snapshot, then re-applied to the merged state,
   its constraint DDL verified and its cascades re-enforced. *)
let reapply_batch (cat, lsn, history) batch =
  let cat = ref cat and next = ref lsn and batch_hist = ref [] in
  let tuples x = Nullrel.Relation.tuples (Nullrel.Xrel.rep x) in
  let changes ops =
    List.filter_map
      (function Storage.Wal.Change c -> Some c | _ -> None)
      ops
  in
  let outcomes =
    List.map
      (fun (who, snap_lsn, ops, exact) ->
        if exact && snap_lsn = !next then incr published_as_staged
        else incr reapplied;
        let first_rel =
          match changes ops with c :: _ -> c.Storage.Wal.rel | [] -> "?"
        in
        let outcome =
          match
            List.iter
              (fun (c : Storage.Wal.change) ->
                let a = tuples c.added and d = tuples c.removed in
                let hits s l =
                  List.exists (fun t -> Nullrel.Tuple.Set.mem t s) l
                in
                List.iter
                  (fun (lsn', rel', added, removed) ->
                    if
                      String.equal rel' c.rel && lsn' > snap_lsn
                      && (hits d added || hits d removed || hits a removed)
                    then raise (Conflicting c.rel))
                  (!batch_hist @ history))
              (changes ops);
            let r = { Storage.Wal.lsn = !next + 1; ops } in
            let merged = Storage.Wal.apply ~verify_constraints:true !cat r in
            let seeds =
              List.map
                (fun (c : Storage.Wal.change) ->
                  {
                    Constr.d_rel = c.rel;
                    d_added = tuples c.added;
                    d_removed = tuples c.removed;
                  })
                (changes ops)
            in
            (match Storage.Catalog.enforce merged seeds with
            | _, [] -> ()
            | _, (extra, _) :: _ -> raise (Conflicting extra.Constr.d_rel));
            (r, merged)
          with
          | r, merged ->
              cat := merged;
              next := r.Storage.Wal.lsn;
              batch_hist :=
                List.map
                  (fun (c : Storage.Wal.change) ->
                    ( r.Storage.Wal.lsn,
                      c.rel,
                      Nullrel.Xrel.to_list c.added,
                      Nullrel.Xrel.to_list c.removed ))
                  (changes ops)
                @ !batch_hist;
              Ok r
          | exception Conflicting rel ->
              Error (Session.Session_error.Conflict { relation = rel })
          | exception (Storage.Catalog.Violation _ | Storage.Wal.Error _) ->
              Error (Session.Session_error.Conflict { relation = first_rel })
          | exception Constr.Error v ->
              Error (Session.Session_error.Constraint v)
        in
        (who, outcome))
      batch
  in
  ((!cat, !next, !batch_hist @ history), outcomes)

(* Everything but the relations: constraint declarations, the
   unverified list, and per relation its indexes' cardinalities and
   whether its statistics are still fresh. *)
let declarations cat =
  ( List.map Constr.def_to_line (Storage.Catalog.constraints cat),
    Storage.Catalog.unverified_constraints cat,
    List.map
      (fun rel ->
        ( List.map
            (fun (kind, attrs, n) ->
              (kind, List.map Nullrel.Attr.name (Nullrel.Attr.Set.elements attrs), n))
            (Storage.Catalog.indexes cat rel),
          match Storage.Catalog.stats_status cat rel with
          | Storage.Catalog.Fresh _ -> "fresh"
          | Storage.Catalog.Stale _ -> "stale"
          | Storage.Catalog.Missing -> "missing" ))
      (Storage.Catalog.names cat) )

type publish_step = Stage of int * string list | Submit of int | Flush

let publish_step_gen g n =
  match Workload.Prng.int g 6 with
  | 0 | 1 | 2 -> Stage (Workload.Prng.int g n, publish_statements g)
  | 3 | 4 -> Submit (Workload.Prng.int g n)
  | _ -> Flush

let staged_publish_equals_reapply =
  let name, speed, run =
    to_alcotest
      (QCheck.Test.make ~count:80 ~name:"staged publish = re-apply, in outcomes and bytes"
         (QCheck.int_bound 1_000_000)
         (fun seed ->
           let g = Workload.Prng.create seed in
           let dir = temp_dir "nullrel_props_publish" in
           let ref_dir = temp_dir "nullrel_props_publish_ref" in
           Fun.protect
             ~finally:(fun () ->
               rm_rf dir;
               rm_rf ref_dir)
           @@ fun () ->
           let io = Storage.Io.real in
           let cat0 = publish_catalog () in
           Storage.Persist.save ~io ~dir cat0;
           io.Storage.Io.mkdir ref_dir;
           let eng, _ = Session.open_engine ~io ~dir () in
           let n = 2 + Workload.Prng.int g 2 in
           let sessions = Array.init n (fun _ -> Session.attach eng) in
           (* Per session: the open transaction's snapshot, the
              relations it wrote, in first-touch order, and those a
              statement of it changed. *)
           let open_txn = Array.make n None in
           let inflight = Array.make n false in
           let queue = ref [] in
           let state = ref (cat0, (Session.engine_snapshot eng).Session.lsn, []) in
           let ok = ref true in
           let stage who stmts =
             if not inflight.(who) then begin
               let s = sessions.(who) in
               let touched, changed =
                 match open_txn.(who) with
                 | Some (_, touched, changed) -> (touched, changed)
                 | None ->
                     Session.begin_ s;
                     let touched = ref [] and changed = ref [] in
                     open_txn.(who) <- Some (Session.snapshot s, touched, changed);
                     (touched, changed)
               in
               let note l rel = if not (List.mem rel !l) then l := !l @ [ rel ] in
               List.iter
                 (fun stmt ->
                   match Session.exec_string s stmt with
                   | out ->
                       List.iter (note touched) out.Dml.touched;
                       List.iter
                         (fun (d : Constr.delta) -> note changed d.d_rel)
                         out.Dml.deltas
                   | exception
                       ( Storage.Catalog.Violation _ | Constr.Error _
                       | Nullrel.Exec_error.Error _ ) ->
                       ())
                 stmts
             end
           in
           let submit who =
             match open_txn.(who) with
             | None -> ()
             | Some ((snap : Session.snapshot), touched, changed) ->
                 let s = sessions.(who) in
                 let staged = (Session.snapshot s).Session.catalog in
                 let ops =
                   diff_ops snap.catalog staged !touched
                   @ Dml.constraint_ops snap.catalog staged
                 in
                 let exact =
                   Storage.Catalog.constraints staged
                   == Storage.Catalog.constraints snap.catalog
                   && List.length !changed
                      = List.length
                          (List.filter
                             (function Storage.Wal.Change _ -> true | _ -> false)
                             ops)
                 in
                 Session.submit s;
                 open_txn.(who) <- None;
                 if ops <> [] then begin
                   inflight.(who) <- true;
                   queue := !queue @ [ (who, snap.lsn, ops, exact) ]
                 end
           in
           let flush () =
             Session.flush eng;
             let state', outcomes = reapply_batch !state !queue in
             state := state';
             queue := [];
             List.iter
               (fun (who, expected) ->
                 inflight.(who) <- false;
                 let actual =
                   match Session.await sessions.(who) with
                   | lsn -> Ok lsn
                   | exception Session.Session_error.Error e -> Error e
                 in
                 match (expected, actual) with
                 | Ok r, Ok lsn when r.Storage.Wal.lsn = lsn ->
                     Storage.Wal.append ~io ~dir:ref_dir r
                 | Error e, Error e'
                   when String.equal
                          (Session.Session_error.to_string e)
                          (Session.Session_error.to_string e') ->
                     ()
                 | _ -> ok := false)
               outcomes
           in
           for _ = 1 to 4 + Workload.Prng.int g 10 do
             match publish_step_gen g n with
             | Stage (who, stmts) -> stage who stmts
             | Submit who -> submit who
             | Flush -> flush ()
           done;
           for who = 0 to n - 1 do
             submit who
           done;
           flush ();
           let final = Session.engine_snapshot eng in
           Session.shutdown eng;
           let cat, lsn, _ = !state in
           let bytes d =
             let path = Storage.Wal.file ~dir:d in
             if io.Storage.Io.file_exists path then io.Storage.Io.read_file path
             else ""
           in
           !ok && final.Session.lsn = lsn
           && Test_durability.catalogs_equal final.Session.catalog cat
           && declarations final.Session.catalog = declarations cat
           && String.equal (bytes dir) (bytes ref_dir)))
  in
  ( name,
    speed,
    fun () ->
      published_as_staged := 0;
      reapplied := 0;
      run ();
      if !published_as_staged = 0 || !reapplied = 0 then
        Alcotest.failf
          "a run must exercise both commit paths: %d transactions published \
           as staged, %d re-applied"
          !published_as_staged !reapplied )

let suite =
  List.map to_alcotest
    [
      isolation_and_durability;
      torn_everywhere;
      composed_records_equal_diff;
      cadence_survives_reopen;
    ]
  @ [ staged_publish_equals_reapply ]
