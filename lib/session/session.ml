open Nullrel
module String_map = Map.Make (String)

(* The library is wrapped under this module; re-export the taxonomy so
   clients reach it as [Session.Session_error]. *)
module Session_error = Session_error

type snapshot = { catalog : Storage.Catalog.t; lsn : int }

type config = {
  flush_window_s : float;
  max_queue : int;
  checkpoint_every : int;
  group : bool;
}

let default_config =
  { flush_window_s = 0.; max_queue = 64; checkpoint_every = 256; group = true }

(* ------------------------- metrics ---------------------------- *)

let m_commits =
  Obs.Metrics.counter ~help:"Session transactions committed"
    "nullrel_session_commits_total"

let m_flushes =
  Obs.Metrics.counter ~help:"Group-commit flushes led"
    "nullrel_session_flushes_total"

let h_commit_us =
  Obs.Metrics.histogram
    ~help:"Commit acknowledgement latency, microseconds"
    "nullrel_session_commit_us"

let g_queue =
  Obs.Metrics.gauge ~help:"Transactions waiting on the commit queue"
    "nullrel_session_queue_depth"

(* --------------------------- engine --------------------------- *)

type outcome_ = Committed of int | Rejected of Session_error.t

type pending = {
  ops : Storage.Wal.op list;
      (** The whole transaction — every relation change it staged,
          including cascade/set-null deltas its constraints fired, plus
          any constraint DDL. The leader numbers it as {e one} journal
          record, so the frame is the atomicity unit. *)
  snap_lsn : int;
  mutable outcome : outcome_ option;  (** Written by the leader (or
      poisoner) under the engine lock; read by the waiter likewise. *)
}

(* Bounded per-relation memory of recently committed deltas, newest
   first, for conflict validation. Only the current leader touches it
   (the [flushing] flag is a mutual exclusion for flush-side state).
   An entry is one block holding the delta's tuples as lists: a list
   cell costs less than a set node, and validation only asks whether
   each tuple is in the candidate's own sets. *)
type entries =
  | Nil
  | Entry of {
      lsn : int;  (** The commit's LSN. *)
      added : Tuple.t list;
      removed : Tuple.t list;
      older : entries;
    }

type hist = {
  mutable entries : entries;
  mutable len : int;
  mutable pruned_upto : int;
      (** Deltas with lsn <= this may have been forgotten: snapshots
          that old are conservatively conflicted. *)
}

let history_cap = 1024

type engine = {
  dir : string;
  io : Storage.Io.t;
  cfg : config;
  committed : snapshot Atomic.t;  (** The publication point. *)
  lock : Mutex.t;
  done_cond : Condition.t;
      (** Signalled whenever outcomes may have appeared: a flush
          finished, or the engine was poisoned. *)
  mutable queue : pending list;  (** Newest first; drained in FIFO. *)
  mutable queued : int;
  mutable flushing : bool;
  mutable dead : bool;
  history : (string, hist) Hashtbl.t;
  mutable dirty : int;  (** Journal records since the last checkpoint. *)
  mutable next_sid : int;
  (* Plain counters, all under [lock]: deterministic even when the Obs
     registry is disabled. *)
  mutable n_committed : int;
  mutable n_conflicts : int;
  mutable n_queue_full : int;
  mutable n_batches : int;
  mutable n_records : int;
  mutable n_max_batch : int;
}

type stats = {
  committed : int;
  conflicts : int;
  queue_full : int;
  batches : int;
  records : int;
  max_batch : int;
}

(* Registry of live engines, so sysview can enumerate them without
   threading an engine through every query path. Guarded by its own
   lock (never held together with an engine lock — registration and
   enumeration are cold paths). *)
let registry_lock = Mutex.create ()
let engines_ref : engine list ref = ref []

let list_engines () =
  Mutex.lock registry_lock;
  let es = !engines_ref in
  Mutex.unlock registry_lock;
  es

let engine_dir (eng : engine) = eng.dir

let open_engine ?(io = Storage.Io.retrying Storage.Io.real)
    ?(config = default_config) ~dir () =
  if config.max_queue < 1 then
    Exec_error.bad_input "Session.open_engine: max_queue must be >= 1";
  (* Only a damaged directory is rewritten. A clean one keeps its
     checkpoint and journal tail, and the engine appends after it. *)
  let report =
    if io.Storage.Io.file_exists dir then begin
      let report = Storage.Persist.load_report ~io ~dir () in
      if report.Storage.Persist.needs_repair then
        Storage.Persist.repair ~io ~dir report;
      report
    end
    else begin
      Storage.Persist.save ~io ~dir Storage.Catalog.empty;
      Storage.Persist.load_report ~io ~dir ()
    end
  in
  ( {
      dir;
      io;
      cfg = config;
      committed =
        Atomic.make
          {
            catalog = report.Storage.Persist.catalog;
            lsn = report.Storage.Persist.lsn;
          };
      lock = Mutex.create ();
      done_cond = Condition.create ();
      queue = [];
      queued = 0;
      flushing = false;
      dead = false;
      history = Hashtbl.create 16;
      (* The kept tail counts towards the next checkpoint, so
         [checkpoint_every] bounds the journal across reopens. *)
      dirty =
        (if report.Storage.Persist.needs_repair then 0
         else report.Storage.Persist.journal_records);
      next_sid = 1;
      n_committed = 0;
      n_conflicts = 0;
      n_queue_full = 0;
      n_batches = 0;
      n_records = 0;
      n_max_batch = 0;
    },
    report )
  |> fun (eng, report) ->
  Mutex.lock registry_lock;
  engines_ref := !engines_ref @ [ eng ];
  Mutex.unlock registry_lock;
  (eng, report)

let engine_snapshot (eng : engine) = Atomic.get eng.committed

let queue_depth eng =
  Mutex.lock eng.lock;
  let n = eng.queued in
  Mutex.unlock eng.lock;
  n

let alive eng =
  Mutex.lock eng.lock;
  let a = not eng.dead in
  Mutex.unlock eng.lock;
  a

let stats eng =
  Mutex.lock eng.lock;
  let s =
    {
      committed = eng.n_committed;
      conflicts = eng.n_conflicts;
      queue_full = eng.n_queue_full;
      batches = eng.n_batches;
      records = eng.n_records;
      max_batch = eng.n_max_batch;
    }
  in
  Mutex.unlock eng.lock;
  s

(* ------------------------ validation -------------------------- *)

exception Conflicting of string

let tuples_of x = Relation.tuples (Xrel.rep x)

(* The conflict rule against one committed delta: the candidate removes
   a tuple the delta touched, or adds one it removed. [d]/[a] are the
   candidate's removed/added tuples of the same relation. *)
let check_against ~rel ~a ~d ~added ~removed =
  let hits s l =
    (not (Tuple.Set.is_empty s)) && List.exists (fun t -> Tuple.Set.mem t s) l
  in
  if hits d added || hits d removed || hits a removed then
    raise (Conflicting rel)

(* Tuple-wise first-committer-wins over a transaction's relation
   changes. Constraint DDL carries no tuples; it is validated by the
   speculative verifying apply in {!flush_batch} instead. *)
let validate_tuplewise eng ~snap_lsn ~batch_hist ops =
  List.iter
    (function
      | Storage.Wal.Add_constraint _ | Storage.Wal.Drop_constraint _ -> ()
      | Storage.Wal.Change c ->
          let a = tuples_of c.Storage.Wal.added
          and d = tuples_of c.Storage.Wal.removed in
          let rel = c.Storage.Wal.rel in
          List.iter
            (fun (rel', added, removed) ->
              (* Everything accepted earlier in this batch commits after
                 any snapshot in it, so it always counts. *)
              if String.equal rel' rel then
                check_against ~rel ~a ~d ~added ~removed)
            !batch_hist;
          (match Hashtbl.find_opt eng.history rel with
          | None -> ()
          | Some h ->
              if snap_lsn < h.pruned_upto then raise (Conflicting rel);
              (* Newest first: the walk ends at the snapshot. *)
              let rec newer = function
                | Entry e when e.lsn > snap_lsn ->
                    check_against ~rel ~a ~d ~added:e.added ~removed:e.removed;
                    newer e.older
                | Entry _ | Nil -> ()
              in
              newer h.entries))
    ops

(* The newest [n] entries, and the LSN of the newest one left out. *)
let rec newest n = function
  | Entry e when n > 0 ->
      let older, dropped = newest (n - 1) e.older in
      (Entry { e with older }, dropped)
  | Entry e -> (Nil, Some e.lsn)
  | Nil -> (Nil, None)

let record_history eng rs =
  List.iter
    (fun (r : Storage.Wal.record) ->
      List.iter
        (function
          | Storage.Wal.Add_constraint _ | Storage.Wal.Drop_constraint _ -> ()
          | Storage.Wal.Change c ->
              let h =
                match Hashtbl.find_opt eng.history c.Storage.Wal.rel with
                | Some h -> h
                | None ->
                    let h = { entries = Nil; len = 0; pruned_upto = 0 } in
                    Hashtbl.add eng.history c.Storage.Wal.rel h;
                    h
              in
              h.entries <-
                Entry
                  {
                    lsn = r.lsn;
                    added = Xrel.to_list c.Storage.Wal.added;
                    removed = Xrel.to_list c.Storage.Wal.removed;
                    older = h.entries;
                  };
              h.len <- h.len + 1;
              if h.len > 2 * history_cap then begin
                (* Amortized prune: keep the newest [history_cap]. *)
                let kept, dropped = newest history_cap h.entries in
                (match dropped with
                | Some lsn -> h.pruned_upto <- lsn
                | None -> ());
                h.entries <- kept;
                h.len <- history_cap
              end)
        r.ops)
    rs

(* -------------------------- flushing -------------------------- *)

let poison eng batch e bt =
  Mutex.lock eng.lock;
  eng.dead <- true;
  let fail p =
    match p.outcome with
    | Some _ -> ()
    | None -> p.outcome <- Some (Rejected Session_error.Shutdown)
  in
  List.iter fail batch;
  List.iter fail eng.queue;
  eng.queue <- [];
  eng.queued <- 0;
  Obs.Metrics.set_gauge g_queue 0.;
  Condition.broadcast eng.done_cond;
  Mutex.unlock eng.lock;
  Printexc.raise_with_backtrace e bt

(* Validate and commit one drained batch. Runs on exactly one domain at
   a time (the leader); any exception poisons the engine — durable
   state is unknowable past a half-done flush, and recovery on re-open
   is the only sound continuation. *)
let flush_batch (eng : engine) batch =
  try
    let snap = Atomic.get eng.committed in
    let next_lsn = ref snap.lsn in
    let scratch = ref snap.catalog in
    let batch_hist = ref [] in
    let records = ref [] in
    let accepted = ref [] in
    let conflicts = ref 0 in
    let first_rel ops =
      match
        List.filter_map
          (function
            | Storage.Wal.Change c -> Some c.Storage.Wal.rel | _ -> None)
          ops
      with
      | rel :: _ -> rel
      | [] -> "?"
    in
    List.iter
      (fun p ->
        match
          validate_tuplewise eng ~snap_lsn:p.snap_lsn ~batch_hist p.ops;
          (* Replay onto the current state speculatively: a schema
             violation from merging with a concurrent commit (e.g. a
             key collision of two independent appends) is a conflict
             too, caught here rather than crashing the publish. The
             apply also re-verifies any constraint DDL against the
             merged state, and the transaction's staged cascade closure
             is re-enforced: if the merged state demands {e more}
             cascade work than the snapshot did (a concurrent insert of
             a reference, say), the closure is stale and the
             transaction conflicts rather than committing a broken
             constraint. *)
          (let cat_before = !scratch and lsn_before = !next_lsn in
           match
             incr next_lsn;
             let r = { Storage.Wal.lsn = !next_lsn; ops = p.ops } in
             scratch := Storage.Wal.apply ~verify_constraints:true !scratch r;
             let seeds =
               List.filter_map
                 (function
                   | Storage.Wal.Change c ->
                       Some
                         {
                           Constr.d_rel = c.Storage.Wal.rel;
                           d_added = tuples_of c.Storage.Wal.added;
                           d_removed = tuples_of c.Storage.Wal.removed;
                         }
                   | Storage.Wal.Add_constraint _
                   | Storage.Wal.Drop_constraint _ ->
                       None)
                 p.ops
             in
             (match Storage.Catalog.enforce !scratch seeds with
             | [] -> ()
             | extra :: _ -> raise (Conflicting extra.Constr.d_rel));
             r
           with
           | r -> r
           | exception e ->
               scratch := cat_before;
               next_lsn := lsn_before;
               (match e with
               | Storage.Catalog.Violation _ | Storage.Wal.Error _ ->
                   raise (Conflicting (first_rel p.ops))
               | e -> raise e))
        with
        | r ->
            List.iter
              (function
                | Storage.Wal.Add_constraint _ | Storage.Wal.Drop_constraint _
                  ->
                    ()
                | Storage.Wal.Change c ->
                    batch_hist :=
                      ( c.Storage.Wal.rel,
                        Xrel.to_list c.Storage.Wal.added,
                        Xrel.to_list c.Storage.Wal.removed )
                      :: !batch_hist)
              r.Storage.Wal.ops;
            records := r :: !records;
            accepted := (p, !next_lsn) :: !accepted
        | exception Conflicting rel ->
            incr conflicts;
            p.outcome <-
              Some (Rejected (Session_error.Conflict { relation = rel }))
        | exception Constr.Error v ->
            incr conflicts;
            p.outcome <- Some (Rejected (Session_error.Constraint v)))
      batch;
    let rs = List.rev !records in
    if rs <> [] then begin
      eng.io.Storage.Io.note "group-commit:validated";
      if eng.cfg.group then Storage.Wal.append_batch ~io:eng.io ~dir:eng.dir rs
      else
        (* The degraded baseline: one fsync per record. *)
        List.iter (fun r -> Storage.Wal.append ~io:eng.io ~dir:eng.dir r) rs;
      eng.io.Storage.Io.note "group-commit:fsynced";
      (* Durability happens-before visibility: the snapshot swap sits
         strictly after the journal fsync, so no reader can observe
         state a crash could retract. *)
      Atomic.set eng.committed { catalog = !scratch; lsn = !next_lsn };
      eng.io.Storage.Io.note "group-commit:published";
      record_history eng rs
    end;
    let n_rs = List.length rs in
    Mutex.lock eng.lock;
    List.iter (fun (p, lsn) -> p.outcome <- Some (Committed lsn)) !accepted;
    eng.n_committed <- eng.n_committed + List.length !accepted;
    eng.n_conflicts <- eng.n_conflicts + !conflicts;
    if n_rs > 0 then begin
      eng.n_batches <- eng.n_batches + 1;
      eng.n_records <- eng.n_records + n_rs;
      eng.n_max_batch <- max eng.n_max_batch n_rs;
      eng.dirty <- eng.dirty + n_rs
    end;
    Obs.Metrics.add m_commits (List.length !accepted);
    let due =
      eng.cfg.checkpoint_every > 0 && eng.dirty >= eng.cfg.checkpoint_every
    in
    if due then eng.dirty <- 0;
    Mutex.unlock eng.lock;
    if due then begin
      Storage.Persist.save ~io:eng.io ~lsn:!next_lsn ~dir:eng.dir !scratch;
      Storage.Wal.reset ~io:eng.io ~dir:eng.dir;
      eng.io.Storage.Io.note "group-commit:checkpointed"
    end
  with e -> poison eng batch e (Printexc.get_raw_backtrace ())

(* Run one flush as leader. The caller set [eng.flushing] under the
   lock; we clear it and wake waiters no matter how the flush ends. *)
let lead eng =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock eng.lock;
      eng.flushing <- false;
      Condition.broadcast eng.done_cond;
      Mutex.unlock eng.lock)
    (fun () ->
      if eng.cfg.flush_window_s > 0. then
        (try Unix.sleepf eng.cfg.flush_window_s
         with Unix.Unix_error _ -> ());
      Mutex.lock eng.lock;
      let batch = List.rev eng.queue in
      eng.queue <- [];
      eng.queued <- 0;
      Obs.Metrics.set_gauge g_queue 0.;
      Mutex.unlock eng.lock;
      if batch <> [] then begin
        Obs.Metrics.inc m_flushes;
        flush_batch eng batch
      end)

(* Lead with the engine lock held on entry and on exit (released while
   actually flushing). *)
let lead_locked eng =
  eng.flushing <- true;
  Mutex.unlock eng.lock;
  Fun.protect ~finally:(fun () -> Mutex.lock eng.lock) (fun () -> lead eng)

let flush eng =
  Mutex.lock eng.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock eng.lock)
    (fun () ->
      let rec go () =
        if eng.dead then ()
        else if eng.flushing then begin
          Condition.wait eng.done_cond eng.lock;
          go ()
        end
        else if eng.queue = [] then ()
        else begin
          lead_locked eng;
          go ()
        end
      in
      go ())

let shutdown eng =
  flush eng;
  Mutex.lock eng.lock;
  if not eng.dead then begin
    eng.dead <- true;
    (* Submissions that raced past the final flush: fail, don't strand. *)
    List.iter
      (fun p -> p.outcome <- Some (Rejected Session_error.Shutdown))
      eng.queue;
    eng.queue <- [];
    eng.queued <- 0;
    Condition.broadcast eng.done_cond
  end;
  Mutex.unlock eng.lock;
  Mutex.lock registry_lock;
  engines_ref := List.filter (fun e -> e != eng) !engines_ref;
  Mutex.unlock registry_lock

(* -------------------------- sessions -------------------------- *)

(* Composes the next applied delta [d] of a relation onto [net], its
   net change since the snapshot ([None] before the first). [d]
   removes, then adds; a tuple in both (a replace that maps it onto
   itself) did not change and drops out first. What is left removes
   only live tuples and adds only absent ones, so with (A, R) = [net]
   and (a, r) = [d]: added = (A∖r) ∪ (a∖R), removed = (R∖a) ∪ (r∖A). *)
let compose net (d : Constr.delta) =
  let a = Tuple.Set.diff d.d_added d.d_removed
  and r = Tuple.Set.diff d.d_removed d.d_added in
  match net with
  | None -> { d with d_added = a; d_removed = r }
  | Some (net : Constr.delta) ->
      {
        net with
        d_added =
          Tuple.Set.union (Tuple.Set.diff net.d_added r) (Tuple.Set.diff a net.d_removed);
        d_removed =
          Tuple.Set.union (Tuple.Set.diff net.d_removed a) (Tuple.Set.diff r net.d_added);
      }

type txn = {
  base : snapshot;
  mutable cat : Storage.Catalog.t;
  mutable writes : string list;  (** Relations touched, newest first. *)
  mutable net : Constr.delta String_map.t;
      (** Per relation, the staged statements' deltas composed into one
          net delta against [base]. *)
}

type t = {
  sid : int;
  eng : engine;
  deadline_s : float option;
  max_tuples : int option;
  semantics : Semantics.t;
      (** Resolved at attach time (ambient default), so the dialect a
          session answers under is a fixed, reportable property. *)
  mutable txn : txn option;
  mutable inflight : pending option;
}

(* Weak tracking of attached sessions, for sysview's sys_sessions. A
   weak singleton per session: enumeration never keeps a session alive,
   and dead entries are pruned on the next attach. *)
let sessions_lock = Mutex.create ()
let session_refs : t Weak.t list ref = ref []

let attach ?deadline_s ?max_tuples ?semantics eng =
  Mutex.lock eng.lock;
  let sid = eng.next_sid in
  eng.next_sid <- sid + 1;
  Mutex.unlock eng.lock;
  let semantics =
    match semantics with Some sem -> sem | None -> Semantics.current ()
  in
  let sess =
    { sid; eng; deadline_s; max_tuples; semantics; txn = None; inflight = None }
  in
  let w = Weak.create 1 in
  Weak.set w 0 (Some sess);
  Mutex.lock sessions_lock;
  session_refs :=
    w :: List.filter (fun w -> Weak.check w 0) !session_refs;
  Mutex.unlock sessions_lock;
  sess

type session_state = Idle | Open | Submitted

type session_info = {
  si_sid : int;
  si_state : session_state;
  si_snap_lsn : int option;
      (** The pinned snapshot LSN — [None] when idle (no pinned view:
          reads track the moving committed snapshot). *)
  si_staged : int option;
      (** Relations staged so far — [None] once submitted: the
          transaction is in flight and its fate (and final shape) is
          unknown until the flush decides. *)
  si_deadline_s : float option;
  si_max_tuples : int option;
  si_semantics : string;  (** {!Nullrel.Semantics.to_string} of the dialect. *)
}

(* A racy-but-sound enumeration: each field is read once (word-sized
   loads never tear in OCaml), so a row describes a state the session
   actually was in at some recent moment. *)
let sessions_info eng =
  Mutex.lock sessions_lock;
  let refs = !session_refs in
  Mutex.unlock sessions_lock;
  List.filter_map
    (fun w ->
      match Weak.get w 0 with
      | Some s when s.eng == eng ->
          let inflight = s.inflight and txn = s.txn in
          let state, snap_lsn, staged =
            match (inflight, txn) with
            | Some p, _ -> (Submitted, Some p.snap_lsn, None)
            | None, Some t -> (Open, Some t.base.lsn, Some (List.length t.writes))
            | None, None -> (Idle, None, Some 0)
          in
          Some
            {
              si_sid = s.sid;
              si_state = state;
              si_snap_lsn = snap_lsn;
              si_staged = staged;
              si_deadline_s = s.deadline_s;
              si_max_tuples = s.max_tuples;
              si_semantics = Semantics.to_string s.semantics.Semantics.dialect;
            }
      | _ -> None)
    refs
  |> List.sort (fun a b -> compare a.si_sid b.si_sid)

let id sess = sess.sid
let engine sess = sess.eng
let semantics sess = sess.semantics
let in_txn sess = sess.txn <> None

let snapshot sess =
  match sess.txn with
  | Some t -> { catalog = t.cat; lsn = t.base.lsn }
  | None -> Atomic.get sess.eng.committed

let require_idle sess =
  if sess.inflight <> None then
    Exec_error.bad_input
      "transaction already submitted; await its outcome first"

let fresh_txn sess =
  let base = Atomic.get sess.eng.committed in
  { base; cat = base.catalog; writes = []; net = String_map.empty }

let begin_ sess =
  require_idle sess;
  match sess.txn with
  | Some _ -> Exec_error.bad_input "a transaction is already open"
  | None -> sess.txn <- Some (fresh_txn sess)

let governed sess f =
  (* The session's dialect rides the same ambient discipline as the
     governor: installed around each statement, restored on the way
     out, so concurrent sessions on one domain cannot leak dialects
     into each other. *)
  let f () = Semantics.with_semantics sess.semantics f in
  match (sess.deadline_s, sess.max_tuples) with
  | None, None -> f ()
  | deadline_s, max_tuples ->
      Exec.with_governor (Exec.make ?deadline_s ?max_tuples ()) f

let exec sess stmt =
  require_idle sess;
  if Dml.is_read stmt then
    (* A read: run against the session's view, stage nothing. *)
    governed sess (fun () -> Dml.exec (snapshot sess).catalog stmt)
  else begin
    (* An update: pin the snapshot *first*, then stage against that
       same catalog value. Reading the committed cell once is what
       makes [ops_of_txn] sound — a second load could observe a
       concurrent publish and manufacture phantom removals. *)
    let created = sess.txn = None in
    let t =
      match sess.txn with
      | Some t -> t
      | None ->
          let t = fresh_txn sess in
          sess.txn <- Some t;
          t
    in
    match governed sess (fun () -> Dml.exec t.cat stmt) with
    | out ->
        t.cat <- out.Dml.catalog;
        List.iter
          (fun rel ->
            if not (List.exists (String.equal rel) t.writes) then
              t.writes <- rel :: t.writes)
          out.Dml.touched;
        t.net <-
          List.fold_left
            (fun net (d : Constr.delta) ->
              String_map.update d.d_rel (fun prev -> Some (compose prev d)) net)
            t.net out.Dml.deltas;
        out
    | exception e ->
        (* A failed statement leaves the staged txn as it was — and
           if this statement was the one opening it, no txn at all. *)
        if created then sess.txn <- None;
        raise e
  end

let exec_string sess src = exec sess (Quel.Parser.parse_statement src)
let rollback sess = sess.txn <- None

(* The transaction's journal record: each touched relation's composed
   net delta in first-touch order, then the constraint DDL. Bounded by
   the transaction's deltas, never by the relations they touch. *)
let ops_of_txn t =
  Dml.ops_of_deltas
    (List.filter_map (fun rel -> String_map.find_opt rel t.net) (List.rev t.writes))
  @ Dml.constraint_ops t.base.catalog t.cat

let submit sess =
  require_idle sess;
  match sess.txn with
  | None -> ()
  | Some t -> (
      match ops_of_txn t with
      | [] -> sess.txn <- None
      | ops ->
          let p = { ops; snap_lsn = t.base.lsn; outcome = None } in
          Mutex.lock sess.eng.lock;
          if sess.eng.dead then begin
            Mutex.unlock sess.eng.lock;
            sess.txn <- None;
            Session_error.shutdown ()
          end
          else if sess.eng.queued >= sess.eng.cfg.max_queue then begin
            sess.eng.n_queue_full <- sess.eng.n_queue_full + 1;
            Mutex.unlock sess.eng.lock;
            (* The transaction stays staged: commit again to retry. *)
            Session_error.queue_full ~limit:sess.eng.cfg.max_queue
          end
          else begin
            sess.eng.queue <- p :: sess.eng.queue;
            sess.eng.queued <- sess.eng.queued + 1;
            Obs.Metrics.set_gauge g_queue (float_of_int sess.eng.queued);
            Mutex.unlock sess.eng.lock;
            sess.txn <- None;
            sess.inflight <- Some p
          end)

let await_pending eng p =
  Mutex.lock eng.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock eng.lock)
    (fun () ->
      let rec go () =
        match p.outcome with
        | Some o -> o
        | None ->
            if eng.dead then Rejected Session_error.Shutdown
            else if not eng.flushing then begin
              lead_locked eng;
              go ()
            end
            else begin
              Condition.wait eng.done_cond eng.lock;
              go ()
            end
      in
      go ())

let await sess =
  match sess.inflight with
  | None -> (Atomic.get sess.eng.committed).lsn
  | Some p -> (
      sess.inflight <- None;
      match await_pending sess.eng p with
      | Committed lsn -> lsn
      | Rejected e -> Session_error.raise_ e)

let commit sess =
  let t0 = Exec.monotonic_now () in
  submit sess;
  let lsn = await sess in
  if Obs.Metrics.is_enabled () then
    Obs.Metrics.observe h_commit_us
      (int_of_float ((Exec.monotonic_now () -. t0) *. 1e6));
  lsn

(* --------------------- drills and demos ----------------------- *)

module Drive = struct
  let attr = Attr.make
  let no_tuples = Xrel.of_tuples Tuple.Set.empty

  let events_schema =
    Schema.make "EVENTS" [ ("SID", Domain.Ints); ("SEQ", Domain.Ints) ]

  let counter_schema =
    Schema.make "COUNTER" [ ("C", Domain.Ints); ("N", Domain.Ints) ]

  let seed ?(io = Storage.Io.real) ~dir () =
    let have =
      io.Storage.Io.file_exists dir
      &&
      let report = Storage.Persist.load_report ~io ~dir () in
      Storage.Catalog.mem report.Storage.Persist.catalog "EVENTS"
      && Storage.Catalog.mem report.Storage.Persist.catalog "COUNTER"
    in
    if not have then begin
      let cat = Storage.Catalog.empty in
      let cat = Storage.Catalog.add cat events_schema no_tuples in
      let cat = Storage.Catalog.add cat counter_schema no_tuples in
      Storage.Persist.save ~io ~dir cat
    end

  let append_event ~sid ~seq =
    Printf.sprintf "append to EVENTS (SID = %d, SEQ = %d)" sid seq

  let replace_counter ~tag =
    Printf.sprintf "range of c is COUNTER replace c (N = %d) where c.C = 0" tag

  let init_counter = "append to COUNTER (C = 0, N = 0)"

  let events_cardinal cat =
    match Storage.Catalog.find cat "EVENTS" with
    | None -> 0
    | Some (_, x) -> Xrel.cardinal x

  let has_event cat ~sid ~seq =
    match Storage.Catalog.find cat "EVENTS" with
    | None -> false
    | Some (_, x) ->
        Tuple.Set.exists
          (fun t ->
            Value.equal (Tuple.get t (attr "SID")) (Value.Int sid)
            && Value.equal (Tuple.get t (attr "SEQ")) (Value.Int seq))
          (tuples_of x)

  let counter_value cat =
    match Storage.Catalog.find cat "COUNTER" with
    | None -> None
    | Some (_, x) -> (
        match Tuple.Set.choose_opt (tuples_of x) with
        | None -> None
        | Some t -> (
            match Tuple.get t (attr "N") with
            | Value.Int n -> Some n
            | _ -> None))

  type report = {
    sessions : int;
    txns_per_session : int;
    committed : int;
    conflicts : int;
    queue_full_retries : int;
    events : int;
    engine_stats : stats;
    elapsed_s : float;
    latencies_s : float array;
  }

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.
    else begin
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))
    end

  let contention eng ~sessions ~txns ?(conflict_every = 4) () =
    if sessions < 1 || txns < 1 then
      Exec_error.bad_input "Drive.contention: sessions and txns must be >= 1";
    (* Make sure COUNTER has its single hotspot row. *)
    let setup = attach eng in
    if counter_value (engine_snapshot eng).catalog = None then begin
      ignore (exec_string setup init_counter);
      ignore (commit setup)
    end;
    let committed = Array.make sessions 0 in
    let conflicts = Array.make sessions 0 in
    let retries = Array.make sessions 0 in
    let latencies = Array.make_matrix sessions txns nan in
    let t_start = Exec.monotonic_now () in
    (* One chunk per session: the pool provides the concurrency (and
       with NULLREL_DOMAINS=1 degrades to a sequential, deterministic
       run — every commit then leads its own batch of one). *)
    Par.Pool.run ~chunks:sessions (fun k ->
        let sess = attach eng in
        for j = 1 to txns do
          ignore (exec_string sess (append_event ~sid:(k + 1) ~seq:j));
          if conflict_every > 0 && j mod conflict_every = 0 then
            ignore
              (exec_string sess
                 (replace_counter ~tag:(((k + 1) * 1_000_000) + j)));
          let t0 = Exec.monotonic_now () in
          let rec try_commit budget =
            match commit sess with
            | _lsn ->
                committed.(k) <- committed.(k) + 1;
                latencies.(k).(j - 1) <- Exec.monotonic_now () -. t0
            | exception Session_error.Error (Session_error.Conflict _) ->
                conflicts.(k) <- conflicts.(k) + 1
            | exception Session_error.Error (Session_error.Queue_full _)
              when budget > 0 ->
                retries.(k) <- retries.(k) + 1;
                (* The txn is still staged; help drain, then retry. *)
                flush eng;
                try_commit (budget - 1)
            | exception Session_error.Error _ ->
                rollback sess;
                conflicts.(k) <- conflicts.(k) + 1
          in
          try_commit 100
        done);
    let elapsed_s = Exec.monotonic_now () -. t_start in
    let lats =
      Array.to_list latencies |> Array.concat
      |> Array.to_seq
      |> Seq.filter (fun x -> not (Float.is_nan x))
      |> Array.of_seq
    in
    Array.sort compare lats;
    {
      sessions;
      txns_per_session = txns;
      committed = Array.fold_left ( + ) 0 committed;
      conflicts = Array.fold_left ( + ) 0 conflicts;
      queue_full_retries = Array.fold_left ( + ) 0 retries;
      events = events_cardinal (engine_snapshot eng).catalog;
      engine_stats = stats eng;
      elapsed_s;
      latencies_s = lats;
    }

  (* ----------------------- crash drills ----------------------- *)

  type drill = {
    trials : int;
    crashes : int;
    lost : int;
    resurrected : int;
    torn_tails : int;
    clean_second_replays : int;
  }

  (* An io that tears the next journal append in half once the leader
     announces it has validated a batch — the "crash inside the group
     fsync" arm of the matrix. *)
  let tearing base =
    let armed = ref false in
    {
      base with
      Storage.Io.note =
        (fun p ->
          base.Storage.Io.note p;
          if String.equal p "group-commit:validated" then armed := true);
      append_file =
        (fun path contents ->
          if !armed then begin
            armed := false;
            base.Storage.Io.append_file path
              (String.sub contents 0 (String.length contents / 2));
            raise
              (Storage.Io.Injected_fault
                 "crash midway through the group append")
          end
          else base.Storage.Io.append_file path contents);
    }

  let crash_io mode base =
    match mode with
    | `Before_fsync -> Storage.Io.crash_at ~point:"group-commit:validated" base
    | `Inside_fsync -> tearing base
    | `After_fsync -> Storage.Io.crash_at ~point:"group-commit:fsynced" base

  (* One seeded trial. Returns (crashed, lost, resurrected, torn,
     clean_second_replay). *)
  let trial ~dir ~mode ~trial_seed:n =
    let io = Storage.Io.real in
    let dir = Filename.concat dir (Printf.sprintf "trial-%d" n) in
    seed ~io ~dir ();
    (* Phase 1: acknowledged history, plus one deliberately aborted
       transaction whose effects must never reappear. *)
    let eng, _ = open_engine ~io ~dir () in
    let acked = ref [] in
    let s1 = attach eng in
    for j = 1 to 2 + (n mod 2) do
      ignore (exec_string s1 (append_event ~sid:1 ~seq:j));
      ignore (commit s1);
      acked := (1, j) :: !acked
    done;
    ignore (exec_string s1 init_counter);
    ignore (commit s1);
    (* sA and sB race on COUNTER: sA's commit aborts sB. *)
    let sa = attach eng in
    let sb = attach eng in
    ignore (exec_string sa (append_event ~sid:2 ~seq:n));
    ignore (exec_string sa (replace_counter ~tag:(1000 + n)));
    ignore (exec_string sb (append_event ~sid:3 ~seq:n));
    ignore (exec_string sb (replace_counter ~tag:(2000 + n)));
    ignore (commit sa);
    acked := (2, n) :: !acked;
    let aborted_event = (3, n) in
    (match commit sb with
    | _ ->
        Exec_error.bad_input
          "crash drill: sB's commit was expected to conflict with sA's"
    | exception Session_error.Error (Session_error.Conflict _) -> ());
    shutdown eng;
    (* Phase 2: stage a multi-transaction group batch and crash. *)
    let eng2, _ = open_engine ~io:(crash_io mode io) ~dir () in
    let staged = 1 + (n mod 3) in
    let victims = List.init staged (fun _ -> attach eng2) in
    List.iteri
      (fun i v -> ignore (exec_string v (append_event ~sid:(10 + i) ~seq:n)))
      victims;
    List.iter (fun v -> submit v) victims;
    let crashed =
      match flush eng2 with
      | () -> false
      | exception Storage.Io.Injected_fault _ -> true
    in
    (* Phase 3: recover and audit. *)
    let report = Storage.Persist.recover ~io ~dir () in
    let cat = report.Storage.Persist.catalog in
    let torn = report.Storage.Persist.journal_note <> None in
    let lost =
      List.exists (fun (sid, seq) -> not (has_event cat ~sid ~seq)) !acked
      || counter_value cat <> Some (1000 + n)
    in
    let resurrected =
      (let sid, sq = aborted_event in
       has_event cat ~sid ~seq:sq)
      || counter_value cat = Some (2000 + n)
    in
    (* A second recovery must find nothing left to do. *)
    let again = Storage.Persist.load_report ~io ~dir () in
    let clean =
      again.Storage.Persist.journal_note = None
      && List.for_all
           (fun (_, st) -> st = Storage.Persist.Ok)
           again.Storage.Persist.statuses
      && events_cardinal again.Storage.Persist.catalog = events_cardinal cat
    in
    (crashed, lost, resurrected, torn, clean)

  let crash_matrix ~dir ~trials ~mode () =
    (* Trials live in subdirectories; make sure the root exists. *)
    let io = Storage.Io.real in
    if not (io.Storage.Io.file_exists dir) then io.Storage.Io.mkdir dir;
    let count b = if b then 1 else 0 in
    let acc =
      ref
        {
          trials;
          crashes = 0;
          lost = 0;
          resurrected = 0;
          torn_tails = 0;
          clean_second_replays = 0;
        }
    in
    for n = 1 to trials do
      let crashed, lost, resurrected, torn, clean =
        trial ~dir ~mode ~trial_seed:n
      in
      let d = !acc in
      acc :=
        {
          d with
          crashes = d.crashes + count crashed;
          lost = d.lost + count lost;
          resurrected = d.resurrected + count resurrected;
          torn_tails = d.torn_tails + count torn;
          clean_second_replays = d.clean_second_replays + count clean;
        }
    done;
    !acc

  (* ------------------------- the demo -------------------------- *)

  let demo ~dir () =
    let lines = ref [] in
    let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
    seed ~dir ();
    let eng, _ = open_engine ~dir () in
    let a = attach eng and b = attach eng in
    ignore (exec_string a init_counter);
    ignore (commit a);
    say "two sessions attached; COUNTER seeded with its single row";
    (* Overlapping snapshots: both stage a replace of the same row. *)
    ignore (exec_string a (append_event ~sid:1 ~seq:1));
    ignore (exec_string a (replace_counter ~tag:101));
    ignore (exec_string b (append_event ~sid:2 ~seq:1));
    ignore (exec_string b (replace_counter ~tag:202));
    say "A staged: SID=1 event + COUNTER := 101 (snapshot lsn %d)"
      (snapshot a).lsn;
    say "B staged: SID=2 event + COUNTER := 202 (snapshot lsn %d)"
      (snapshot b).lsn;
    say "engine sees neither yet: EVENTS has %d rows, COUNTER = %d"
      (events_cardinal (engine_snapshot eng).catalog)
      (Option.value ~default:(-1)
         (counter_value (engine_snapshot eng).catalog));
    submit a;
    submit b;
    say "both submitted (queue depth %d); flushing one group batch"
      (queue_depth eng);
    flush eng;
    let show_await name s =
      match await s with
      | lsn -> say "%s committed at lsn %d" name lsn
      | exception Session_error.Error e ->
          say "%s aborted: %s" name (Session_error.to_string e)
    in
    show_await "A" a;
    show_await "B" b;
    say "COUNTER is now %d; EVENTS has %d rows (B's append died with it)"
      (Option.value ~default:(-1)
         (counter_value (engine_snapshot eng).catalog))
      (events_cardinal (engine_snapshot eng).catalog);
    (* B retries against a fresh snapshot and gets through. *)
    ignore (exec_string b (append_event ~sid:2 ~seq:1));
    ignore (exec_string b (replace_counter ~tag:202));
    ignore (commit b);
    say "B retried on a fresh snapshot: COUNTER = %d, EVENTS has %d rows"
      (Option.value ~default:(-1)
         (counter_value (engine_snapshot eng).catalog))
      (events_cardinal (engine_snapshot eng).catalog);
    let s = stats eng in
    say
      "engine stats: %d committed, %d conflicted, %d batches, largest \
       batch %d records"
      s.committed s.conflicts s.batches s.max_batch;
    shutdown eng;
    List.rev !lines
end
