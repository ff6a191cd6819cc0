(** Concurrent sessions over one durable catalog: snapshot isolation
    with optimistic validation, and group commit.

    The design leans entirely on the functional catalog
    ({!Storage.Catalog}): a {e snapshot} is nothing but a catalog value
    paired with the journal position it reflects, published through one
    [Atomic.t] cell. Readers load the cell — no lock, no copy, no
    coordination with writers — and keep a perfectly consistent view
    for as long as they hold the value. Writers stage DML against their
    snapshot (ordinary {!Dml.exec}, producing a new catalog value
    nobody else can see), and at commit funnel through a single
    {e leader}: whichever session finds no flush in progress drains the
    commit queue, validates each transaction, appends every accepted
    transaction's journal records in {e one} fsync
    ({!Storage.Wal.append_batch}), and only after that fsync returns
    publishes the new snapshot. Durability therefore happens-before
    visibility: no session can ever read state that a crash could
    retract.

    {b Conflict rule} (first committer wins, checked tuple-wise against
    every transaction committed after the candidate's snapshot): a
    transaction T conflicts with an earlier-committed U iff
    [removed(T) ∩ (added(U) ∪ removed(U)) ≠ ∅] or
    [added(T) ∩ removed(U) ≠ ∅] on some relation. Two transactions
    that merely append tuples — even to the same relation — commute
    under the paper's union semantics and both commit; deletions and
    replacements of overlapping tuples abort the later committer with
    {!Session_error.Conflict}. Validation additionally replays the
    candidate onto the current state, so a merge that would violate the
    target schema (e.g. a key collision between two appends) is also a
    conflict, never a crash. The engine keeps a bounded per-relation
    history of recently committed deltas; a transaction whose snapshot
    predates the retained window is conservatively aborted.

    A fault thrown inside the commit path (an {!Storage.Io} injection,
    a real filesystem error) leaves durable state unknowable, so it
    {e poisons} the engine: every queued transaction fails with
    {!Session_error.Shutdown}, the exception propagates to the leader's
    caller, and a fresh {!open_engine} runs recovery — exactly the
    crash-restart cycle the drills in {!Drive.crash_matrix} exercise. *)

module Session_error = Session_error
(** Re-exported: the library is wrapped under this module. *)

type snapshot = {
  catalog : Storage.Catalog.t;
  lsn : int;  (** The journal position this catalog reflects. *)
}

type config = {
  flush_window_s : float;
      (** How long a leader waits before draining the queue, letting
          concurrent commits pile into its batch. [0.] (the default)
          flushes immediately — batches then form only from commits
          that arrive while a flush is already running. *)
  max_queue : int;
      (** Admission control: submissions beyond this many queued
          transactions fail with {!Session_error.Queue_full}. *)
  checkpoint_every : int;
      (** Cut a checkpoint ({!Storage.Persist.save} + journal reset)
          after this many journal records; [0] never checkpoints. *)
  group : bool;
      (** [false] degrades the committer to one fsync per transaction
          (same queue, same validation) — the baseline the group-commit
          benchmark compares against. *)
}

val default_config : config
(** [{ flush_window_s = 0.; max_queue = 64; checkpoint_every = 256;
      group = true }] *)

(** {1 The engine} *)

type engine

val open_engine :
  ?io:Storage.Io.t ->
  ?config:config ->
  dir:string ->
  unit ->
  engine * Storage.Persist.report
(** Opens the directory with full recovery first
    ({!Storage.Persist.recover}; an empty durable catalog if the
    directory does not exist). The engine is the only journal writer:
    every durable update, the CLI's [dml] included, commits through
    it. The default [io] is [Storage.Io.retrying Storage.Io.real]. *)

val engine_snapshot : engine -> snapshot
(** The latest committed snapshot — a lock-free atomic load. *)

val queue_depth : engine -> int
val alive : engine -> bool

type stats = {
  committed : int;  (** Transactions committed. *)
  conflicts : int;  (** Transactions aborted by validation. *)
  queue_full : int;  (** Submissions refused by admission control. *)
  batches : int;  (** Group flushes that appended at least one record. *)
  records : int;  (** Journal records appended. *)
  max_batch : int;  (** Most records ever fsynced in one batch. *)
}

val stats : engine -> stats

val list_engines : unit -> engine list
(** Every engine opened and not yet shut down, in open order — the
    enumeration sysview uses to materialize [sys_sessions] without an
    engine being threaded through the query path. *)

val engine_dir : engine -> string
(** The durable directory this engine serves. *)

val flush : engine -> unit
(** Drains the commit queue now (leading as many flushes as needed),
    returning once it is empty or the engine is dead. *)

val shutdown : engine -> unit
(** {!flush}, then refuse all further work. Queued transactions that
    raced past the final flush fail with {!Session_error.Shutdown}.
    Idempotent. The directory is left consistent (journal intact);
    re-open to resume. *)

(** {1 Sessions} *)

type t

val attach :
  ?deadline_s:float -> ?max_tuples:int -> ?semantics:Nullrel.Semantics.t ->
  engine -> t
(** A new session. The optional limits build a fresh per-statement
    {!Nullrel.Exec} governor around every {!exec} — each session is
    governed independently, on whatever domain it runs (the ambient
    governor slot is domain-local). [semantics] fixes the dialect this
    session's [retrieve] statements answer under (default: the ambient
    {!Nullrel.Semantics.current} at attach time); it is installed
    around every statement with {!Nullrel.Semantics.with_semantics},
    exactly like the governor, and reported by [sys_sessions]. *)

val id : t -> int
val engine : t -> engine

val semantics : t -> Nullrel.Semantics.t
(** The dialect fixed at {!attach}. *)

val in_txn : t -> bool
val snapshot : t -> snapshot
(** The session's view: the staged catalog (own writes included) at the
    pinned position when a transaction is open, the latest committed
    snapshot otherwise. *)

val begin_ : t -> unit
(** Pins a snapshot now. Optional — the first update statement begins a
    transaction implicitly — but an explicit [begin_] gives repeatable
    reads before the first write. Fails ({!Nullrel.Exec_error.Error}
    [Bad_input]) if a transaction is already open or submitted. *)

val exec : t -> Quel.Ast.statement -> Dml.outcome
(** Runs one statement against the session's view. [retrieve] reads the
    view and stages nothing; an update begins a transaction if none is
    open and stages its effect (visible to this session's subsequent
    statements only). Statement-level failures — bad input, a governed
    abort, a schema violation — leave the staged transaction exactly as
    it was. *)

val exec_string : t -> string -> Dml.outcome

val rollback : t -> unit
(** Discards the staged transaction (no-op when none is open). *)

val commit : t -> int
(** Submits the staged transaction and waits for its outcome: the
    commit LSN on success (the transaction is then durable {e and}
    published), or a raised {!Session_error.Error}. [Conflict] rolls
    the transaction back; [Queue_full] leaves it staged so the caller
    can commit again; a commit with nothing staged just returns the
    current LSN. Equivalent to {!submit} followed by {!await}. *)

val submit : t -> unit
(** Stages the transaction's journal records on the commit queue
    without waiting (validation happens at flush time). After [submit],
    the session cannot execute statements until {!await} collects the
    outcome. Raises {!Session_error.Error} [Queue_full]/[Shutdown]. *)

val await : t -> int
(** Collects the submitted transaction's outcome, leading a group
    flush if no other session is already flushing (so a single-threaded
    caller never deadlocks: [submit; submit'; await] forms a 2-record
    batch under one fsync). *)

(** {1 Introspection}

    The raw material of sysview's [sys_sessions]. Sessions are tracked
    weakly (enumeration never extends a session's lifetime); fields are
    read racily but each load is atomic, so a row describes a state the
    session really was in. Unknown-by-construction fields are [None] —
    surfaced as the paper's [ni] by sysview: an idle session has no
    pinned snapshot, and a submitted transaction's staged shape is in
    flight until the flush decides its fate. *)

type session_state = Idle | Open | Submitted

type session_info = {
  si_sid : int;
  si_state : session_state;
  si_snap_lsn : int option;  (** [None] when idle. *)
  si_staged : int option;
      (** Relations staged; [None] once submitted (in flight). *)
  si_deadline_s : float option;
  si_max_tuples : int option;
  si_semantics : string;
      (** {!Nullrel.Semantics.to_string} of the session's dialect. *)
}

val sessions_info : engine -> session_info list
(** Live sessions attached to [eng], sorted by session id. *)

(** {1 Drills and demos}

    Shared drivers for the shell's [.session], the CLI's [sessions]
    command, the E22 benchmark and the crash-fault tests. *)

module Drive : sig
  val seed : ?io:Storage.Io.t -> dir:string -> unit -> unit
  (** Installs the demo schema (EVENTS(SID, SEQ), COUNTER(C, N) — no
      keys, empty) as a durable checkpoint, unless the directory
      already has it. *)

  val events_cardinal : Storage.Catalog.t -> int
  val has_event : Storage.Catalog.t -> sid:int -> seq:int -> bool
  val counter_value : Storage.Catalog.t -> int option
  (** Inspectors over the demo schema, for tests and verdicts. *)

  type report = {
    sessions : int;
    txns_per_session : int;
    committed : int;
    conflicts : int;
    queue_full_retries : int;
    events : int;  (** Final cardinality of EVENTS. *)
    engine_stats : stats;
    elapsed_s : float;
    latencies_s : float array;  (** Ack latency per committed txn, sorted. *)
  }

  val contention :
    engine -> sessions:int -> txns:int -> ?conflict_every:int -> unit -> report
  (** Fans [sessions] concurrent sessions over the {!Par.Pool} domain
      pool. Session [k] runs [txns] transactions: each appends the
      unique tuple (SID=k, SEQ=j) to EVENTS, and every [conflict_every]th
      also replaces COUNTER's single row — a deliberate write-write
      hotspot ([0] disables it). Conflicted transactions are counted
      and dropped (their EVENTS append vanishes with them), so on a
      freshly seeded engine [events = committed] — the report checks
      snapshot isolation, not just throughput. *)

  val percentile : float array -> float -> float
  (** [percentile sorted p] with [p] in [0., 100.]; [0.] on empty. *)

  type drill = {
    trials : int;
    crashes : int;  (** Trials whose injected fault actually fired. *)
    lost : int;  (** Trials where an {e acknowledged} txn vanished. *)
    resurrected : int;
        (** Trials where an {e aborted} txn's effect appeared. *)
    torn_tails : int;  (** Recoveries that reported a torn journal. *)
    clean_second_replays : int;
        (** Trials where a second recovery found nothing left to do. *)
  }

  val crash_matrix :
    dir:string ->
    trials:int ->
    mode:[ `Before_fsync | `Inside_fsync | `After_fsync ] ->
    unit ->
    drill
  (** The crash-fault drill, [trials] seeded runs per mode. Each trial
      builds acknowledged history (including one deliberately
      conflicted, hence aborted, transaction), then stages a multi-txn
      group batch and kills the modelled process before the batch
      append, halfway through its bytes (a torn tail), or after the
      fsync but before the snapshot publish. Recovery must retain every
      acknowledged transaction and must not resurrect the aborted one;
      a second recovery must be a no-op. Uses per-trial subdirectories
      of [dir]. *)

  val demo : dir:string -> unit -> string list
  (** A deterministic two-session walkthrough (snapshot isolation,
      one group batch, a conflict, a retry), as printable lines. *)
end
