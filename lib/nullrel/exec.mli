(** The resource governor: an execution context carrying a deadline, a
    tuple/intermediate-cardinality budget, a heap high-water estimate
    and a cooperative cancellation flag.

    The governor is ambient: {!with_governor} installs one for the
    dynamic extent of a computation, and the engine's hot loops call
    {!tick} per unit of work (one tuple considered, joined, probed or
    substituted). When no governor is installed, [tick] is a single
    pointer comparison, so ungoverned execution pays (almost) nothing.

    Checks are amortized: the tuple budget is verified on every tick
    (two integer compares), while the clock, the cancellation flag and
    the heap estimate are consulted every [check_every] ticks. On
    violation the governor raises {!Exec_error.Error} — it never
    returns a degraded answer.

    The ambient slot is {e domain-local} (one cell per domain, lazily
    created): a session running on its own domain installs and ticks
    its own governor without ever racing another domain's — the basis
    of the per-session governors in {!Session}. Worker domains spawned
    by {!Par.Pool} still must never call {!tick} against a governor
    they did not install — [charged] and the amortization countdown
    are unsynchronized within a domain. The one governed fan-out,
    {!Kernel.fan_out}, instead counts work into a per-task [Atomic.t]
    which the coordinator charges via {!drain_ticks} between the chunks
    it runs itself, preserving deadline, budget and cancellation
    semantics across domains (workers observe the pool's cancel flag
    at chunk boundaries when the drain raises). *)

type t

val unlimited : t
(** The no-op governor; installed by default. *)

val make :
  ?deadline_s:float ->
  ?max_tuples:int ->
  ?max_memory_words:int ->
  ?cancelled:(unit -> bool) ->
  ?check_every:int ->
  ?now:(unit -> float) ->
  unit ->
  t
(** [make ()] builds a governor. [deadline_s] is relative to now on a
    monotonic clock (never runs backwards); [max_tuples] bounds the
    work charged through {!tick}; [max_memory_words] bounds the growth
    of the major heap (GC estimate) since the governor started, or,
    when larger, the words allocated straight onto the major heap
    since then (blocks too large for the minor heap, which the heap
    estimate takes in only at the next minor collection);
    [cancelled] is polled at every amortized check; [check_every]
    (default 256) sets the amortization grain; [now] overrides the
    clock (tests). *)

val with_governor : t -> (unit -> 'a) -> 'a
(** Installs [t] as the ambient governor for the call, restoring the
    previous one on exit (also on exception). Performs one full check
    on entry, so an already-expired deadline or a pre-raised
    cancellation flag aborts before any work. *)

val current : unit -> t
val limited : t -> bool

val tick : ?cost:int -> unit -> unit
(** Charges [cost] (default 1) units of work to the ambient governor.
    Raises {!Exec_error.Error} on violation; no-op when unlimited. *)

val drain_ticks : int Atomic.t -> unit
(** [drain_ticks a] atomically takes the tick count accumulated in [a]
    (resetting it to 0) and charges it through {!tick}. Called on the
    coordinator between parallel chunks, and once more after fan-in so
    no worker-counted work goes uncharged. May raise like {!tick}. *)

val checkpoint : unit -> unit
(** Forces a full check (clock, cancellation, memory) of the ambient
    governor right now, regardless of amortization. *)

val charged : t -> int
(** Work units charged so far. *)

val memory_high_water : t -> int
(** Largest observed major-heap growth (words, measured as
    [max_memory_words] is) since [make]; only sampled when
    [max_memory_words] is set. *)

val monotonic_now : unit -> float
(** The governor's default clock: wall time clamped to never decrease. *)
