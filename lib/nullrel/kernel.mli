(** The one entry point for the subsumption kernels — minimization
    (Definition 4.6), relation subsumption (Definition 4.7) and
    x-membership (4.2') — behind a size- and pool-aware strategy
    dispatch.

    Callers used to pick between [Relation.minimize] (naive
    quadratic), [Subsume_index.minimize] (combinatorial hashing) and
    ad-hoc loops. This facade makes that an implementation choice:
    [Auto] (the default) selects sequential scans for small inputs,
    the {!Subsume_index} for medium ones, and chunked fan-out over the
    {!Par.Pool} domains for large ones. Every strategy computes the
    same set — results are sets and per-tuple verdicts are independent,
    so merge order cannot change semantics (property-tested).

    Governance: sequential and indexed strategies charge
    {!Exec.tick} per comparison or probe as before. Parallel
    strategies count work into a per-task [Atomic.t] on the worker
    domains and the coordinator drains it via {!Exec.drain_ticks}
    between its own chunks — a governor violation raised there cancels
    the remaining chunks at chunk boundaries. *)

type strategy =
  | Auto  (** pick by input size and pool availability (default) *)
  | Sequential  (** the plain [Relation] scans, bit-for-bit *)
  | Indexed  (** {!Subsume_index} probes on the calling domain *)
  | Parallel
      (** chunked fan-out over {!Par.Pool} against a prepared, shared
          read-only {!Subsume_index}; inline when the pool has size 1 *)

val strategy_name : strategy -> string

val indexed_cutover : int
(** [Auto] stays [Sequential] below this cardinality (64): below it
    the index build costs more than the quadratic scan it avoids, and
    small governed callers keep their exact historical tick counts. *)

val parallel_cutover : int
(** [Auto] considers [Parallel] from this cardinality (512) up,
    provided {!Par.Pool.parallelizable}. *)

val fold_chunks :
  ?strategy:strategy ->
  'a array ->
  chunk:(lo:int -> hi:int -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  init:'b ->
  'b
(** Governed, chunked fold over an array: [chunk ~lo ~hi] summarizes
    the slice [lo, hi) (it must be a pure read), [combine] merges
    summaries left-to-right starting from [init]. Charges one
    {!Exec.tick} per element under every strategy (per-task atomics
    drained by the coordinator when parallel). [Auto] fans out over
    the {!Par.Pool} from {!parallel_cutover} elements; [Indexed]
    degrades to [Sequential] (a scan has no index). The statistics
    analyzer is the main client. *)

val minimize : ?strategy:strategy -> Relation.t -> Relation.t
(** Reduction to minimal form; agrees with [Relation.minimize]. [Auto]
    is [Sequential] below {!indexed_cutover}, [Parallel] from
    {!parallel_cutover} up when {!Par.Pool.parallelizable}, [Indexed]
    in between. *)

val subsumes : ?strategy:strategy -> Relation.t -> Relation.t -> bool
(** [subsumes r1 r2]: does [r1] x-contain every non-null tuple of
    [r2]? Agrees with [Relation.subsumes]. *)

val x_mem : ?strategy:strategy -> Tuple.t -> Relation.t -> bool
(** X-membership of one tuple; agrees with [Relation.x_mem]. [Auto]
    stays [Sequential]: a single probe never amortizes an index build,
    and the linear scan is too short to fan out. *)

val prober : ?strategy:strategy -> Relation.t -> Tuple.t -> bool
(** [prober r] prepares a repeated x-membership test against [r] and
    returns the probe function: under [Auto]/[Indexed] a
    {!Subsume_index} is built once (when [r] is large enough) and each
    probe is an expected-O(1) lookup; under [Sequential] each probe
    scans. The returned closure is for the calling domain only. *)
