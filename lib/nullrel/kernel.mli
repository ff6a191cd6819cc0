(** The subsumption kernels — minimization (Definition 4.6), relation
    subsumption (Definition 4.7) and repeated x-membership (4.2') —
    with the path each call takes chosen from its input's size and the
    {!Par.Pool}, and the one governed fan-out every parallel kernel
    runs through.

    Section 4 leaves the method open (a quadratic scan or combinatorial
    hashing), so the choice is the kernel's: a sequential scan below
    {!indexed_cutover} tuples, the {!Subsume_index} from there, and a
    chunked fan-out over the pool's domains from {!parallel_cutover}
    tuples when {!Par.Pool.parallelizable}. Every path computes the same
    set — results are sets and per-tuple verdicts are independent, so
    merge order cannot change semantics (the tests hold each path to
    [Relation]'s kernels at pool sizes 1 and 4). Each choice is counted
    under [nullrel_kernel_dispatch_total{kernel, strategy}].

    Governance: the sequential and indexed paths charge {!Exec.tick}
    per comparison or probe. Parallel work goes through {!fan_out}. *)

val indexed_cutover : int
(** Below this cardinality (64) a kernel scans: below it the index
    build costs more than the quadratic scan it avoids, and small
    governed callers keep their exact historical tick counts. *)

val parallel_cutover : int
(** From this cardinality (512) up a kernel fans out, provided
    {!Par.Pool.parallelizable}. *)

val fans_out : int -> bool
(** [fans_out n]: an input of [n] tuples fans out — [n] reaches
    {!parallel_cutover} and the pool has more than one domain. *)

val fan_out :
  int ->
  chunk:(lo:int -> hi:int -> 'b * int) ->
  combine:('a -> 'b -> 'a) ->
  init:'a ->
  'a
(** [fan_out n ~chunk ~combine ~init] runs [chunk ~lo ~hi] over chunks
    of [[0, n)] on the {!Par.Pool}; each returns its partial result and
    the work it charged. The coordinator drains that count into the
    ambient governor ({!Exec.drain_ticks}) between the chunks it runs
    itself and once more at the end, so a violation cancels the
    remaining chunks at chunk boundaries. The partial results are folded
    left to right with [combine] from [init]. A chunk may only read
    shared state, and must not tick the governor itself. *)

val fold_chunks :
  'a array ->
  chunk:(lo:int -> hi:int -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  init:'b ->
  'b
(** Governed, chunked fold over an array: [chunk ~lo ~hi] summarizes
    the slice [lo, hi) (it must be a pure read), [combine] merges
    summaries left-to-right starting from [init]. Charges one
    {!Exec.tick} per element on either path, and fans out from
    {!parallel_cutover} elements. The statistics analyzer is the main
    client. *)

val minimize : Relation.t -> Relation.t
(** Reduction to minimal form; agrees with [Relation.minimize]. *)

val subsumes : Relation.t -> Relation.t -> bool
(** [subsumes r1 r2]: does [r1] x-contain every non-null tuple of
    [r2]? Agrees with [Relation.subsumes]. Scans while both operands
    are below {!indexed_cutover}; the fan-out splits [r2]. *)

val prober : Relation.t -> Tuple.t -> bool
(** [prober r] prepares a repeated x-membership test against [r] and
    returns the probe function: from {!indexed_cutover} tuples a
    {!Subsume_index} is built once and each probe is an expected-O(1)
    lookup; below it each probe scans. The returned closure is for the
    calling domain only. *)
