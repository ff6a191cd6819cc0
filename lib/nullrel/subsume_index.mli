(** Hash-accelerated subsumption probes — the engine-core index behind
    {!Kernel}'s indexed and parallel strategies ({!Storage.Hash_index}
    re-exports it for storage-layer callers).

    The paper notes after (4.6)-(4.8) that the naive implementations of
    difference and reduction to minimal form are quadratic, and that
    "more sophisticated techniques, such as combinatorial hashing, can
    provide more efficient solutions". This module is that technique:
    tuples are bucketed by their restriction to the probe's attribute
    set, so the inner universal quantification of (4.8) becomes an
    expected-constant-time lookup.

    The key observation: [t >= r] iff [t] agrees with [r] on [attrs r] —
    in particular [t] is total on [attrs r] and its restriction there
    equals [r]. So all subsumption probes for tuples with non-null
    attribute set [pi] are answered by one hash table keyed on
    [pi]-restrictions, shared across the (usually few) null patterns of
    the data. Tables are built on first use, one per distinct probe
    signature, and published atomically: any number of domains may
    probe one index at once.

    The index is {e persistent} under DML: {!advance} layers a
    statement's delta over the existing probe tables without rebuilding
    them, returning a new value that shares the old base — an older
    snapshot holding the previous value keeps probing its own view.
    The overlay is compacted into a fresh base once it outgrows about
    the square root of the relation size, so a statement's probe cost
    stays sublinear where a from-scratch rebuild is linear. *)

type t
(** An index over a relation: an immutable probe-table base plus a
    functional overlay of tuples added/removed since the base was
    built. *)

val build : Relation.t -> t
(** Indexes a relation from scratch. O(n) now; probe tables are built
    on first use. Counted by [nullrel_subsume_index_builds_total]. *)

val advance : t -> added:Tuple.t list -> removed:Tuple.t list -> t
(** [advance idx ~added ~removed] is the index over the relation with
    [removed] taken out and then [added] put in. Tuples already absent
    (for [removed]) or already present (for [added]) are ignored, so
    applying a recorded statement delta is idempotent. The result
    shares [idx]'s probe tables; [idx] itself is unchanged and remains
    valid for the old contents. Cost: O(delta · log n) plus an
    amortized O(sqrt n) share of the next compaction. Counted by
    [nullrel_subsume_index_advances_total] (compactions by
    [nullrel_subsume_index_compactions_total]). *)

val prepare : t -> Tuple.t list -> unit
(** [prepare idx probes] builds the table of every probe signature
    occurring in [probes], after which probing any of those tuples is
    a pure read. Probing is domain-safe without it; calling it before
    handing the index to {!Par.Pool} workers keeps each worker from
    building the same table again. *)

val count_at : t -> Tuple.t -> int
(** [count_at idx r]: how many indexed tuples are more informative than
    or equal to [r] (i.e. agree with [r] on [attrs r]). *)

val subsuming_exists : t -> Tuple.t -> bool
(** [count_at idx r > 0] — is [r] an x-element of the indexed relation? *)

val strictly_subsuming_exists : t -> Tuple.t -> bool
(** Is some indexed tuple {e strictly} more informative than [r]? When
    [r] itself is indexed this is [count_at idx r >= 2] (distinct set
    elements with equal restrictions must differ elsewhere); otherwise it
    checks the candidates directly. *)

val mem : t -> Tuple.t -> bool
(** Exact membership of the indexed relation (not subsumption). *)

val cardinal : t -> int
(** Number of indexed tuples. *)

val subsumed_within : t -> Tuple.t -> Tuple.t list
(** [subsumed_within idx u]: the indexed tuples strictly less
    informative than [u] — exactly the tuples an insert of [u] must
    evict to keep the relation minimal. Because tuples are canonical,
    the only candidate per distinct null signature [pi] is [u]'s own
    [pi]-restriction, so the cost is O(signatures · log n), independent
    of the relation's cardinality. *)

val to_list : t -> Tuple.t list
(** The indexed tuples (base plus overlay), in no particular order. *)

val diff : Relation.t -> Relation.t -> Relation.t
(** Indexed difference per (4.8): keeps the minuend tuples with no
    subsuming tuple in the subtrahend. Expected O(|R1| + |R2|), vs the
    naive O(|R1| x |R2|) of [Xrel.diff]. *)

val minimize : Relation.t -> Relation.t
(** Indexed reduction to minimal form (Definition 4.6). Expected
    O(n x s) with [s] the number of distinct null patterns. Agrees with
    [Relation.minimize]. *)
