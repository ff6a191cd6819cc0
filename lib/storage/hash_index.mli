(** Hash-accelerated subsumption probes.

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
    the data. Tables are built lazily, one per distinct probe
    signature.

    The implementation lives in {!Nullrel.Subsume_index} (so
    {!Nullrel.Kernel} can dispatch to it); this module re-exports it
    and adds the {!Equi} equality-probe index used by {!Join}. *)

open Nullrel

type t
(** An index over a relation: an immutable probe-table base plus a
    functional overlay of tuples added/removed since the base was
    built. *)

val build : Relation.t -> t
(** Indexes a relation from scratch. O(n) now; probe tables are built
    on first use. *)

val advance : t -> added:Tuple.t list -> removed:Tuple.t list -> t
(** [advance idx ~added ~removed] is the index over the relation with
    [removed] taken out and then [added] put in, sharing [idx]'s probe
    tables through a functional overlay. Idempotent on tuples already
    absent/present; O(delta · log n) plus an amortized O(sqrt n)
    compaction share. [idx] itself is unchanged. *)

val prepare : t -> Tuple.t list -> unit
(** Builds the probe table of every signature occurring in the given
    probes, so subsequent probing is a pure read (probing is
    domain-safe without it; this keeps {!Par.Pool} workers from each
    building the same table). *)

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
(** The indexed tuples strictly less informative than the probe —
    exactly what an insert must evict to keep the relation minimal. *)

val to_list : t -> Tuple.t list
(** The indexed tuples, in no particular order. *)

val diff : Relation.t -> Relation.t -> Relation.t
(** Indexed difference per (4.8): keeps the minuend tuples with no
    subsuming tuple in the subtrahend. Expected O(|R1| + |R2|), vs the
    naive O(|R1| x |R2|) of [Xrel.diff]. *)

val minimize : Relation.t -> Relation.t
(** Indexed reduction to minimal form (Definition 4.6). Expected
    O(n x s) with [s] the number of distinct null patterns. Agrees with
    [Relation.minimize]. *)

module Equi : Index_intf.S
(** Equality probes for the equijoin: X-total tuples bucketed by their
    canonical X-restriction. Expected-O(1) probes on any attribute
    set. *)
