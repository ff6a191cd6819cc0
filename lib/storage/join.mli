(** Physical join operators.

    {!Nullrel.Algebra.equijoin} is the textbook nested loop —
    O(|R1| x |R2|). This module provides a hash-partitioned
    implementation of the same operator: only X-total tuples participate
    (Section 5's definition), so indexing one operand by its
    X-restriction makes each probe cheap; expected cost
    O(|R1| + |R2| + |output|). Agreement with the logical operator is
    property-tested; the speedup is benchmark E13.

    The build side is the operand's subsumption index, probed through
    {!Nullrel.Subsume_index.equi_probe}. From
    {!Nullrel.Kernel.parallel_cutover} probe tuples on a pool of several
    domains the probe side fans out through {!Nullrel.Kernel.fan_out}:
    probe chunks against the shared read-only listing table, per-chunk
    partial results merged by set union, so the result is identical at
    every pool size. The governor is charged once per probe and once
    per attempted join on either path. *)

open Nullrel

val hash_equijoin : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** [hash_equijoin x r1 r2] = [Algebra.equijoin x r1 r2], computed by
    probing [r2]'s listing of [x] with the tuples of [r1]. *)

val hash_union_join : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** The union-join (outer join) on top of {!hash_equijoin}. *)

val probe_equijoin :
  probe:(Tuple.t -> Tuple.t list) -> Xrel.t -> Xrel.t
(** The same probe loop against a {e pre-built} equality probe — a
    declared index served by {!Catalog.equi_probe} — so the build side
    is never materialized: cost O(|r1| + |output|) instead
    of O(|r1| + |r2| + |output|). The probe must return, for each
    X-total tuple, exactly the indexed tuples matching it on the join
    attributes (and [[]] for tuples not total on them), drawn from one
    minimal relation (a catalog relation, seen through the compiler's
    one-to-one renames) — then the result equals [Algebra.equijoin].
    When no hit binds an attribute of [r1]'s scope the output is
    already minimal and is not minimized again. Probes on the calling
    domain. *)

val probe_join :
  string ->
  keep:(Tuple.t -> bool) ->
  probe:(Tuple.t -> Tuple.t list) ->
  Relation.t ->
  Relation.t
(** [probe_join op ~keep ~probe r1] joins each tuple of [r1] with each
    of its hits, [probe t1], and keeps the joined tuples [keep]
    accepts. Nothing is minimized: the planner feeds it plain tuple
    sets and minimizes once above the join. Runs on the calling domain
    and charges the governor once per tuple of [r1] and once per
    attempted join, as {!probe_equijoin} does. Counts the tuples in
    and out under the operator label [op] when metrics are on.

    With [probe] returning every tuple of [r2] it is the selection
    [keep] over the product; with {!column_probe} or a declared index
    it is that selection whenever [keep] contains the probed equality,
    since no pair the probe skips satisfies it. *)

val column_probe : Attr.t -> Attr.t -> Relation.t -> Tuple.t -> Tuple.t list
(** [column_probe a b r2] hashes the tuples of [r2] once, by their
    non-null value of [b], and returns the probe for a per-query join
    on [a = b]: a tuple maps to the tuples of [r2] whose [b] equals its
    [a], and to [[]] when its [a] is null (a null surely equals
    nothing). Expects the two columns to hold one kind of value between
    them: a probe key of another kind than the table's finds nothing,
    where the comparison would raise [Value.Type_error]. *)
