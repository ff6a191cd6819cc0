(** Physical join operators.

    {!Nullrel.Algebra.equijoin} is the textbook nested loop —
    O(|R1| x |R2|). This module provides a hash-partitioned
    implementation of the same operator: only X-total tuples participate
    (Section 5's definition), so indexing one operand by its
    X-restriction makes each probe cheap; expected cost
    O(|R1| + |R2| + |output|). Agreement with the logical operator is
    property-tested; the speedup is benchmark E13.

    The build side goes through an {!Index_intf.S} implementation
    (default {!Hash_index.Equi}); the probe side can fan out over the
    {!Par.Pool} domains — probe chunks against the shared read-only
    index, per-chunk partial results merged by set union, so the
    result is identical under every strategy and pool size. Governance
    follows the {!Nullrel.Kernel} scheme: sequential probes tick
    inline, parallel chunks count ticks into an atomic drained by the
    coordinator. *)

open Nullrel

val hash_equijoin :
  ?strategy:Kernel.strategy ->
  ?index:(module Index_intf.S) ->
  Attr.Set.t ->
  Xrel.t ->
  Xrel.t ->
  Xrel.t
(** [hash_equijoin x r1 r2] = [Algebra.equijoin x r1 r2], computed by
    probing an index on [r2] with the tuples of [r1]. [strategy]
    defaults to [Auto] (parallel from {!Kernel.parallel_cutover}
    probe tuples when the pool has more than one domain); [Sequential]
    and [Indexed] both mean "probe on the calling domain". *)

val hash_union_join :
  ?strategy:Kernel.strategy ->
  ?index:(module Index_intf.S) ->
  Attr.Set.t ->
  Xrel.t ->
  Xrel.t ->
  Xrel.t
(** The union-join (outer join) on top of {!hash_equijoin}. *)

val probe_equijoin :
  ?strategy:Kernel.strategy ->
  probe:(Tuple.t -> Tuple.t list) ->
  Xrel.t ->
  Xrel.t
(** The same probe loop against a {e pre-built} equality probe — a
    declared secondary index served by {!Catalog.equi_probe} — so the
    build side is never materialized: cost O(|r1| + |output|) instead
    of O(|r1| + |r2| + |output|). The probe must return, for each
    X-total tuple, exactly the indexed tuples matching it on the join
    attributes (and [[]] for tuples not total on them), drawn from one
    minimal relation (a catalog relation, seen through the compiler's
    one-to-one renames) — then the result equals [Algebra.equijoin].
    When no hit binds an attribute of [r1]'s scope the output is
    already minimal and is not minimized again. [strategy] defaults to
    [Indexed] (sequential probes on the calling domain). *)
