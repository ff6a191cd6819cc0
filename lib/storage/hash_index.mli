(** Hash equality probes for the equijoin.

    Only X-total tuples take part in [R1(.X)R2] (Section 5), so an
    index keyed by the canonical X-restriction answers each probe of a
    join in expected constant time. {!Join} builds one per hash join
    by default, and a declared [hash] secondary index
    ({!Catalog.create_index}) keeps one beside its relation, advanced
    by each statement's delta and persisted in the [INDEX] file.

    The subsumption probes of (4.6)-(4.8) — indexed difference,
    reduction to minimal form, x-membership — are
    {!Nullrel.Subsume_index}, dispatched by {!Nullrel.Kernel}. *)

module Equi : Index_intf.S
(** Equality probes for the equijoin: X-total tuples bucketed by their
    canonical X-restriction. Expected-O(1) probes on any attribute
    set. *)
