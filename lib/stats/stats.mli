(** Null-aware relation statistics for cost-based planning.

    Under the paper's Table III semantics a comparison that touches a
    null evaluates to [ni], and only TRUE tuples qualify — so the
    fraction of nulls in a column directly shrinks the selectivity of
    every predicate and join over it. This module collects exactly the
    summaries that estimation needs: per-relation row counts and, per
    attribute, the null count, an exact distinct count, and min/max
    for integer-valued columns (the interpolation domain for range
    predicates).

    Collection is one governed scan ({!Nullrel.Exec.tick} per tuple),
    dispatched through {!Nullrel.Kernel.fold_chunks} so a large
    relation is analyzed in parallel chunks over the domain pool.
    Results are stored in [Storage.Catalog] stamped against a data
    version and persisted alongside checkpoints; this module itself
    is storage-agnostic (it sits below both [plan] and [storage] in
    the library graph, which cannot see each other). *)

open Nullrel

type column = {
  nulls : int;  (** Tuples with no information on this attribute. *)
  distinct : int;  (** Exact count of distinct non-null values seen. *)
  min_int : int option;  (** Smallest integer value, when any. *)
  max_int : int option;
}

type table = { rows : int; columns : (Attr.t * column) list }

val collect : attrs:Attr.t list -> Xrel.t -> table
(** One pass over the minimal representation. [attrs] fixes the
    columns summarized (normally the schema universe); attributes a
    tuple does not bind count as nulls. Ticks the ambient governor
    once per tuple and fans out from
    {!Nullrel.Kernel.parallel_cutover} rows. *)

val column : table -> Attr.t -> column option
val null_fraction : table -> column -> float
(** [nulls / rows] (0 on an empty relation). *)

(** {1 Serialization}

    The tagged lines of the on-disk [STATS] file, one field list per
    line ([Storage.Sidecar] frames them). Each entry is stamped with
    the CRC of the data file it was collected against, so a loader
    attaches stats only when the relation is bit-for-bit the one that
    was analyzed. *)

exception Corrupt of string

val tables_to_lines : (string * string * table) list -> string list list
(** [(name, data_crc_hex, table)] entries to [table] and [column]
    lines. *)

val tables_of_lines : string list list -> (string * string * table) list
(** Parses those lines back. Raises {!Corrupt} on malformed input. *)

(** {1 Observability}

    Counters under [nullrel_stats_lookups_total{outcome=...}] — the
    planner's statistics source reports each base-relation lookup as a
    hit (fresh stats used), a miss (never analyzed) or stale
    (invalidated by a mutation since collection). *)

val count_hit : unit -> unit
val count_miss : unit -> unit
val count_stale : unit -> unit

val pp : Format.formatter -> table -> unit
val pp_column : Format.formatter -> Attr.t * column -> unit

val equal : table -> table -> bool
