(** The system catalog: live engine state as queryable x-relations.

    Every [sys_*] relation is {e virtual}: {!db} computes fresh
    [(schema, xrel)] pairs from the owning subsystems (the {!Obs}
    registry, the {!Session} engine registry, {!Storage.Catalog}
    freshness stamps, the journal, constraint declarations) and the
    shell/CLI splice them into the Quel database for the duration of
    one statement. Nothing is persisted, nothing registered in
    {!Storage.Catalog} — the namespace is read-only by construction
    (and {!Dml} rejects [sys_]-prefixed write targets).

    {b Snapshot-consistency rule} (DESIGN §10): within one
    materialization each underlying cell is read exactly once, so a
    row never shows a torn value and counters are monotone across
    successive materializations; two [sys_*] relations joined in one
    query describe the same instant. Unknown-by-construction fields
    are the paper's [ni]: the "value" of a histogram, the pinned
    snapshot of an idle session, the staged shape of an in-flight
    transaction, the min/max of a never-analyzed column, the CRC of a
    relation with no durable checkpoint.

    The relations:
    - [sys_metrics](NAME, KIND, VALUE, SUM, COUNT, HELP)
    - [sys_metrics_history](SEQ, TICKS, TIME, NAME, VALUE) — the
      {!Obs.History} ring flattened; histogram series appear as
      [name_sum]/[name_count]/[name_p50]/[name_p99].
    - [sys_histograms](NAME, BUCKET, LE, COUNT, CUMULATIVE)
    - [sys_spans] / [sys_slowlog](SEQ, LABEL, DEPTH, DURATION_US, TICKS)
    - [sys_sessions](DIR, SID, STATE, SNAP_LSN, STAGED, DEADLINE_S,
      MAX_TUPLES)
    - [sys_relations](NAME, ROWS, STATS, STATS_ROWS, CONSTRAINTS,
      UNVERIFIED, SCHEMA_CRC, DATA_CRC)
    - [sys_columns](REL, ATTR, NULLS, DISTINCT, MIN, MAX)
    - [sys_wal](LSN, SEQ, OP, REL, ADDED, REMOVED)
    - [sys_constraints](NAME, KIND, REL, ATTRS, TARGET, ACTION,
      VERIFIED) *)

open Nullrel

module Trace = Trace

val names : string list
(** Every virtual relation name, in {!db} order. *)

val is_sys : string -> bool
(** True on names in the reserved [sys_] prefix. *)

val db :
  ?dir:string ->
  ?io:Storage.Io.t ->
  Storage.Catalog.t ->
  (string * (Schema.t * Xrel.t)) list
(** Materialize the whole system catalog against [cat], in the shape
    {!Quel.Resolve} consumes — append to [Storage.Catalog.to_db cat]
    before evaluating. [dir] (the durable directory, when the catalog
    is disk-backed) enables [sys_wal] rows and the CRC columns of
    [sys_relations]; without it those fields are [ni]/empty. *)

val statement_db :
  ?dir:string ->
  ranges:(string * string) list ->
  Storage.Catalog.t ->
  (string * (Schema.t * Xrel.t)) list
(** The database one statement sees: [Storage.Catalog.to_db cat], plus
    {!db} materialized at this instant when one of the statement's
    [ranges] (variable, relation) names a [sys_*] relation. Building the
    system catalog runs minimization under the ambient governor, so a
    statement over user data alone does not spend its tick budget, or
    any time, on telemetry it never asked for. The shell and the CLI's
    [query] and [agg] both assemble their database here. *)

val schemas : Schema.t list
(** The schemas alone (for [.schema sys_*] and the manual). *)

(** Individual builders, exposed for tests and the shell's [.monitor]. *)

val sys_metrics : unit -> string * (Schema.t * Xrel.t)
val sys_metrics_history : unit -> string * (Schema.t * Xrel.t)
val sys_histograms : unit -> string * (Schema.t * Xrel.t)
val sys_spans : unit -> string * (Schema.t * Xrel.t)
val sys_slowlog : unit -> string * (Schema.t * Xrel.t)
val sys_sessions : unit -> string * (Schema.t * Xrel.t)

val sys_relations :
  ?dir:string ->
  ?io:Storage.Io.t ->
  Storage.Catalog.t ->
  string * (Schema.t * Xrel.t)

val sys_columns : Storage.Catalog.t -> string * (Schema.t * Xrel.t)

val sys_wal :
  ?dir:string -> ?io:Storage.Io.t -> unit -> string * (Schema.t * Xrel.t)

val sys_constraints : Storage.Catalog.t -> string * (Schema.t * Xrel.t)
