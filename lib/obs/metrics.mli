(** Process-wide metrics: monotonic counters, gauges, and log2-bucketed
    histograms in one registry, exported as Prometheus text format and
    as s-expressions.

    The registry is ambient. Counters and histograms are domain-safe
    ([Atomic.t] cells, so the {!Par} pool's worker domains and the
    session engine's committer — which runs on whichever domain led
    the flush — may update them concurrently); an update is a load, a
    branch, and lock-free read-modify-writes. Gauges, registration,
    resets and dumps remain coordinator-only (or otherwise serialized
    by their caller, as the session engine's lock does for its
    gauges).
    Instrumentation is {e disabled by default}; every update first
    consults {!enabled}, so an instrumented hot loop pays one predicted
    branch when observability is off.

    Registration is idempotent: asking for a metric that already exists
    (same name and label set) returns the existing one, so modules can
    register at load time or lazily from hot paths without
    coordination. *)

type counter
type gauge
type histogram

val enabled : bool ref
(** The master switch consulted by every update. Prefer
    {!set_enabled}; the ref is exposed so hot paths can guard derived
    work (e.g. computing a cardinality only to observe it). *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val hot : bool ref
(** True when any instrumentation consumer is live: metrics enabled or
    at least one span open (maintained by {!Span} via
    {!spans_opened}/{!spans_closed}). The single branch that
    {!Nullrel.Exec.tick} pays when observability is off. *)

val spans_opened : unit -> unit
val spans_closed : unit -> unit
(** Called by {!Span} to keep {!hot} in sync with the span stack. *)

val on_hot_change : (bool -> unit) ref
(** Invoked with the new value whenever {!hot} flips. Lets a lower
    layer that cannot be depended upon here (the {!Nullrel.Exec}
    governor) fold the observability check into a compare its fast
    path already performs. *)

(** {1 Registration} *)

val counter :
  ?labels:(string * string) list -> help:string -> string -> counter

val gauge : ?labels:(string * string) list -> help:string -> string -> gauge

val histogram :
  ?labels:(string * string) list -> help:string -> string -> histogram

(** {1 Updates (one branch when disabled)} *)

val inc : counter -> unit
val add : counter -> int -> unit
val set_gauge : gauge -> float -> unit
val observe : histogram -> int -> unit

(** {1 Reads (for tests and dumps)} *)

val counter_value : counter -> int

val bucket_index : int -> int
(** [bucket_index v] is the log2 bucket of [v]: 0 for [v <= 0],
    otherwise the number of significant bits of [v] (1 -> 1, 2..3 -> 2,
    4..7 -> 3, ..., [max_int] -> 62). *)

val bucket_count : histogram -> int -> int
(** Observations landed in the bucket with the given index. *)

val histogram_sum : histogram -> int
val histogram_count : histogram -> int

(** {1 Introspection}

    Point-in-time view of the whole registry, consumed by
    {!Obs.History} and the sysview virtual relations. Each atomic is
    read exactly once per snapshot, so an individual metric's value is
    never torn; distinct metrics may be skewed by concurrent updates
    (see DESIGN on the snapshot-consistency rule). *)

type value_snapshot =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { sum : int; count : int; counts : int array }

type info = {
  i_name : string;
  i_labels : (string * string) list;
  i_help : string;
  i_kind : string;  (** "counter" | "gauge" | "histogram" *)
  i_value : value_snapshot;
}

val snapshot : unit -> info list
(** Every registered metric with its current value, in registration
    order. *)

val quantile_of_counts : int array -> float -> float option
(** [quantile_of_counts counts q] estimates the q-quantile (0..1) of a
    log2-bucketed histogram given its per-bucket counts: the upper
    bound of the first bucket whose cumulative count reaches q of the
    total. [None] when no observations were recorded. *)

val le_string : int -> string
(** Upper bound of bucket [i] as the Prometheus [le] label: "0",
    ["2^i - 1"], or "+Inf" for the last bucket. *)

val buckets : int
(** Number of histogram buckets (63: one per possible bit count). *)

val label_string : (string * string) list -> string
(** Prometheus-style rendering of a label set: empty string for no
    labels, otherwise [{k="v",...}] with values escaped. Used to build
    stable series names shared by dumps, {!History} and sysview. *)

val escape_label_value : string -> string
(** Prometheus label-value escaping: only backslash, double-quote and
    newline become escape sequences; every other byte passes through
    verbatim (unlike OCaml's [%S]). *)

(** {1 Registry-wide operations} *)

val reset : unit -> unit
(** Zeroes every registered metric. Registration survives: the same
    metric values restart from 0; names, helps and labels are kept. *)

val dump_prometheus : unit -> string
(** Prometheus text format: one [# HELP]/[# TYPE] pair per metric
    family, one sample line per registered counter/gauge, and the
    cumulative [_bucket]/[_sum]/[_count] series per histogram. *)
