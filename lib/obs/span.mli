(** Span-based tracing with inclusive tick accounting.

    A span is an interval on the ambient span stack. While it is open,
    {!charge} (called from {!Nullrel.Exec.tick} via the
    {!Metrics.hot} branch) accumulates governor ticks into it; when it
    closes, its inclusive total (own ticks plus children's) is folded
    into its parent, an event is appended to a fixed-size ring buffer,
    and — if the span outlasted the slow-query threshold — to the slow
    log.

    Two entry points with different gating:
    - {!with_span} is the fire-and-forget instrumentation hook: when
      tracing is disabled it is a single branch and runs [f] directly.
    - {!timed} always measures and returns the measurement; it is what
      [.explain analyze] uses, so analysis works without globally
      enabling tracing.

    The open-span stack is domain-local, so a span measures only the
    work of the domain that opened it. The event ring and the slow log
    are shared by all domains and safe to write from any of them. *)

type measure = { duration_s : float; ticks : int }
(** [ticks] is inclusive: the span's own charges plus its children's. *)

val set_enabled : bool -> unit
(** Gates {!with_span} and event/slow-log recording. *)

val charge : int -> unit
(** Charge governor ticks to the innermost open span, if any. *)

val with_span : string -> (unit -> 'a) -> 'a
(** One branch and a direct call when tracing is disabled. When
    enabled, measures [f] and records an event. Exception-safe: the
    span closes (and records) even when [f] raises. *)

val timed : string -> (unit -> 'a) -> 'a * measure
(** Always measures, regardless of {!set_enabled}. Records events only
    when enabled. Exception-safe like {!with_span}. *)

val current_label : unit -> string option
(** Label of the innermost open span ([None] when the stack is empty);
    for tests asserting that spans close under exceptions. *)

(** {1 Event ring buffer} *)

type event = {
  label : string;
  depth : int;  (** nesting depth at close time, outermost = 0 *)
  duration_s : float;
  ticks : int;
}

val events : unit -> event list
(** Most recent span closures, oldest first (ring capacity {!ring_capacity}). *)

val ring_capacity : int
val clear_events : unit -> unit

(** {1 Slow-query log} *)

val set_slow_threshold : float option -> unit
(** [Some seconds] records spans of depth 0 lasting at least that long;
    [None] (the default) disables the slow log. *)

val slow_threshold : unit -> float option
val slow_log : unit -> event list
val clear_slow_log : unit -> unit

(** {1 Test support} *)

val set_clock : (unit -> float) option -> unit
(** Override the monotonic clock ([None] restores the default); tests
    install [Some (fun () -> 0.)] for deterministic durations. *)
