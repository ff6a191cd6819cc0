type measure = { duration_s : float; ticks : int }

type span = {
  label : string;
  start : float;
  mutable self_ticks : int;
  mutable child_ticks : int;
  parent : span option;
  depth : int;
}

type event = { label : string; depth : int; duration_s : float; ticks : int }

let enabled = ref false

(* No [hot] bookkeeping here: with no span open there is nothing to
   charge, and {!Metrics.spans_opened}/[spans_closed] flip [hot] as
   the stack grows and empties. *)
let set_enabled b = enabled := b

(* The open-span stack is domain-local: a span opened on one domain is
   never the parent of, nor charged by, work on another. *)
let current_key : span option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let charge cost =
  match !(current ()) with
  | None -> ()
  | Some s -> s.self_ticks <- s.self_ticks + cost

let current_label () =
  match !(current ()) with None -> None | Some s -> Some s.label

let default_clock () = Unix.gettimeofday ()
let clock = ref default_clock
let set_clock = function None -> clock := default_clock | Some f -> clock := f

(* The event ring and the slow log are shared by every domain. A writer
   claims a ring slot with the atomic write index, as [History] does,
   and stores an immutable record there; the slow log is an immutable
   list swapped by compare-and-set. A concurrent reader can at worst
   miss the newest event, never see a torn one. *)
let ring_capacity = 256
let ring : event option array = Array.make ring_capacity None
let ring_pos = Atomic.make 0
let slow_capacity = 64
let slow : event list Atomic.t = Atomic.make []
let slow_threshold_ref : float option Atomic.t = Atomic.make None

let set_slow_threshold t = Atomic.set slow_threshold_ref t
let slow_threshold () = Atomic.get slow_threshold_ref

let clear_events () =
  Array.fill ring 0 ring_capacity None;
  Atomic.set ring_pos 0

let clear_slow_log () = Atomic.set slow []

let events () =
  let pos = Atomic.get ring_pos in
  let out = ref [] in
  for i = ring_capacity - 1 downto 0 do
    match ring.((pos + i) mod ring_capacity) with
    | None -> ()
    | Some e -> out := e :: !out
  done;
  !out

let slow_log () = List.rev (Atomic.get slow)

let rec log_slow ev =
  let seen = Atomic.get slow in
  let kept = List.filteri (fun i _ -> i < slow_capacity - 1) seen in
  if not (Atomic.compare_and_set slow seen (ev :: kept)) then log_slow ev

let record ev =
  ring.(Atomic.fetch_and_add ring_pos 1 mod ring_capacity) <- Some ev;
  match Atomic.get slow_threshold_ref with
  | Some t when ev.depth = 0 && ev.duration_s >= t -> log_slow ev
  | _ -> ()

let enter label =
  let current = current () in
  let depth = match !current with None -> 0 | Some p -> p.depth + 1 in
  let s =
    { label; start = !clock (); self_ticks = 0; child_ticks = 0;
      parent = !current; depth }
  in
  current := Some s;
  Metrics.spans_opened ();
  s

(* Closing is where inclusive accounting happens: the child's total is
   what the parent sees as "time spent below me". *)
let exit_ s =
  current () := s.parent;
  Metrics.spans_closed ();
  let total = s.self_ticks + s.child_ticks in
  (match s.parent with
  | Some p -> p.child_ticks <- p.child_ticks + total
  | None -> ());
  let duration_s = Float.max 0. (!clock () -. s.start) in
  if !enabled then
    record { label = s.label; depth = s.depth; duration_s; ticks = total };
  { duration_s; ticks = total }

let timed label f =
  let s = enter label in
  match f () with
  | v -> (v, exit_ s)
  | exception e ->
      ignore (exit_ s);
      raise e

let with_span label f = if not !enabled then f () else fst (timed label f)
