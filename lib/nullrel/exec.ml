type t = {
  now : unit -> float;
  deadline : float;  (** absolute; [infinity] when unbounded *)
  limit_s : float;  (** the configured allowance, for error reports *)
  max_tuples : int;  (** [max_int] when unbounded *)
  max_memory_words : int;  (** [max_int] when unbounded *)
  start_heap_words : int;
  cancelled : unit -> bool;
  check_every : int;
  mutable charged : int;
  mutable until_check : int;
  mutable hwm_words : int;
}

let never_cancelled () = false

(* Wall time clamped to be non-decreasing: good enough as a monotonic
   deadline clock without reaching for an external library. *)
let monotonic_now =
  let last = ref neg_infinity in
  fun () ->
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

let unlimited =
  {
    now = monotonic_now;
    deadline = infinity;
    limit_s = infinity;
    max_tuples = max_int;
    max_memory_words = max_int;
    start_heap_words = 0;
    cancelled = never_cancelled;
    check_every = max_int;
    charged = 0;
    until_check = max_int;
    hwm_words = 0;
  }

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let make ?deadline_s ?max_tuples ?max_memory_words ?cancelled
    ?(check_every = 256) ?(now = monotonic_now) () =
  let check_every = max 1 check_every in
  {
    now;
    deadline =
      (match deadline_s with Some d -> now () +. d | None -> infinity);
    limit_s = (match deadline_s with Some d -> d | None -> infinity);
    max_tuples = Option.value max_tuples ~default:max_int;
    max_memory_words = Option.value max_memory_words ~default:max_int;
    start_heap_words =
      (match max_memory_words with Some _ -> heap_words () | None -> 0);
    cancelled = Option.value cancelled ~default:never_cancelled;
    check_every;
    charged = 0;
    until_check = check_every;
    hwm_words = 0;
  }

(* The amortized slice: everything that is too expensive to consult on
   every tick. *)
let full_check g =
  g.until_check <- g.check_every;
  if g.cancelled () then Exec_error.raise_ Exec_error.Cancelled;
  (* >= so a zero allowance aborts deterministically even when the
     clock has not visibly advanced since [make] *)
  (if g.deadline < infinity && g.now () >= g.deadline then
     Exec_error.raise_ (Exec_error.Timeout { limit_s = g.limit_s }));
  if g.max_memory_words < max_int then begin
    let grown = heap_words () - g.start_heap_words in
    if grown > g.hwm_words then g.hwm_words <- grown;
    if grown > g.max_memory_words then
      Exec_error.raise_
        (Exec_error.Budget_exceeded
           {
             resource = Exec_error.Memory_words;
             budget = g.max_memory_words;
             used = grown;
           })
  end

(* A second physically-distinct no-op sentinel, installed in place of
   [unlimited] while observability is live ([Obs.Metrics.hot]). The
   ungoverned, unobserved fast path of [tick] is then still the single
   pointer comparison it was before the Obs layer existed; the obs
   branch only runs once that comparison has already failed. *)
let unlimited_observed = { unlimited with charged = 0 }

(* The ambient slot is domain-local (one ref cell per domain, lazily
   allocated by DLS), so concurrent sessions running on their own
   domains each govern themselves: a tick on one session's domain can
   never charge — or race on — another domain's governor. The fast
   path gains one DLS array load over the old plain global. *)
let ambient : t ref Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> ref unlimited)

let slot () = Stdlib.Domain.DLS.get ambient
let current () = !(slot ())
let limited g = g != unlimited && g != unlimited_observed

(* The base sentinel the ambient slot must hold when no governor is
   installed, given the current obs state. Only the main domain swaps
   to [unlimited_observed]: [tick] charges spans on the main domain
   only, and a freshly spawned session domain starts at plain
   [unlimited] anyway (its DLS initializer cannot observe later hot
   flips). *)
let base_sentinel () =
  if !Obs.Metrics.hot && Stdlib.Domain.is_main_domain () then
    unlimited_observed
  else unlimited

let () =
  Obs.Metrics.on_hot_change :=
    (fun _ ->
      let r = slot () in
      if !r == unlimited || !r == unlimited_observed then
        r := base_sentinel ())

let m_ticks =
  Obs.Metrics.counter ~help:"Governor ticks charged by the engine hot loops"
    "nullrel_exec_ticks_total"

let tick ?(cost = 1) () =
  let g = !(Stdlib.Domain.DLS.get ambient) in
  if g != unlimited then begin
    (if !Obs.Metrics.hot then begin
       (* Spans are charged on the main domain only, where the shell
          and [.explain analyze] open them (each domain has its own
          span stack); governed session domains still count ticks (the
          counter is atomic). *)
       if Stdlib.Domain.is_main_domain () then begin
         Obs.Span.charge cost;
         (* The history ring is single-writer; this is the writer. *)
         Obs.History.charge cost
       end;
       Obs.Metrics.add m_ticks cost
     end);
    if g != unlimited_observed then begin
      g.charged <- g.charged + cost;
      if g.charged > g.max_tuples then
        Exec_error.raise_
          (Exec_error.Budget_exceeded
             {
               resource = Exec_error.Tuples;
               budget = g.max_tuples;
               used = g.charged;
             });
      g.until_check <- g.until_check - cost;
      if g.until_check <= 0 then full_check g
    end
  end

(* Worker domains must never touch the ambient slot ([charged] and the
   amortization countdown are unsynchronized), so parallel kernels
   count work into a per-task atomic and the coordinator charges it
   between its own chunks. *)
let drain_ticks a =
  let n = Atomic.exchange a 0 in
  if n > 0 then tick ~cost:n ()

let checkpoint () =
  let g = !(slot ()) in
  if limited g then full_check g

let with_governor g f =
  let r = slot () in
  let saved = !r in
  r := g;
  Fun.protect
    ~finally:(fun () ->
      (* Re-derive a stale sentinel: obs may have flipped while [f]
         ran (e.g. a span opened just outside this scope closed). *)
      r :=
        (if saved == unlimited || saved == unlimited_observed then
           base_sentinel ()
         else saved))
    (fun () ->
      if limited g then full_check g;
      f ())

let charged g = g.charged
let memory_high_water g = g.hwm_words
