(* Ambient metrics registry. Counters and histograms are atomic so
   worker domains in the Par pool and session domains in the Session
   engine can update them concurrently; an update is still just a
   load, a branch on [enabled], and lock-free RMWs. Gauges stay plain
   mutable fields — they are only written under the writer's own
   serialization (the coordinator domain, or the session engine's
   lock). The open-span count is atomic as well, since a span may open
   on any domain. Registration and dumps remain coordinator-only. *)

let enabled = ref false
let hot = ref false

(* Spans open on every domain; atomic, since any domain may open one. *)
let open_spans = Atomic.make 0

(* Fired when [hot] flips, so a lower layer can fold the obs check into
   a fast-path compare it already performs (Nullrel.Exec swaps its
   ambient sentinel). Obs cannot depend on that layer, hence a hook. *)
let on_hot_change : (bool -> unit) ref = ref ignore

let recompute_hot () =
  let h = !enabled || Atomic.get open_spans > 0 in
  if h <> !hot then begin
    hot := h;
    !on_hot_change h
  end

let set_enabled b =
  enabled := b;
  recompute_hot ()

let is_enabled () = !enabled

let spans_opened () =
  Atomic.incr open_spans;
  recompute_hot ()

let rec spans_closed () =
  let n = Atomic.get open_spans in
  if n > 0 && not (Atomic.compare_and_set open_spans n (n - 1)) then
    spans_closed ()
  else recompute_hot ()

type counter = int Atomic.t
type gauge = { mutable g : float }

(* 63 log2 buckets cover every non-negative OCaml int: bucket 0 holds
   v <= 0, bucket i (1 <= i <= 62) holds values with exactly i
   significant bits, i.e. 2^(i-1) <= v <= 2^i - 1. *)
let buckets = 63

type histogram = {
  counts : int Atomic.t array; (* length [buckets] *)
  sum : int Atomic.t;
  n : int Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

type entry = {
  name : string;
  labels : (string * string) list;
  help : string;
  metric : metric;
}

(* Registration happens at module-load time or from shell commands, not
   in hot loops, so a simple list scan is fine. Kept in registration
   order; dumps group consecutive same-name entries into one family. *)
let registry : entry list ref = ref []

let kind_of = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let find name labels =
  List.find_opt (fun e -> e.name = name && e.labels = labels) !registry

let register name labels help kind make =
  let mismatch other =
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s registered as both %s and %s" name
         other kind)
  in
  match find name labels with
  | Some e ->
      if kind_of e.metric <> kind then mismatch (kind_of e.metric);
      e.metric
  | None ->
      (match List.find_opt (fun e -> e.name = name) !registry with
      | Some e when kind_of e.metric <> kind -> mismatch (kind_of e.metric)
      | _ -> ());
      let metric = make () in
      registry := !registry @ [ { name; labels; help; metric } ];
      metric

let counter ?(labels = []) ~help name =
  match register name labels help "counter" (fun () -> C (Atomic.make 0)) with
  | C c -> c
  | _ -> assert false

let gauge ?(labels = []) ~help name =
  match register name labels help "gauge" (fun () -> G { g = 0. }) with
  | G g -> g
  | _ -> assert false

let histogram ?(labels = []) ~help name =
  match
    register name labels help "histogram" (fun () ->
        H
          {
            counts = Array.init buckets (fun _ -> Atomic.make 0);
            sum = Atomic.make 0;
            n = Atomic.make 0;
          })
  with
  | H h -> h
  | _ -> assert false

let inc c = if !enabled then Atomic.incr c
let add c n = if !enabled then ignore (Atomic.fetch_and_add c n)
let set_gauge g v = if !enabled then g.g <- v

let bucket_index v =
  if v <= 0 then 0
  else
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    bits 0 v

let observe h v =
  if !enabled then begin
    Atomic.incr h.counts.(bucket_index v);
    ignore (Atomic.fetch_and_add h.sum v);
    Atomic.incr h.n
  end

let counter_value c = Atomic.get c
let bucket_count h i = Atomic.get h.counts.(i)
let histogram_sum h = Atomic.get h.sum
let histogram_count h = Atomic.get h.n

let reset () =
  List.iter
    (fun e ->
      match e.metric with
      | C c -> Atomic.set c 0
      | G g -> g.g <- 0.
      | H h ->
          Array.iter (fun c -> Atomic.set c 0) h.counts;
          Atomic.set h.sum 0;
          Atomic.set h.n 0)
    !registry

(* Upper bound of bucket i as a Prometheus [le] string: bucket 0 is
   le="0", bucket i is le="2^i - 1", the last is +Inf. *)
let le_string i =
  if i = 0 then "0"
  else if i >= buckets - 1 then "+Inf"
  else string_of_int ((1 lsl i) - 1)

(* Prometheus label-value escaping is its own dialect: only backslash,
   double-quote and newline become escape sequences; every other byte
   is emitted verbatim. OCaml's %S is close but wrong — it writes tabs
   as backslash-t and non-ASCII bytes as decimal escapes, both of which
   scrapers reject as invalid exposition lines. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text allows [\\] and [\n] escapes only (no quoting). *)
let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let label_string_extra labels extra =
  label_string (labels @ [ extra ])

let dump_prometheus () =
  let buf = Buffer.create 1024 in
  let seen_family = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if not (Hashtbl.mem seen_family e.name) then begin
        Hashtbl.add seen_family e.name ();
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" e.name (escape_help e.help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" e.name (kind_of e.metric))
      end;
      match e.metric with
      | C c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" e.name (label_string e.labels)
               (Atomic.get c))
      | G g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %g\n" e.name (label_string e.labels) g.g)
      | H h ->
          let cumulative = ref 0 in
          for i = 0 to buckets - 1 do
            let c = Atomic.get h.counts.(i) in
            cumulative := !cumulative + c;
            (* Elide empty interior buckets to keep dumps readable; the
               +Inf bucket always appears so the series is well formed. *)
            if c > 0 || i = buckets - 1 then
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" e.name
                   (label_string_extra e.labels ("le", le_string i))
                   !cumulative)
          done;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %d\n" e.name (label_string e.labels)
               (Atomic.get h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" e.name (label_string e.labels)
               (Atomic.get h.n)))
    !registry;
  Buffer.contents buf

(* Point-in-time view of one registry entry. Each atomic is read once,
   so within a single [snapshot] every counter value is a real value the
   counter held; there is no torn read of an individual metric. *)
type value_snapshot =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { sum : int; count : int; counts : int array }

type info = {
  i_name : string;
  i_labels : (string * string) list;
  i_help : string;
  i_kind : string;
  i_value : value_snapshot;
}

let snapshot () =
  List.map
    (fun e ->
      let v =
        match e.metric with
        | C c -> Counter_v (Atomic.get c)
        | G g -> Gauge_v g.g
        | H h ->
            Histogram_v
              {
                sum = Atomic.get h.sum;
                count = Atomic.get h.n;
                counts = Array.map Atomic.get h.counts;
              }
      in
      {
        i_name = e.name;
        i_labels = e.labels;
        i_help = e.help;
        i_kind = kind_of e.metric;
        i_value = v;
      })
    !registry

(* Quantile estimate from per-bucket counts: the upper bound of the
   first bucket whose cumulative count reaches q of the total. Log2
   buckets make this exact to within 2x, which is all a p99-over-time
   series needs. *)
let quantile_of_counts counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then None
  else
    let target =
      let t = int_of_float (ceil (q *. float_of_int total)) in
      if t < 1 then 1 else if t > total then total else t
    in
    let rec go i cum =
      if i >= Array.length counts then None
      else
        let cum = cum + counts.(i) in
        if cum >= target then
          Some (if i = 0 then 0. else float_of_int ((1 lsl i) - 1))
        else go (i + 1) cum
    in
    go 0 0
