(* Shared harness: configuration, samples, metric output, the traced
   calls into the engine, and the closing verification every workload
   runs. *)

open Nullrel

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;  (** Scratch directory for durable dirs and traces. *)
  fs : string;  (** Filesystem type of [out], as reported by the runner. *)
}

(* Set-ups per run; [setup_s] is their median. *)
let setups = 3

(* Every workload drives two sessions, which take turns on one domain;
   [Par.Pool] is fixed at one domain too. Two reasons. The catalog
   memoizes each relation's subsumption index in a shared [Lazy.t], and
   two domains forcing the same one raise [CamlinternalLazy.Undefined].
   And on a two-CPU host two busy domains stall each other at every
   stop-the-world collection, so load on either CPU moves both. *)
let sessions = 2

(* ----------------------------- samples ---------------------------- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.; n = 0 }

let push s x =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let sorted ss =
  let a = Array.concat (List.map (fun s -> Array.sub s.a 0 s.n) ss) in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]; [nan] on no samples. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

let median xs = pct (let a = Array.of_list xs in Array.sort compare a; a) 50.
let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b
let now = Exec.monotonic_now

(* --------------------------- accounting --------------------------- *)

(* Operations attempted and failed: wrong answers, conflicts, refused
   commits, exceptions and lost acknowledged transactions. *)
let attempted = Atomic.make 0
let failed = Atomic.make 0
let first_failure : string option Atomic.t = Atomic.make None

let attempt () = Atomic.incr attempted

let fail what =
  Atomic.incr failed;
  ignore (Atomic.compare_and_set first_failure None (Some what))

let check what ok =
  attempt ();
  if not ok then fail what

(* An exception escaping [f] counts as one failed operation. *)
let guard what f =
  match f () with
  | () -> ()
  | exception e ->
      attempt ();
      fail (what ^ ": " ^ Printexc.to_string e)

(* ------------------------------ output ---------------------------- *)

(* Every metric is printed as a line "metric NAME VALUE UNIT"; the ones
   named in BENCHMARK.json also go into the closing JSON object. *)
let json_metrics : (string * float * string) list ref = ref []

let metric ?(json = false) name v unit =
  (* A figure that could not be measured fails the run rather than
     printing a non-number. *)
  let v = if Float.is_finite v then v else (attempt (); fail (name ^ " was not measured"); 0.) in
  Printf.printf "metric %s %s %s\n%!" name (Printf.sprintf "%.6g" v) unit;
  if json then json_metrics := (name, v, unit) :: !json_metrics

let env k v = Printf.printf "env %s=%s\n%!" k v

let finish () =
  let a = Atomic.get attempted and f = Atomic.get failed in
  (match Atomic.get first_failure with
  | Some w -> Printf.printf "first failure: %s\n" w
  | None -> ());
  metric "fail_share" (ratio (float f) (float (max 1 a))) "ratio";
  let ms =
    List.rev !json_metrics
    |> List.map (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
             (Trace.json_string n) v (Trace.json_string u))
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (f = 0) (max 1 a) f (String.concat ", " ms)

let mb words = float words *. float (Sys.word_size / 8) /. 1048576.
let peak_heap_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* The heap an engine holds: everything reachable from it (catalog,
   indexes, commit history, queue), whatever the collector's timing and
   whatever the benchmark's own records hold. The Gc top heap moves with
   when major cycles happen to end (0.2 of its median from run to run),
   and the process's live words grow with the samples a window keeps,
   so with the host's speed; this does neither. *)
let engine_mb (eng : Session.engine) = mb (Obj.reachable_words (Obj.repr eng))

(* The engine's heap, sampled between operations once per block of a
   window; the window reports the median. One sample at the window's
   end would read wherever the engine's bounded buffers happen to stand
   (the per-relation commit history grows to 2048 entries, then is cut
   back to 1024). *)
type heap = { mutable sampled : int; mutable mbs : float list }

let heap () = { sampled = -1; mbs = [] }

let sample_heap h block eng =
  if block <> h.sampled then begin
    h.sampled <- block;
    h.mbs <- engine_mb eng :: h.mbs
  end

let heap_mb h = median h.mbs

(* ---------------------------- files ------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir cfg name =
  let d = Filename.concat cfg.out name in
  rm_rf d;
  d

(* -------------------------- engine calls -------------------------- *)

(* One statement sent as text: [Session.exec_string], with the parse
   and the execution as separate calls into their layers. *)
let exec sess ~tag text =
  let st =
    Trace.span ~layer:"quel" ~name:"Parser.parse_statement" (fun () ->
        Quel.Parser.parse_statement text)
  in
  Trace.span ~layer:"session" ~name:"Session.exec" ~tag (fun () -> Session.exec sess st)

let submit sess =
  Trace.span ~layer:"session" ~name:"Session.submit" (fun () -> Session.submit sess)

let await sess =
  Trace.span ~layer:"session" ~name:"Session.await" (fun () -> Session.await sess)

(* [Session.commit], as its two public halves. *)
let commit sess =
  submit sess;
  await sess

let load_report ~io ~dir =
  Trace.span ~layer:"storage" ~name:"Persist.load_report" (fun () ->
      Storage.Persist.load_report ~io ~dir ())

let open_engine ~io ~dir =
  Trace.span ~layer:"session" ~name:"Session.open_engine" (fun () ->
      Session.open_engine ~io ~dir ())

(* ----------------------------- queries ---------------------------- *)

let text_of_query q = Format.asprintf "%a" Quel.Ast.pp q

let scan_text rel schema =
  Printf.sprintf "range of v is %s retrieve (%s)" rel
    (String.concat ", "
       (List.map (fun a -> "v." ^ Attr.name a) (Schema.attrs schema)))

let same_result (a : Quel.Eval.result) (b : Quel.Eval.result) =
  List.equal Attr.equal a.attrs b.attrs && Xrel.equal a.rel b.rel

let answer (out : Dml.outcome) =
  match out.Dml.result with Some r -> r | None -> failwith "retrieve gave no table"

let cardinal cat rel = Xrel.cardinal (Storage.Catalog.relation cat rel)

(* Rows a full-product evaluation examines: the product of the range
   relations' cardinalities in the snapshot. *)
let examined cat (q : Quel.Ast.query) =
  List.fold_left (fun acc (_, rel) -> acc *. float (cardinal cat rel)) 1. q.ranges

let examined_rows = Atomic.make 0
let answer_rows = Atomic.make 0

let note_rows cat q (r : Quel.Eval.result) =
  if !Trace.on then begin
    ignore (Atomic.fetch_and_add examined_rows (int_of_float (examined cat q)));
    ignore (Atomic.fetch_and_add answer_rows (Xrel.cardinal r.rel))
  end

(* ------------------------------ blocks ---------------------------- *)

(* The end-to-end figures come from a window's fast stretches. On a
   shared host the program's speed drifts over seconds to minutes: a
   bare CPU loop timed once a second ran at 0.58 to 1.0 of its best, and
   runs of one seed differed by 50%. That noise only ever slows the
   program down. So a window is cut into one-second slices; latency is
   the lower quartile over slices of each slice's percentile, and
   throughput the upper quartile over slices of each slice's rate. A
   change to the program moves every slice alike; the host's slow
   stretches move only some of them. (session_read, which repeats its
   statements, takes each statement's fastest run instead.) *)

(* One completed operation: its block, when it ended, and its latency
   in seconds. *)
type event = { block : int; t_end : float; lat : float }

type block = { lats : float array;  (** Sorted. *) ops : int; dur : float }

(* Groups events by block; a block lasts from the last event of the
   block before it (or [t0]) to its own last event. *)
let blocks ~t0 events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e -> Hashtbl.replace tbl e.block (e :: Option.value ~default:[] (Hashtbl.find_opt tbl e.block)))
    events;
  let ids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  let _, bs =
    List.fold_left
      (fun (prev, acc) id ->
        let es = Hashtbl.find tbl id in
        let last = List.fold_left (fun m e -> Float.max m e.t_end) prev es in
        let lats = Array.of_list (List.map (fun e -> e.lat) es) in
        Array.sort compare lats;
        (last, { lats; ops = List.length es; dur = last -. prev } :: acc))
      (t0, []) ids
  in
  List.rev bs

(* Percentile [p] over blocks of [f]. *)
let over bs p f =
  let a = Array.of_list (List.map f bs) in
  Array.sort compare a;
  pct a p

let rate b = float b.ops /. b.dur

(* What a timed window measured: the timed operation's latency
   percentiles (seconds) and throughput, the live heap, its sample and
   block counts, and figures printed for reading only. *)
type window = {
  p50 : float;
  p90 : float;
  ops_per_s : float;
  live_mb : float;
  samples : int;
  nblocks : int;
  extra : (string * float * string) list;
}

(* The figures of a window cut into one-second slices. *)
let sliced ~t0 events heap ~extra =
  let bs = blocks ~t0 events in
  {
    p50 = over bs 25. (fun b -> pct b.lats 50.);
    p90 = over bs 25. (fun b -> pct b.lats 90.);
    ops_per_s = over bs 75. rate;
    live_mb = heap_mb heap;
    samples = List.length events;
    nblocks = List.length bs;
    extra;
  }

(* Records an operation that ended at [t_end] in its one-second slice
   of the window [t0, deadline); later ones count only in the pooled
   figures printed for reading. *)
let slice_event events ~t0 ~deadline ~t_end lat =
  if t_end < deadline then
    events := { block = int_of_float (t_end -. t0); t_end; lat } :: !events

(* Repeats [f] [setups] times and returns the last result with the
   median duration. The discarded results are released by [drop]. *)
let repeated_setup ~drop f =
  let rec go i acc last =
    if i = setups then (Option.get last, median acc)
    else begin
      Option.iter drop last;
      Gc.full_major ();
      let t0 = now () in
      let r = f i in
      go (i + 1) ((now () -. t0) :: acc) (Some r)
    end
  in
  go 0 [] None

(* ---------------------------- verification ------------------------ *)

(* The closing check every workload runs on its engine after the timed
   window: read every relation back through a session, compare one join
   with the planner on the same snapshot, commit one probe transaction,
   then drop the engine without [shutdown] and reopen the directory:
   every acknowledged transaction must be back, with no journal damage
   and no dangling reference. Traced runs record all of it. *)
let verify ~io ~dir eng ~expected ~join ~probe =
  let sess = Session.attach eng in
  let verify_stmt name f = Trace.stmt ~name ~tag:"verify" f in
  List.iter
    (fun (rel, x) ->
      guard ("read back " ^ rel) (fun () ->
          let cat = (Session.snapshot sess).catalog in
          let text = scan_text rel (Storage.Catalog.schema cat rel) in
          let r = verify_stmt "scan" (fun () -> answer (exec sess ~tag:"scan" text)) in
          check ("read back " ^ rel) (Xrel.equal r.rel x)))
    expected;
  guard "join check" (fun () ->
      let cat = (Session.snapshot sess).catalog in
      let q = Quel.Parser.parse join in
      let r = verify_stmt "join" (fun () -> answer (exec sess ~tag:"join" join)) in
      note_rows cat q r;
      let want =
        Trace.span ~layer:"plan" ~name:"Compile.run" (fun () ->
            Plan.Compile.run (Storage.Catalog.to_db cat) q)
      in
      check "join matches planner" (same_result r want));
  guard "probe commit" (fun () ->
      verify_stmt "probe" (fun () ->
          ignore (exec sess ~tag:"probe" probe);
          ignore (commit sess));
      check "probe commit" true);
  let before = (Session.engine_snapshot eng).catalog in
  guard "crash restart" (fun () ->
      let eng', report =
        verify_stmt "restart" (fun () ->
            ignore (load_report ~io ~dir);
            open_engine ~io ~dir)
      in
      let after = report.Storage.Persist.catalog in
      check "restart journal clean" (report.Storage.Persist.journal_note = None);
      check "restart keeps acknowledged"
        (List.for_all
           (fun rel ->
             Storage.Catalog.mem after rel
             && Xrel.equal (Storage.Catalog.relation before rel)
                  (Storage.Catalog.relation after rel))
           (Storage.Catalog.names before));
      check "references intact" (Storage.Catalog.check_references after = []);
      Session.shutdown eng')

(* ----------------------------- counters --------------------------- *)

(* Sum of a registered counter over all its label sets, or of a
   histogram's observations. *)
let obs_total name =
  List.fold_left
    (fun acc (i : Obs.Metrics.info) ->
      if String.equal i.i_name name then
        match i.i_value with
        | Obs.Metrics.Counter_v n -> acc + n
        | Obs.Metrics.Histogram_v { sum; _ } -> acc + sum
        | Obs.Metrics.Gauge_v _ -> acc
      else acc)
    0 (Obs.Metrics.snapshot ())
