(* Timing for the bench: a thin wrapper around Bechamel for the measured
   series (ns/run of one thunk), and one interleaved A/B estimator for
   every overhead gate. *)

open Bechamel

let quota = ref 0.25
let limit = ref 500

let fast () =
  quota := 0.05;
  limit := 100

let ns_per_run fn =
  let test = Test.make ~name:"t" (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:!limit ~quota:(Time.second !quota) ~kde:None ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) -> est
      | _ -> acc)
    results nan

let pp_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* The A/B estimator. Its constants are the same for every gate and
   every run profile ([--fast] only shortens the Bechamel series):

   - a sample repeats its thunk until it lasts at least [min_sample_ns]
     (one repeat count, calibrated up front, for both sides), so clock
     resolution and per-call jitter stay far below a 3% gate;
   - [blocks] blocks of [rounds] rounds, the two sides alternating
     which runs first from round to round, so slow drift and
     warm-cache order effects cancel;
   - each block keeps each side's minimum (timing noise only ever adds
     time) and forms the ratio of the two minima, taken close together
     in time;
   - the median of the block ratios rejects the odd block that a GC
     pause or a preemption corrupted throughout. *)
let blocks = 16
let rounds = 10
let min_sample_ns = 2e6

let describe_ab =
  Printf.sprintf "median of %d blocks x %d interleaved rounds" blocks rounds

type ab = { base_ns : float; variant_ns : float; overhead_pct : float }

(* Mean ns per call over [reps] back-to-back calls. *)
let sample reps f =
  let t0 = Monotonic_clock.now () in
  for _ = 1 to reps do
    f ()
  done;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float reps

let calibrate f =
  let rec grow reps =
    if sample reps f *. float reps >= min_sample_ns then reps
    else grow (2 * reps)
  in
  grow 1

let ab ~base ~variant =
  let reps = max (calibrate base) (calibrate variant) in
  Gc.major ();
  let ratios = Array.make blocks 0. in
  let best_base = ref infinity and best_variant = ref infinity in
  for blk = 0 to blocks - 1 do
    let b = ref infinity and v = ref infinity in
    let run_base () = b := Float.min !b (sample reps base) in
    let run_variant () = v := Float.min !v (sample reps variant) in
    for round = 0 to rounds - 1 do
      if (blk + round) land 1 = 0 then begin
        run_base ();
        run_variant ()
      end
      else begin
        run_variant ();
        run_base ()
      end
    done;
    ratios.(blk) <- !v /. !b;
    best_base := Float.min !best_base !b;
    best_variant := Float.min !best_variant !v
  done;
  {
    base_ns = !best_base;
    variant_ns = !best_variant;
    overhead_pct = (median ratios -. 1.) *. 100.;
  }
