type strategy = Auto | Sequential | Indexed | Parallel

let strategy_name = function
  | Auto -> "auto"
  | Sequential -> "sequential"
  | Indexed -> "indexed"
  | Parallel -> "parallel"

let strategy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" -> Some Auto
  | "sequential" | "seq" -> Some Sequential
  | "indexed" | "index" -> Some Indexed
  | "parallel" | "par" -> Some Parallel
  | _ -> None

(* Below [indexed_cutover] the index build costs more than the scan it
   avoids — and keeping small inputs on the plain scans preserves the
   exact tick counts that governed callers and the golden bench output
   were written against. *)
let indexed_cutover = 64
let parallel_cutover = 512

(* Same family as the counter in [Relation]; registration is
   idempotent so this aliases it. *)
let m_subsumption =
  Obs.Metrics.counter
    ~help:"Tuple subsumption comparisons in x-membership and minimization"
    "nullrel_subsumption_comparisons_total"

let dispatch_counter =
  let tbl = Hashtbl.create 16 in
  fun kernel strat ->
    let key = (kernel, strat) in
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let c =
          Obs.Metrics.counter
            ~labels:[ ("kernel", kernel); ("strategy", strategy_name strat) ]
            ~help:"Kernel dispatches by chosen strategy"
            "nullrel_kernel_dispatch_total"
        in
        Hashtbl.add tbl key c;
        c

let count_dispatch kernel strat =
  if !Obs.Metrics.enabled then Obs.Metrics.inc (dispatch_counter kernel strat)

(* The [Auto] rule as a function of a size — exposed so a planner can
   pre-commit a strategy from an {e estimated} cardinality instead of
   waiting for the materialized input. *)
let strategy_for n =
  if n < indexed_cutover then Sequential
  else if n >= parallel_cutover && Par.Pool.parallelizable () then Parallel
  else Indexed

(* Chunking: enough chunks for load balance across the pool (stragglers
   hand work back), but at least [chunk_grain] tuples each so the
   per-chunk dispatch cost stays invisible. *)
let chunk_grain = 256

let chunk_count n =
  let d = Par.Pool.domains () in
  min n (max (4 * d) ((n + chunk_grain - 1) / chunk_grain))

let chunk_bounds ~n ~chunks c = (c * n / chunks, (c + 1) * n / chunks)

(* ------------------------------------------------------------------ *)
(* minimize *)

let indexed_keep idx t =
  (not (Tuple.is_null_tuple t))
  && not (Subsume_index.strictly_subsuming_exists idx t)

let indexed_minimize r =
  let idx = Subsume_index.build r in
  Relation.filter
    (fun t ->
      Exec.tick ();
      Obs.Metrics.inc m_subsumption;
      indexed_keep idx t)
    r

let parallel_minimize r =
  let arr = Array.of_list (Relation.to_list r) in
  let n = Array.length arr in
  if n = 0 then r
  else begin
    let idx = Subsume_index.build r in
    (* Build the probe tables once up front, so the workers below do
       not each build the same ones. *)
    Subsume_index.prepare idx (Array.to_list arr);
    let keep = Array.make n false in
    let ticks = Atomic.make 0 in
    let chunks = chunk_count n in
    Par.Pool.run ~chunks
      ~progress:(fun () -> Exec.drain_ticks ticks)
      (fun c ->
        let lo, hi = chunk_bounds ~n ~chunks c in
        for j = lo to hi - 1 do
          keep.(j) <- indexed_keep idx arr.(j)
        done;
        Obs.Metrics.add m_subsumption (hi - lo);
        ignore (Atomic.fetch_and_add ticks (hi - lo)));
    Exec.drain_ticks ticks;
    let out = ref Relation.empty in
    Array.iteri (fun j t -> if keep.(j) then out := Relation.add t !out) arr;
    !out
  end

let minimize ?(strategy = Auto) r =
  let strat =
    match strategy with
    | Auto ->
        let n = Relation.cardinal r in
        if n < indexed_cutover then Sequential
        else if n >= parallel_cutover && Par.Pool.parallelizable () then
          Parallel
        else Indexed
    | s -> s
  in
  count_dispatch "minimize" strat;
  match strat with
  | Sequential | Auto -> Relation.minimize r
  | Indexed -> indexed_minimize r
  | Parallel -> parallel_minimize r

(* ------------------------------------------------------------------ *)
(* subsumes *)

let subsumed_probe idx t =
  Tuple.is_null_tuple t || Subsume_index.subsuming_exists idx t

let indexed_subsumes r1 r2 =
  let idx = Subsume_index.build r1 in
  Relation.fold
    (fun t acc ->
      acc
      &&
      (Exec.tick ();
       Obs.Metrics.inc m_subsumption;
       subsumed_probe idx t))
    r2 true

let parallel_subsumes r1 r2 =
  let arr = Array.of_list (Relation.to_list r2) in
  let n = Array.length arr in
  if n = 0 then true
  else begin
    let idx = Subsume_index.build r1 in
    Subsume_index.prepare idx (Array.to_list arr);
    let failed = Atomic.make false in
    let ticks = Atomic.make 0 in
    let chunks = chunk_count n in
    Par.Pool.run ~chunks
      ~progress:(fun () -> Exec.drain_ticks ticks)
      (fun c ->
        if not (Atomic.get failed) then begin
          let lo, hi = chunk_bounds ~n ~chunks c in
          let ok = ref true and j = ref lo in
          while !ok && !j < hi do
            if not (subsumed_probe idx arr.(!j)) then ok := false;
            incr j
          done;
          Obs.Metrics.add m_subsumption (!j - lo);
          ignore (Atomic.fetch_and_add ticks (!j - lo));
          if not !ok then Atomic.set failed true
        end);
    Exec.drain_ticks ticks;
    not (Atomic.get failed)
  end

let subsumes ?(strategy = Auto) r1 r2 =
  let strat =
    match strategy with
    | Auto ->
        let n1 = Relation.cardinal r1 and n2 = Relation.cardinal r2 in
        if max n1 n2 < indexed_cutover then Sequential
        else if n2 >= parallel_cutover && Par.Pool.parallelizable () then
          Parallel
        else Indexed
    | s -> s
  in
  count_dispatch "subsumes" strat;
  match strat with
  | Sequential | Auto -> Relation.subsumes r1 r2
  | Indexed -> indexed_subsumes r1 r2
  | Parallel -> parallel_subsumes r1 r2

(* ------------------------------------------------------------------ *)
(* x_mem *)

let parallel_x_mem t r =
  let arr = Array.of_list (Relation.to_list r) in
  let n = Array.length arr in
  if n = 0 then false
  else begin
    let found = Atomic.make false in
    let ticks = Atomic.make 0 in
    let chunks = chunk_count n in
    Par.Pool.run ~chunks
      ~progress:(fun () -> Exec.drain_ticks ticks)
      (fun c ->
        if not (Atomic.get found) then begin
          let lo, hi = chunk_bounds ~n ~chunks c in
          let hit = ref false and j = ref lo in
          while (not !hit) && !j < hi do
            if Tuple.more_informative arr.(!j) t then hit := true;
            incr j
          done;
          Obs.Metrics.add m_subsumption (!j - lo);
          ignore (Atomic.fetch_and_add ticks (!j - lo));
          if !hit then Atomic.set found true
        end);
    Exec.drain_ticks ticks;
    Atomic.get found
  end

let x_mem ?(strategy = Auto) t r =
  (* [Auto] stays sequential: one probe never amortizes an index
     build, and the scan is too short to fan out. The dispatch counter
     is skipped on this innermost path. *)
  match strategy with
  | Auto | Sequential -> Relation.x_mem t r
  | Indexed ->
      Exec.tick ();
      Obs.Metrics.inc m_subsumption;
      Subsume_index.subsuming_exists (Subsume_index.build r) t
  | Parallel -> parallel_x_mem t r

(* ------------------------------------------------------------------ *)
(* fold_chunks *)

(* A governed, chunked array fold: [chunk ~lo ~hi] summarizes one slice
   (it must be a pure read of [arr]), [combine] merges summaries
   left-to-right. One tick per element either way, so the governor sees
   the same cost whichever strategy runs. *)
let fold_chunks ?(strategy = Auto) arr ~chunk ~combine ~init =
  let n = Array.length arr in
  if n = 0 then init
  else begin
    let strat =
      match strategy with
      | Auto ->
          if n >= parallel_cutover && Par.Pool.parallelizable () then Parallel
          else Sequential
      | Indexed -> Sequential (* no index to speak of: a scan is a scan *)
      | s -> s
    in
    count_dispatch "fold" strat;
    match strat with
    | Sequential | Indexed | Auto ->
        let acc = ref init in
        let lo = ref 0 in
        while !lo < n do
          let hi = min n (!lo + chunk_grain) in
          acc := combine !acc (chunk ~lo:!lo ~hi);
          Exec.tick ~cost:(hi - !lo) ();
          lo := hi
        done;
        !acc
    | Parallel ->
        let chunks = chunk_count n in
        let parts = Array.make chunks None in
        let ticks = Atomic.make 0 in
        Par.Pool.run ~chunks
          ~progress:(fun () -> Exec.drain_ticks ticks)
          (fun c ->
            let lo, hi = chunk_bounds ~n ~chunks c in
            parts.(c) <- Some (chunk ~lo ~hi);
            ignore (Atomic.fetch_and_add ticks (hi - lo)));
        Exec.drain_ticks ticks;
        Array.fold_left
          (fun acc part ->
            match part with Some p -> combine acc p | None -> acc)
          init parts
  end

(* ------------------------------------------------------------------ *)
(* prober *)

let prober ?(strategy = Auto) r =
  let strat =
    match strategy with
    | Auto ->
        if Relation.cardinal r < indexed_cutover then Sequential else Indexed
    | Parallel ->
        (* One probe at a time: indexed is the parallel-friendly shape
           (a prepared prober is what the parallel kernels use). *)
        Indexed
    | s -> s
  in
  count_dispatch "prober" strat;
  match strat with
  | Sequential | Auto | Parallel -> fun t -> Relation.x_mem t r
  | Indexed ->
      let idx = Subsume_index.build r in
      fun t ->
        Exec.tick ();
        Obs.Metrics.inc m_subsumption;
        Subsume_index.subsuming_exists idx t
