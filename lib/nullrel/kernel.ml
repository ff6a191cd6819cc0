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
  fun kernel path ->
    let key = (kernel, path) in
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let name =
          match path with
          | `Sequential -> "sequential"
          | `Indexed -> "indexed"
          | `Parallel -> "parallel"
        in
        let c =
          Obs.Metrics.counter
            ~labels:[ ("kernel", kernel); ("strategy", name) ]
            ~help:"Kernel dispatches by chosen strategy"
            "nullrel_kernel_dispatch_total"
        in
        Hashtbl.add tbl key c;
        c

let count_dispatch kernel path =
  if !Obs.Metrics.enabled then Obs.Metrics.inc (dispatch_counter kernel path)

let fans_out n = n >= parallel_cutover && Par.Pool.parallelizable ()

(* The path of a kernel whose scan would compare [scan] tuples and whose
   fan-out would split [fan] of them, counted under
   [nullrel_kernel_dispatch_total]. *)
let choose kernel ~scan ~fan =
  let path =
    if scan < indexed_cutover then `Sequential
    else if fans_out fan then `Parallel
    else `Indexed
  in
  count_dispatch kernel path;
  path

(* Chunking: enough chunks for load balance across the pool (stragglers
   hand work back), but at least [chunk_grain] tuples each so the
   per-chunk dispatch cost stays invisible. *)
let chunk_grain = 256

let fan_out n ~chunk ~combine ~init =
  let chunks =
    min n (max (4 * Par.Pool.domains ()) ((n + chunk_grain - 1) / chunk_grain))
  in
  let parts = Array.make chunks None in
  let ticks = Atomic.make 0 in
  Par.Pool.run ~chunks
    ~progress:(fun () -> Exec.drain_ticks ticks)
    (fun c ->
      let lo = c * n / chunks and hi = (c + 1) * n / chunks in
      let part, cost = chunk ~lo ~hi in
      parts.(c) <- Some part;
      ignore (Atomic.fetch_and_add ticks cost));
  Exec.drain_ticks ticks;
  (* The pool returns only once every chunk has run. *)
  Array.fold_left (fun acc part -> combine acc (Option.get part)) init parts

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
  let idx = Subsume_index.build r in
  (* Build the probe tables once up front, so the chunks below do not
     each build the same ones. *)
  Subsume_index.prepare idx (Array.to_list arr);
  fan_out (Array.length arr) ~init:Relation.empty ~combine:Relation.union
    ~chunk:(fun ~lo ~hi ->
      let kept = ref Relation.empty in
      for j = lo to hi - 1 do
        if indexed_keep idx arr.(j) then kept := Relation.add arr.(j) !kept
      done;
      Obs.Metrics.add m_subsumption (hi - lo);
      (!kept, hi - lo))

let minimize r =
  let n = Relation.cardinal r in
  match choose "minimize" ~scan:n ~fan:n with
  | `Sequential -> Relation.minimize r
  | `Indexed -> indexed_minimize r
  | `Parallel -> parallel_minimize r

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
  let idx = Subsume_index.build r1 in
  Subsume_index.prepare idx (Array.to_list arr);
  (* Once a chunk finds an unsubsumed tuple, the chunks not yet started
     are skipped. *)
  let failed = Atomic.make false in
  fan_out (Array.length arr) ~init:true ~combine:( && )
    ~chunk:(fun ~lo ~hi ->
      if Atomic.get failed then (true, 0)
      else begin
        let ok = ref true and j = ref lo in
        while !ok && !j < hi do
          ok := subsumed_probe idx arr.(!j);
          incr j
        done;
        Obs.Metrics.add m_subsumption (!j - lo);
        if not !ok then Atomic.set failed true;
        (!ok, !j - lo)
      end)

let subsumes r1 r2 =
  let n2 = Relation.cardinal r2 in
  match choose "subsumes" ~scan:(max (Relation.cardinal r1) n2) ~fan:n2 with
  | `Sequential -> Relation.subsumes r1 r2
  | `Indexed -> indexed_subsumes r1 r2
  | `Parallel -> parallel_subsumes r1 r2

(* ------------------------------------------------------------------ *)
(* fold_chunks *)

(* One tick per element on either path, so the governor sees the same
   cost whether the fold fans out or not. *)
let fold_chunks arr ~chunk ~combine ~init =
  let n = Array.length arr in
  if n = 0 then init
  else if fans_out n then begin
    count_dispatch "fold" `Parallel;
    fan_out n ~combine ~init ~chunk:(fun ~lo ~hi -> (chunk ~lo ~hi, hi - lo))
  end
  else begin
    count_dispatch "fold" `Sequential;
    let acc = ref init in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + chunk_grain) in
      acc := combine !acc (chunk ~lo:!lo ~hi);
      Exec.tick ~cost:(hi - !lo) ();
      lo := hi
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* prober *)

let prober r =
  if Relation.cardinal r < indexed_cutover then begin
    count_dispatch "prober" `Sequential;
    fun t -> Relation.x_mem t r
  end
  else begin
    count_dispatch "prober" `Indexed;
    let idx = Subsume_index.build r in
    fun t ->
      Exec.tick ();
      Obs.Metrics.inc m_subsumption;
      Subsume_index.subsuming_exists idx t
  end
