open Nullrel

let op_counter =
  let tbl = Hashtbl.create 4 in
  fun op direction ->
    match Hashtbl.find_opt tbl (op, direction) with
    | Some c -> c
    | None ->
        let c =
          Obs.Metrics.counter
            ~labels:[ ("op", op); ("direction", direction) ]
            ~help:"Tuples flowing into and out of algebra operators"
            "nullrel_operator_tuples_total"
        in
        Hashtbl.add tbl (op, direction) c;
        c

let observed2 op x1 x2 result =
  if Obs.Metrics.is_enabled () then begin
    Obs.Metrics.add (op_counter op "in") (Xrel.cardinal x1 + Xrel.cardinal x2);
    Obs.Metrics.add (op_counter op "out") (Xrel.cardinal result)
  end;
  result

let default_index : (module Index_intf.S) = (module Hash_index.Equi)

let chunk_grain = 256

let chunk_count n =
  let d = Par.Pool.domains () in
  min n (max (4 * d) ((n + chunk_grain - 1) / chunk_grain))

(* Probe-side join: each probe tuple looks up its bucket and attempts
   the tuple joins. [tick] is charged once per probe and once per
   attempted join — [Exec.tick] directly when sequential, a local
   count drained by the coordinator when a worker runs the chunk. *)
let join_chunk ~probe probes ~tick lo hi =
  let acc = ref Relation.empty in
  for j = lo to hi - 1 do
    let t1 = probes.(j) in
    tick ();
    List.iter
      (fun t2 ->
        tick ();
        match Tuple.join t1 t2 with
        | Some joined -> acc := Relation.add joined !acc
        | None -> ())
      (probe t1)
  done;
  !acc

let probe_core strategy probe r1 =
  let probes = Array.of_list (Xrel.to_list r1) in
  let n = Array.length probes in
  let parallel =
    match strategy with
    | Kernel.Parallel -> n > 1 && Par.Pool.parallelizable ()
    | Kernel.Auto ->
        n >= Kernel.parallel_cutover && Par.Pool.parallelizable ()
    | Kernel.Sequential | Kernel.Indexed -> false
  in
  if not parallel then
    join_chunk ~probe probes ~tick:(fun () -> Exec.tick ()) 0 n
  else begin
    (* Probe-side chunks against the shared read-only bucket table;
       per-chunk partial relations are merged by set union, so chunk
       boundaries and merge order cannot change the result. *)
    let chunks = chunk_count n in
    let parts = Array.make chunks Relation.empty in
    let ticks = Atomic.make 0 in
    Par.Pool.run ~chunks
      ~progress:(fun () -> Exec.drain_ticks ticks)
      (fun c ->
        let lo = c * n / chunks and hi = (c + 1) * n / chunks in
        let cost = ref 0 in
        parts.(c) <-
          join_chunk ~probe probes ~tick:(fun () -> incr cost) lo hi;
        ignore (Atomic.fetch_and_add ticks !cost));
    Exec.drain_ticks ticks;
    Array.fold_left Relation.union Relation.empty parts
  end

let equijoin_core strategy index x r1 r2 =
  let (module I : Index_intf.S) = index in
  let idx = I.build x r2 in
  probe_core strategy (I.probe idx) r1

let hash_equijoin ?(strategy = Kernel.Auto) ?(index = default_index) x r1 r2 =
  observed2 "hash-equijoin" r1 r2
    (Xrel.of_relation (equijoin_core strategy index x r1 r2))

(* Same probe loop against a pre-built index probe (a declared
   secondary index served by the catalog): the build side is never
   materialized, so the cost is the probe side plus the output. *)
let observed_probe op r1 result =
  if Obs.Metrics.is_enabled () then begin
    Obs.Metrics.add (op_counter op "in") (Xrel.cardinal r1);
    Obs.Metrics.add (op_counter op "out") (Xrel.cardinal result)
  end;
  result

(* The probe's hits come from one minimal relation. When none of them
   binds an attribute of [r1]'s scope, each output tuple splits back
   into its two factors, so two comparable outputs would need
   comparable factors: the output of minimal operands is minimal, the
   test {!Algebra.product} makes. Only a hit that shares a column with
   [r1] sends the output through minimization. *)
let probe_equijoin ?(strategy = Kernel.Indexed) ~probe r1 =
  let scope = Xrel.scope r1 in
  let shared = Atomic.make false in
  let binds_scope t2 =
    Tuple.fold (fun a _ hit -> hit || Attr.Set.mem a scope) t2 false
  in
  let probe t1 =
    let hits = probe t1 in
    if (not (Atomic.get shared)) && List.exists binds_scope hits then
      Atomic.set shared true;
    hits
  in
  let raw = probe_core strategy probe r1 in
  observed_probe "probe-equijoin" r1
    (if Atomic.get shared then Xrel.of_relation raw
     else Xrel.unsafe_of_minimal raw)

let hash_union_join ?strategy ?index x r1 r2 =
  observed2 "hash-union-join" r1 r2
    (Xrel.union (hash_equijoin ?strategy ?index x r1 r2) (Xrel.union r1 r2))
