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

(* Probe-side join: each probe tuple looks up its bucket and attempts
   the tuple joins, keeping the joined tuples [keep] accepts. [tick] is
   charged once per probe and once per attempted join — [Exec.tick]
   directly on the calling domain, a local count reported to
   [Kernel.fan_out] when the probes fan out. *)
let join_chunk ~keep ~probe probes ~tick lo hi =
  let acc = ref Relation.empty in
  for j = lo to hi - 1 do
    let t1 = probes.(j) in
    tick ();
    List.iter
      (fun t2 ->
        tick ();
        match Tuple.join t1 t2 with
        | Some joined when keep joined -> acc := Relation.add joined !acc
        | _ -> ())
      (probe t1)
  done;
  !acc

(* Every probe on the calling domain. *)
let join_all ~keep ~probe probes =
  join_chunk ~keep ~probe probes
    ~tick:(fun () -> Exec.tick ())
    0 (Array.length probes)

let keep_all _ = true

(* The build side is [r2]'s subsumption index: its listing of [x],
   published before any probe runs, is the hash table. From
   [Kernel.parallel_cutover] probe tuples on a pool of several domains
   the probes fan out against that shared read-only table; the
   per-chunk partial relations are merged by set union, so chunk
   boundaries and merge order cannot change the result. *)
let hash_equijoin x r1 r2 =
  let probe = Subsume_index.equi_probe (Subsume_index.build (Xrel.rep r2)) x in
  let probes = Array.of_list (Xrel.to_list r1) in
  let n = Array.length probes in
  let joined =
    if Kernel.fans_out n then
      Kernel.fan_out n ~init:Relation.empty ~combine:Relation.union
        ~chunk:(fun ~lo ~hi ->
          let cost = ref 0 in
          let part =
            join_chunk ~keep:keep_all ~probe probes
              ~tick:(fun () -> incr cost)
              lo hi
          in
          (part, !cost))
    else join_all ~keep:keep_all ~probe probes
  in
  observed2 "hash-equijoin" r1 r2 (Xrel.of_relation joined)

(* The planner's one-pass join works on plain tuple sets, which it
   minimizes once at the end, so nothing here minimizes. *)
let probe_join op ~keep ~probe r1 =
  let out = join_all ~keep ~probe (Array.of_list (Relation.to_list r1)) in
  if Obs.Metrics.is_enabled () then begin
    Obs.Metrics.add (op_counter op "in") (Relation.cardinal r1);
    Obs.Metrics.add (op_counter op "out") (Relation.cardinal out)
  end;
  out

module Values = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Two non-null values of one kind surely equal each other exactly when
   they are [Value.equal], so a table keyed by value finds every
   partner of a probe key; a null key surely equals nothing. *)
let column_probe a b r2 =
  let tbl = Values.create (max 16 (Relation.cardinal r2)) in
  Relation.iter
    (fun t ->
      match Tuple.get t b with
      | Value.Null -> ()
      | v -> Values.add tbl v t)
    r2;
  fun t1 ->
    match Tuple.get t1 a with
    | Value.Null -> []
    | v -> Values.find_all tbl v

let hash_union_join x r1 r2 =
  observed2 "hash-union-join" r1 r2
    (Xrel.union (hash_equijoin x r1 r2) (Xrel.union r1 r2))
