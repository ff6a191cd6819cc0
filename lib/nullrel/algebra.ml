(* Per-operator tuple flow, one labeled counter pair per operator.
   Registration is memoized so the hot path is a Hashtbl hit only when
   metrics are enabled; cardinals (O(n)) are likewise only computed
   when someone is watching. *)
let op_counter =
  let tbl = Hashtbl.create 32 in
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

let observed op ~ins result =
  if Obs.Metrics.is_enabled () then begin
    Obs.Metrics.add (op_counter op "in") (ins ());
    Obs.Metrics.add (op_counter op "out") (Xrel.cardinal result)
  end;
  result

let observed1 op x result =
  observed op ~ins:(fun () -> Xrel.cardinal x) result

let observed2 op x1 x2 result =
  observed op ~ins:(fun () -> Xrel.cardinal x1 + Xrel.cardinal x2) result

let select p x = observed1 "select" x (Xrel.filter (Predicate.holds p) x)

let select_ab a cmp b x = select (Predicate.Cmp_attrs (a, cmp, b)) x

let select_ak a cmp k x =
  if Value.is_null k then
    Exec_error.bad_input "Algebra.select_ak: the constant must not be ni";
  select (Predicate.Cmp_const (a, cmp, k)) x

(* Pairwise tuple joins of the non-null tuples of the two operands. Null
   tuples never occur in minimal representations, so no explicit filter is
   needed. On disjoint scopes the result of minimal operands is minimal
   (restricting a strict subsumption to either scope would contradict the
   operand's minimality); otherwise we re-minimize. *)
let pairwise_joins keep x1 x2 =
  Relation.fold
    (fun r1 acc ->
      Relation.fold
        (fun r2 acc ->
          Exec.tick ();
          if keep r1 r2 then
            match Tuple.join r1 r2 with
            | Some joined -> Relation.add joined acc
            | None -> acc
          else acc)
        (Xrel.rep x2) acc)
    (Xrel.rep x1) Relation.empty

let product x1 x2 =
  let raw = pairwise_joins (fun _ _ -> true) x1 x2 in
  observed2 "product" x1 x2
    (if Attr.Set.disjoint (Xrel.scope x1) (Xrel.scope x2) then
       Xrel.unsafe_of_minimal raw
     else Xrel.of_relation raw)

let theta_join a cmp b x1 x2 = select_ab a cmp b (product x1 x2)

let equijoin x x1 x2 =
  let both_x_total r1 r2 = Tuple.is_total_on x r1 && Tuple.is_total_on x r2 in
  observed2 "equijoin" x1 x2
    (Xrel.of_relation (pairwise_joins both_x_total x1 x2))

let union_join x x1 x2 =
  observed2 "union-join" x1 x2
    (Xrel.union (equijoin x x1 x2) (Xrel.union x1 x2))

(* Participation matches the equijoin exactly: both sides X-total,
   agreeing on X, and joinable overall — a pair that conflicts on a
   shared non-X column yields no join tuple and therefore does not
   participate. *)
let participates x other r =
  Tuple.is_total_on x r
  && Relation.fold
       (fun partner found ->
         Exec.tick ();
         found
         || (Tuple.is_total_on x partner
            && Tuple.equal (Tuple.restrict r x) (Tuple.restrict partner x)
            && Tuple.joinable r partner))
       (Xrel.rep other) false

let semijoin x x1 x2 =
  observed2 "semijoin" x1 x2 (Xrel.filter (participates x x2) x1)

let antijoin x x1 x2 =
  observed2 "antijoin" x1 x2
    (Xrel.filter (fun r -> not (participates x x2 r)) x1)

let project x xr =
  observed1 "project" xr
    (Xrel.of_list (List.map (fun r -> Tuple.restrict r x) (Xrel.to_list xr)))

(* A mapping injective on the operand's scope relabels every tuple one
   to one and preserves subsumption both ways, so a minimal operand
   stays minimal; only a rename that merges columns can collapse or
   order tuples and needs re-minimizing. *)
let rename mapping xr =
  let renamed =
    Relation.of_list (List.map (Tuple.rename mapping) (Xrel.to_list xr))
  in
  (* The renamed scope is the scope's image: as large only when the
     mapping is injective on it. *)
  observed1 "rename" xr
    (if
       Attr.Set.cardinal (Relation.scope renamed)
       = Attr.Set.cardinal (Xrel.scope xr)
     then Xrel.unsafe_of_minimal renamed
     else Xrel.of_relation renamed)

let y_total_part y xr = Xrel.filter (Tuple.is_total_on y) xr

let image y z t xr =
  let matches r = Tuple.equal (Tuple.restrict r y) t in
  project z (Xrel.filter matches xr)

let divide y xr s =
  let r_y = y_total_part y xr in
  let candidates = project y r_y in
  (* Every candidate probes the same dividend, so prepare one prober
     (Kernel picks a scan or a subsumption index by |r_y|). *)
  let in_r_y = Kernel.prober (Xrel.rep r_y) in
  let qualifies cand =
    List.for_all
      (fun z ->
        Exec.tick ();
        match Tuple.join cand z with
        | Some joined -> in_r_y joined
        | None -> false)
      (Xrel.to_list s)
  in
  observed2 "divide" xr s (Xrel.filter qualifies candidates)

let divide_algebraic y xr s =
  let r_y = y_total_part y xr in
  let r_y_on_y = project y r_y in
  let missing = project y (Xrel.diff (product r_y_on_y s) r_y) in
  Xrel.diff r_y_on_y missing

let divide_via_images y xr s =
  let r_y = y_total_part y xr in
  let z = Attr.Set.diff (Xrel.scope r_y) y in
  let candidates = project y r_y in
  let qualifies cand = Xrel.contains (image y z cand r_y) s in
  Xrel.filter qualifies candidates
