open Nullrel

let selectivity = 1. /. 3.
let default_cardinality = 1000.
let join_selectivity = 0.1

(* ------------------------ statistics source -------------------- *)

type source = {
  rowcount : string -> int option;
  table : string -> Stats.table option;
  equipped : string -> Attr.Set.t -> bool;
}

let of_rowcount rowcount =
  { rowcount; table = (fun _ -> None); equipped = (fun _ _ -> false) }

(* ------------------- secondary-index targets ------------------- *)

(* Invert one rename layer on one attribute: [None] when the attribute
   was renamed away at this layer (so it is not visible below). *)
let invert_attr mapping a =
  match List.find_opt (fun (_, fresh) -> Attr.equal fresh a) mapping with
  | Some (old, _) -> Some old
  | None ->
      if List.exists (fun (old, _) -> Attr.equal old a) mapping then None
      else Some a

let invert_set mapping x =
  Attr.Set.fold
    (fun a acc ->
      match acc with
      | None -> None
      | Some s -> Option.map (fun a0 -> Attr.Set.add a0 s) (invert_attr mapping a))
    x (Some Attr.Set.empty)

(* A join arm that bottoms out, through renames and selections only,
   in a base relation equipped with a declared index on exactly the
   join attributes. Returns the base name, the attributes under their
   base names, and the tuple translations between the node's scope and
   the base relation's: [down] carries a probe tuple into base names,
   [up] carries an indexed hit back out, or drops it when a selection
   on the way rejects it. The compiler wraps a range variable as
   [Rename (prefix_mapping …, Rel name)] and the rewriter may push a
   selection onto it, so this is the shape every compiled join has. *)
let rec probe_target stats x = function
  | Expr.Rel name ->
      if stats.equipped name x then Some (name, x, Fun.id, Option.some)
      else None
  | Expr.Rename (mapping, e) -> (
      match invert_set mapping x with
      | None -> None
      | Some x0 ->
          let backward = List.map (fun (old, fresh) -> (fresh, old)) mapping in
          Option.map
            (fun (name, xb, down, up) ->
              ( name,
                xb,
                (fun t -> down (Tuple.rename backward t)),
                fun t -> Option.map (Tuple.rename mapping) (up t) ))
            (probe_target stats x0 e))
  | Expr.Select (p, e) ->
      Option.map
        (fun (name, xb, down, up) ->
          ( name,
            xb,
            down,
            fun t ->
              match up t with
              | Some t' when Predicate.holds p t' -> Some t'
              | _ -> None ))
        (probe_target stats x e)
  | _ -> None

(* A compiled query never forms [Equijoin] (the algebra cannot merge
   two differently-named columns into one), so the join shape the
   planner actually sees is a cross-scope equality selection directly
   over a product. When the right factor bottoms out in a base
   relation indexed on its side of the equality, each left tuple's
   value probes the index instead of the product materializing:
   returns (left attribute, indexed attribute, target). Sound because
   a sure equality is upward-closed under subsumption, so filtering
   commutes with minimization. *)
let select_product_probe stats p e2 =
  match p with
  | Predicate.Cmp_attrs (a, Predicate.Eq, b) -> (
      match probe_target stats (Attr.Set.singleton b) e2 with
      | Some target -> Some (a, b, target)
      | None ->
          Option.map
            (fun target -> (b, a, target))
            (probe_target stats (Attr.Set.singleton a) e2))
  | _ -> None

(* Column summary for an attribute visible at a plan node, found by
   digging down to a base relation that binds it, inverting renames on
   the way. Returns the summary plus the base relation's row count
   (the denominator of its null fraction). This deliberately ignores
   what intermediate operators do to the distribution — standard
   attribute-independence optimism. *)
let rec column stats a = function
  | Expr.Rel name -> (
      match stats.table name with
      | Some t ->
          Option.map (fun c -> (c, t.Stats.rows)) (Stats.column t a)
      | None -> None)
  | Expr.Const _ -> None
  | Expr.Select (_, e) | Expr.Project (_, e) -> column stats a e
  | Expr.Product (e1, e2)
  | Expr.Equijoin (_, e1, e2)
  | Expr.Union_join (_, e1, e2)
  | Expr.Union (e1, e2)
  | Expr.Inter (e1, e2) -> (
      match column stats a e1 with
      | Some _ as found -> found
      | None -> column stats a e2)
  | Expr.Diff (e1, _) -> column stats a e1
  | Expr.Divide (_, _, _) -> None
  | Expr.Rename (mapping, e) ->
      if List.exists (fun (old, _) -> Attr.equal old a) mapping then
        (* [a]'s old name was renamed away: not visible here. *)
        None
      else
        let a =
          match
            List.find_opt (fun (_, fresh) -> Attr.equal fresh a) mapping
          with
          | Some (old, _) -> old
          | None -> a
        in
        column stats a e

let null_frac (c, rows) =
  if rows = 0 then 0. else float c.Stats.nulls /. float rows

let not_null cr = 1. -. null_frac cr
let distinct (c, _) = float (max 1 c.Stats.distinct)

(* ------------------------ selectivity -------------------------- *)

let clamp01 s = Float.max 0. (Float.min 1. s)

(* Fraction of an integer column's live range that a comparison
   against [k] keeps, assuming a uniform spread over [lo..hi]. *)
let range_fraction cmp ~lo ~hi k =
  let width = float (hi - lo + 1) in
  let frac =
    match cmp with
    | Predicate.Lt -> float (k - lo) /. width
    | Predicate.Le -> float (k - lo + 1) /. width
    | Predicate.Gt -> float (hi - k) /. width
    | Predicate.Ge -> float (hi - k + 1) /. width
    | Predicate.Eq | Predicate.Neq -> assert false
  in
  clamp01 frac

(* Null-aware predicate selectivity (Table III): a comparison touching
   a null evaluates to [ni] and only TRUE qualifies, so every estimate
   starts by discounting the column's null fraction. Attributes with
   no statistics fall back to the fixed {!selectivity}. *)
let rec pred_selectivity ~col p =
  match p with
  | Predicate.Cmp_const (a, cmp, v) -> (
      match col a with
      | None -> selectivity
      | Some cr -> (
          match cmp with
          | Predicate.Eq -> not_null cr /. distinct cr
          | Predicate.Neq -> not_null cr *. (1. -. (1. /. distinct cr))
          | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge -> (
              let c, _ = cr in
              match (c.Stats.min_int, c.Stats.max_int, v) with
              | Some lo, Some hi, Value.Int k when hi >= lo ->
                  not_null cr *. range_fraction cmp ~lo ~hi k
              | _ -> not_null cr *. selectivity)))
  | Predicate.Cmp_attrs (a, cmp, b) -> (
      match (col a, col b) with
      | Some ca, Some cb ->
          let live = not_null ca *. not_null cb in
          let base =
            match cmp with
            | Predicate.Eq -> 1. /. Float.max (distinct ca) (distinct cb)
            | Predicate.Neq -> 1. -. (1. /. Float.max (distinct ca) (distinct cb))
            | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge ->
                selectivity
          in
          live *. base
      | _ -> selectivity)
  | Predicate.And (p1, p2) ->
      pred_selectivity ~col p1 *. pred_selectivity ~col p2
  | Predicate.Or (p1, p2) ->
      let s1 = pred_selectivity ~col p1 and s2 = pred_selectivity ~col p2 in
      clamp01 (s1 +. s2 -. (s1 *. s2))
  | Predicate.Not p ->
      (* Three-valued complement: [Not p] is TRUE exactly where [p] is
         FALSE — the [ni] rows qualify for neither side. The qualifying
         mass splits the null-free fraction of [p]'s attributes. *)
      let coverage =
        Attr.Set.fold
          (fun a acc ->
            match col a with Some cr -> acc *. not_null cr | None -> acc)
          (Predicate.attrs p) 1.
      in
      clamp01 (coverage -. pred_selectivity ~col p)
  | Predicate.Const Tvl.True -> 1.
  | Predicate.Const (Tvl.False | Tvl.Ni) -> 0.

(* ------------------------ cardinality -------------------------- *)

let rec cardinality ~stats = function
  | Expr.Rel name -> (
      match stats.table name with
      | Some t -> float t.Stats.rows
      | None -> (
          match stats.rowcount name with
          | Some n -> float n
          | None -> default_cardinality))
  | Expr.Const x -> float (Xrel.cardinal x)
  | Expr.Select (p, e) ->
      let col a = column stats a e in
      pred_selectivity ~col p *. cardinality ~stats e
  | Expr.Project (x, e) ->
      (* Capped by the product of per-attribute distinct counts (plus
         one slot for a null) when every projected attribute has
         statistics. *)
      let input = cardinality ~stats e in
      let cap =
        Attr.Set.fold
          (fun a acc ->
            match (acc, column stats a e) with
            | None, _ | _, None -> None
            | Some cap, Some (c, _) ->
                Some
                  (cap
                  *. float (c.Stats.distinct + if c.Stats.nulls > 0 then 1 else 0)
                  ))
          x (Some 1.)
      in
      (match cap with Some cap -> Float.min input cap | None -> input)
  | Expr.Product (e1, e2) -> cardinality ~stats e1 *. cardinality ~stats e2
  | Expr.Equijoin (x, e1, e2) -> equijoin_cardinality ~stats x e1 e2
  | Expr.Union_join (x, e1, e2) ->
      (* Section 6: the union join keeps the equijoin matches plus a
         null-padded remainder of each operand. *)
      equijoin_cardinality ~stats x e1 e2
      +. cardinality ~stats e1 +. cardinality ~stats e2
  | Expr.Union (e1, e2) -> cardinality ~stats e1 +. cardinality ~stats e2
  | Expr.Diff (e1, _) -> cardinality ~stats e1
  | Expr.Inter (e1, e2) ->
      Float.min (cardinality ~stats e1) (cardinality ~stats e2)
  | Expr.Divide (_, e1, _) -> selectivity *. cardinality ~stats e1
  | Expr.Rename (_, e) -> cardinality ~stats e

(* Containment-of-values on each join attribute, discounted by both
   null fractions — a null never matches anything in the sure join
   (Table III again). Falls back to the fixed {!join_selectivity} as
   soon as one attribute lacks statistics on either side. *)
and equijoin_cardinality ~stats x e1 e2 =
  let n1 = cardinality ~stats e1 and n2 = cardinality ~stats e2 in
  let sel =
    Attr.Set.fold
      (fun a acc ->
        match (acc, column stats a e1, column stats a e2) with
        | None, _, _ | _, None, _ | _, _, None -> None
        | Some acc, Some c1, Some c2 ->
            Some
              (acc *. not_null c1 *. not_null c2
              /. Float.max (distinct c1) (distinct c2)))
      x (Some 1.)
  in
  match sel with
  | Some sel -> sel *. n1 *. n2
  | None -> join_selectivity *. n1 *. n2

let rec cost ~stats expr =
  let card = cardinality ~stats in
  match expr with
  | Expr.Rel _ | Expr.Const _ -> 0.
  | Expr.Select (p, Expr.Product (e1, e2))
    when select_product_probe stats p e2 <> None
         || select_product_probe stats p e1 <> None ->
      (* A declared index on one factor turns the equality selection
         over the product into a probe pass over the other factor:
         the product is never materialized. *)
      if select_product_probe stats p e2 <> None then
        card e1 +. cost ~stats e1
      else card e2 +. cost ~stats e2
  | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) ->
      card e +. cost ~stats e
  | Expr.Equijoin (x, e1, e2) ->
      (* A declared index on the build side turns the join into a probe
         pass over the left operand: the build side is never evaluated
         or materialized. *)
      if probe_target stats x e2 <> None then card e1 +. cost ~stats e1
      else (card e1 *. card e2) +. cost ~stats e1 +. cost ~stats e2
  | Expr.Product (e1, e2)
  | Expr.Union_join (_, e1, e2)
  | Expr.Diff (e1, e2)
  | Expr.Inter (e1, e2)
  | Expr.Divide (_, e1, e2) ->
      (card e1 *. card e2) +. cost ~stats e1 +. cost ~stats e2
  | Expr.Union (e1, e2) ->
      card e1 +. card e2 +. cost ~stats e1 +. cost ~stats e2
