open Nullrel

type t =
  | Rel of string
  | Const of Xrel.t
  | Select of Predicate.t * t
  | Project of Attr.Set.t * t
  | Product of t * t
  | Equijoin of Attr.Set.t * t * t
  | Union_join of Attr.Set.t * t * t
  | Union of t * t
  | Diff of t * t
  | Inter of t * t
  | Divide of Attr.Set.t * t * t
  | Rename of (Attr.t * Attr.t) list * t

exception Unbound_relation of string

let op_label = function
  | Rel name -> name
  | Const _ -> "const"
  | Select _ -> "select"
  | Project _ -> "project"
  | Product _ -> "product"
  | Equijoin _ -> "equijoin"
  | Union_join _ -> "union-join"
  | Union _ -> "union"
  | Diff _ -> "diff"
  | Inter _ -> "inter"
  | Divide _ -> "divide"
  | Rename _ -> "rename"

(* The attribute a rename maps [a] to. *)
let renamed mapping a =
  match List.find_opt (fun (old, _) -> Attr.equal old a) mapping with
  | Some (_, fresh) -> fresh
  | None -> a

let rec scope_bound ~env_scope = function
  | Rel name -> (
      match env_scope name with
      | Some s -> s
      | None -> raise (Unbound_relation name))
  | Const x -> Xrel.scope x
  | Select (_, e) -> scope_bound ~env_scope e
  | Project (x, e) -> Attr.Set.inter x (scope_bound ~env_scope e)
  | Product (e1, e2) | Equijoin (_, e1, e2) | Union_join (_, e1, e2)
  | Union (e1, e2) ->
      Attr.Set.union (scope_bound ~env_scope e1) (scope_bound ~env_scope e2)
  | Diff (e1, _) -> scope_bound ~env_scope e1
  | Inter (e1, e2) ->
      Attr.Set.inter (scope_bound ~env_scope e1) (scope_bound ~env_scope e2)
  | Divide (y, _, _) -> y
  | Rename (mapping, e) ->
      Attr.Set.map (renamed mapping) (scope_bound ~env_scope e)

(* The selections stacked on a node, outermost first, and the node
   beneath them. *)
let rec chain = function
  | Select (p, e) ->
      let ps, base = chain e in
      (p :: ps, base)
  | e -> ([], e)

let rec conjuncts = function
  | Predicate.And (p, q) -> conjuncts p @ conjuncts q
  | p -> [ p ]

(* For each attribute of [attrs], the kinds of value ({!Value.kind})
   the tuples of [r] hold there; [0] elsewhere. *)
let kinds attrs r =
  let attrs = Array.of_list (Attr.Set.elements attrs) in
  let masks = Array.make (Array.length attrs) 0 in
  Relation.iter
    (fun t ->
      Array.iteri
        (fun i a -> masks.(i) <- masks.(i) lor Value.kind (Tuple.get t a))
        attrs)
    r;
  let m = ref Attr.Map.empty in
  Array.iteri (fun i a -> m := Attr.Map.add a masks.(i) !m) attrs;
  fun a -> Option.value ~default:0 (Attr.Map.find_opt a !m)

let eval ?(index_probe = fun _ -> None) ?observe ~schema ~env e =
  let relation name =
    match env name with Some x -> x | None -> raise (Unbound_relation name)
  in
  let bound =
    scope_bound ~env_scope:(fun name ->
        Option.map Schema.attr_set (schema name))
  in
  let around : type a. t -> (a -> int) -> (unit -> a) -> a =
   fun e rows f ->
    Exec.checkpoint ();
    match observe with
    | None -> Obs.Span.with_span (op_label e) f
    | Some observe ->
        let result = ref None in
        ignore
          (observe e (fun () ->
               let x = f () in
               result := Some x;
               rows x));
        Option.get !result
  in
  (* A selection chain over a product of disjoint-scope factors: the
     shape the one-pass join below runs. *)
  let join_shape e =
    match chain e with
    | stages, Product (e1, e2)
      when Attr.Set.disjoint (bound e1) (bound e2) ->
        Some (stages, e1, e2)
    | _ -> None
  in
  let restrict w r = Relation.map (fun t -> Tuple.restrict t w) r in
  (* The tuples of [r] no other tuple of [r] subsumes: fewer to pair,
     and the same downward closure. Unlike a minimal representation it
     keeps the null tuple when that is all [r] holds. *)
  let maximal r =
    let m = Kernel.minimize r in
    if Relation.is_empty m && not (Relation.is_empty r) then
      Relation.of_list [ Tuple.empty ]
    else m
  in
  (* The kinds of value the tuples an index probe serves can hold: the
     domains of the base relation's schema, seen through renames (the
     catalog admits no other value). [None] when a selection on the way
     might raise on some base tuple, which the probe never visits. *)
  let rec served_kinds = function
    | Rel name ->
        Option.map
          (fun s a ->
            match Schema.domain s a with Some d -> Domain.kind d | None -> 0)
          (schema name)
    | Rename (m, e) ->
        let back a =
          match List.find_opt (fun (_, fresh) -> Attr.equal fresh a) m with
          | Some (old, _) -> Some old
          | None ->
              if List.exists (fun (old, _) -> Attr.equal old a) m then None
              else Some a
        in
        Option.map
          (fun k a -> match back a with Some a0 -> k a0 | None -> 0)
          (served_kinds e)
    | Select (q, e) -> (
        match served_kinds e with
        | Some k when not (Predicate.may_raise k q) -> Some k
        | _ -> None)
    | _ -> None
  in
  let rec node e = around e Xrel.cardinal (fun () -> run e)
  and run = function
    | Rel name -> relation name
    | Const x -> x
    | Select (p, e) as s -> (
        match join_shape s with
        | Some (stages, e1, e2) ->
            (* Minimal factors over disjoint scopes join to a minimal
               relation, and a selection keeps it minimal. *)
            Xrel.unsafe_of_minimal (join None stages e1 e2)
        | None -> Algebra.select p (node e))
    | Project (x, e) -> Xrel.of_relation (image x e)
    | Product (e1, e2) -> Algebra.product (node e1) (node e2)
    | Equijoin (x, e1, e2) -> Storage.Join.hash_equijoin x (node e1) (node e2)
    | Union_join (x, e1, e2) ->
        Storage.Join.hash_union_join x (node e1) (node e2)
    | Union (e1, e2) -> Xrel.union (node e1) (node e2)
    | Diff (e1, e2) -> Xrel.diff (node e1) (node e2)
    | Inter (e1, e2) -> Xrel.inter (node e1) (node e2)
    | Divide (y, e1, e2) -> Algebra.divide y (node e1) (node e2)
    | Rename (mapping, e) -> Algebra.rename mapping (node e)
  (* [image w e] is [e]'s value cut down to [w] as a plain set, not
     minimized: minimizing it gives the projection of [e] onto [w].
     The projection is pushed through a rename that keeps columns
     apart and into the factors of a join. Keeping the set plain is
     what makes that sound: a non-empty value that holds nothing on [w]
     cuts down to the null tuple, the unit of a product, where its
     minimal projection would be empty, the product's zero. A
     projection the plan states is such a minimal projection, so it is
     evaluated as a node, not pushed through. *)
  and image w e =
    match (join_shape e, e) with
    | Some (stages, e1, e2), _ ->
        around e Relation.cardinal (fun () ->
            let r = join (Some w) stages e1 e2 in
            if Attr.Set.subset (bound e) w then r else restrict w r)
    | None, Rename (m, e')
      when let b = bound e' in
           Attr.Set.cardinal (Attr.Set.map (renamed m) b)
           = Attr.Set.cardinal b ->
        around e Relation.cardinal (fun () ->
            let w' =
              Attr.Set.filter (fun a -> Attr.Set.mem (renamed m a) w) (bound e')
            in
            Relation.map (Tuple.rename m) (image w' e'))
    | None, _ ->
        if Attr.Set.subset (bound e) w then Xrel.rep (node e)
        else
          around (Project (w, e)) Relation.cardinal (fun () ->
              restrict w (Xrel.rep (node e)))
  (* A selection chain [stages] over the product of [e1] and [e2], whose
     scopes are disjoint, run in one pass: the joined pairs the whole
     chain holds for, as a plain set. Without [need] each factor is its
     minimal value, so the pairs are minimal too; with [need = Some w]
     each factor is the maximal tuples of its {!image} on [w] and the
     attributes the chain reads.

     A cross-scope equality conjunct [a = b] is served by a declared
     index when [index_probe] has one, else by hashing the right factor
     on [b] for this query; without one every pair is tried. Each path
     keeps exactly the pairs the chain holds for: a sure equality is
     upward-closed, so the selection commutes with the minimization a
     product bakes in.

     The choice of path must not change an error either. A comparison
     raises only between values of different kinds, so the kinds each
     side holds on the chain's attributes decide whether any pair could
     raise; when one could, the chain runs as the plan states it, a
     selection over the materialized product. *)
  and join need stages e1 e2 =
    let s1 = bound e1 and s2 = bound e2 in
    let p_attrs =
      List.fold_left
        (fun acc p -> Attr.Set.union acc (Predicate.attrs p))
        Attr.Set.empty stages
    in
    let factor e s =
      match need with
      | None -> Xrel.rep (node e)
      | Some w ->
          maximal (image (Attr.Set.inter (Attr.Set.union w p_attrs) s) e)
    in
    let keep t = List.for_all (fun p -> Predicate.holds p t) stages in
    let may_raise k1 k2 =
      List.exists (Predicate.may_raise (fun a -> k1 a lor k2 a)) stages
    in
    let reference () =
      let x1 = node e1 in
      let x2 = node e2 in
      Xrel.rep (List.fold_right Algebra.select stages (Algebra.product x1 x2))
    in
    let equalities =
      List.filter_map
        (function
          | Predicate.Cmp_attrs (a, Predicate.Eq, b) as c ->
              if Attr.Set.mem a s1 && Attr.Set.mem b s2 then Some (c, a, b)
              else if Attr.Set.mem b s1 && Attr.Set.mem a s2 then
                Some (c, b, a)
              else None
          | _ -> None)
        (List.concat_map conjuncts stages)
    in
    let served =
      List.find_map
        (fun (c, a, b) ->
          let serve key ep sp ei =
            match index_probe (Select (c, Product (ep, ei))) with
            | None -> None
            | Some probe ->
                Option.map
                  (fun ki -> (probe, key, ep, sp, bound ei, ki))
                  (served_kinds ei)
          in
          match serve a e1 s1 e2 with
          | Some s -> Some s
          | None -> serve b e2 s2 e1)
        equalities
    in
    match served with
    | Some (probe, key, ep, sp, si, ki) ->
        (* The indexed factor is never evaluated. Its hits depend on the
           probe tuple's key alone, which repeats across the probe side,
           so each key's hits are fetched once and cut down to what the
           join still needs. *)
        let rp = factor ep sp in
        if may_raise (kinds p_attrs rp) ki then reference ()
        else
          let cut =
            match need with
            | Some w when not (Attr.Set.subset si w) ->
                let wi = Attr.Set.inter (Attr.Set.union w p_attrs) si in
                fun hits ->
                  Relation.to_list
                    (Relation.of_list
                       (List.map (fun h -> Tuple.restrict h wi) hits))
            | _ -> Fun.id
          in
          let fetched = Hashtbl.create 16 in
          let probe t =
            let v = Tuple.get t key in
            match Hashtbl.find_opt fetched v with
            | Some hits -> hits
            | None ->
                let hits = cut (probe t) in
                Hashtbl.add fetched v hits;
                hits
          in
          Storage.Join.probe_join "probe-equijoin" ~keep ~probe rp
    | None -> (
        let r1 = factor e1 s1 in
        let r2 = factor e2 s2 in
        if may_raise (kinds p_attrs r1) (kinds p_attrs r2) then reference ()
        else
          match equalities with
          | (_, a, b) :: _ ->
              Storage.Join.probe_join "hash-join" ~keep
                ~probe:(Storage.Join.column_probe a b r2)
                r1
          | [] ->
              let all = Relation.to_list r2 in
              Storage.Join.probe_join "theta-join" ~keep
                ~probe:(fun _ -> all)
                r1)
  in
  node e

let rec size = function
  | Rel _ | Const _ -> 0
  | Select (_, e) | Project (_, e) | Rename (_, e) -> 1 + size e
  | Product (e1, e2)
  | Equijoin (_, e1, e2)
  | Union_join (_, e1, e2)
  | Union (e1, e2)
  | Diff (e1, e2)
  | Inter (e1, e2)
  | Divide (_, e1, e2) ->
      1 + size e1 + size e2

let rec equal e1 e2 =
  match (e1, e2) with
  | Rel n1, Rel n2 -> String.equal n1 n2
  | Const x1, Const x2 -> Xrel.equal x1 x2
  | Select (p1, a), Select (p2, b) -> p1 = p2 && equal a b
  | Project (x1, a), Project (x2, b) -> Attr.Set.equal x1 x2 && equal a b
  | Product (a1, b1), Product (a2, b2) -> equal a1 a2 && equal b1 b2
  | Equijoin (x1, a1, b1), Equijoin (x2, a2, b2)
  | Union_join (x1, a1, b1), Union_join (x2, a2, b2)
  | Divide (x1, a1, b1), Divide (x2, a2, b2) ->
      Attr.Set.equal x1 x2 && equal a1 a2 && equal b1 b2
  | Union (a1, b1), Union (a2, b2)
  | Diff (a1, b1), Diff (a2, b2)
  | Inter (a1, b1), Inter (a2, b2) ->
      equal a1 a2 && equal b1 b2
  | Rename (m1, a), Rename (m2, b) -> m1 = m2 && equal a b
  | ( ( Rel _ | Const _ | Select _ | Project _ | Product _ | Equijoin _
      | Union_join _ | Union _ | Diff _ | Inter _ | Divide _ | Rename _ ),
      _ ) ->
      false

let pp_attrs ppf x =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map Attr.name (Attr.Set.elements x)))

let rec pp ppf = function
  | Rel name -> Format.pp_print_string ppf name
  | Const x -> Format.fprintf ppf "const<%d>" (Xrel.cardinal x)
  | Select (p, e) -> Format.fprintf ppf "select[%a](%a)" Predicate.pp p pp e
  | Project (x, e) -> Format.fprintf ppf "project%a(%a)" pp_attrs x pp e
  | Product (e1, e2) -> Format.fprintf ppf "(%a x %a)" pp e1 pp e2
  | Equijoin (x, e1, e2) ->
      Format.fprintf ppf "(%a join%a %a)" pp e1 pp_attrs x pp e2
  | Union_join (x, e1, e2) ->
      Format.fprintf ppf "(%a ujoin%a %a)" pp e1 pp_attrs x pp e2
  | Union (e1, e2) -> Format.fprintf ppf "(%a u %a)" pp e1 pp e2
  | Diff (e1, e2) -> Format.fprintf ppf "(%a - %a)" pp e1 pp e2
  | Inter (e1, e2) -> Format.fprintf ppf "(%a n %a)" pp e1 pp e2
  | Divide (y, e1, e2) ->
      Format.fprintf ppf "(%a /%a %a)" pp e1 pp_attrs y pp e2
  | Rename (mapping, e) ->
      let pp_one ppf (o, n) =
        Format.fprintf ppf "%a->%a" Attr.pp o Attr.pp n
      in
      Format.fprintf ppf "rename[%a](%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           pp_one)
        mapping pp e
