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

let rec eval ?(index_probe = fun _ -> None) ?observe ~env e =
  let eval = eval ~index_probe ?observe in
  Exec.checkpoint ();
  let around =
    match observe with
    | None -> Obs.Span.with_span (op_label e)
    | Some observe -> observe e
  in
  around (fun () ->
      match e with
      | Rel name -> (
          match env name with
          | Some x -> x
          | None -> raise (Unbound_relation name))
      | Const x -> x
      | Select (p, e) as node -> (
          (* Compiled queries join by a cross-scope equality selection
             over a product (the algebra cannot merge two differently-
             named columns, so [Equijoin] never appears in them); when
             a declared index on the right factor serves the equality,
             probe it per left tuple and never materialize the
             product. Sound because a sure equality is upward-closed
             under subsumption, so selection commutes with the
             minimization the product bakes in. *)
          match e with
          | Product (e1, e2) -> (
              match index_probe node with
              | Some probe ->
                  Storage.Join.probe_equijoin ~probe (eval ~env e1)
              | None -> (
                  (* The product is symmetric, so when the indexed
                     factor sits on the left (the cost-based reorder
                     puts the smallest factor there), probe the
                     commuted node instead. *)
                  let commuted = Select (p, Product (e2, e1)) in
                  match index_probe commuted with
                  | Some probe ->
                      Storage.Join.probe_equijoin ~probe (eval ~env e2)
                  | None -> Algebra.select p (eval ~env e)))
          | _ -> Algebra.select p (eval ~env e))
      | Project (x, e) -> Algebra.project x (eval ~env e)
      | Product (e1, e2) -> Algebra.product (eval ~env e1) (eval ~env e2)
      | Equijoin (x, e1, e2) as node -> (
          (* A probe served by a declared index replaces evaluating the
             build side entirely. *)
          match index_probe node with
          | Some probe -> Storage.Join.probe_equijoin ~probe (eval ~env e1)
          | None -> Storage.Join.hash_equijoin x (eval ~env e1) (eval ~env e2))
      | Union_join (x, e1, e2) ->
          Storage.Join.hash_union_join x (eval ~env e1) (eval ~env e2)
      | Union (e1, e2) -> Xrel.union (eval ~env e1) (eval ~env e2)
      | Diff (e1, e2) -> Xrel.diff (eval ~env e1) (eval ~env e2)
      | Inter (e1, e2) -> Xrel.inter (eval ~env e1) (eval ~env e2)
      | Divide (y, e1, e2) -> Algebra.divide y (eval ~env e1) (eval ~env e2)
      | Rename (mapping, e) -> Algebra.rename mapping (eval ~env e))

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
      Attr.Set.map
        (fun a ->
          match List.find_opt (fun (old, _) -> Attr.equal old a) mapping with
          | Some (_, fresh) -> fresh
          | None -> a)
        (scope_bound ~env_scope e)

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
