open Nullrel

type env = (string * Quel.Ast.query) list

exception Cycle of string
exception Error of string

let errorf fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* The (label -> source) mapping a view exposes. Labels must be bare
   attribute names — a view whose target list is ambiguous (duplicate
   attribute names forcing qualified labels) cannot be referenced from
   an outer query, so it is rejected here. *)
let output_mapping view_name (view : Quel.Ast.query) =
  List.map
    (fun (w, a) ->
      let label = Quel.Eval.target_attr view.Quel.Ast.targets (w, a) in
      if String.contains (Attr.name label) '.' then
        errorf "view %s: ambiguous target %s.%s needs distinct column names"
          view_name w a;
      (Attr.name label, (w, a)))
    view.Quel.Ast.targets

let rename_var ~outer w = outer ^ "$" ^ w

let rec rename_cond f = function
  | Quel.Ast.Cmp (t1, cmp, t2) -> Quel.Ast.Cmp (f t1, cmp, f t2)
  | Quel.Ast.And (c1, c2) -> Quel.Ast.And (rename_cond f c1, rename_cond f c2)
  | Quel.Ast.Or (c1, c2) -> Quel.Ast.Or (rename_cond f c1, rename_cond f c2)
  | Quel.Ast.Not c -> Quel.Ast.Not (rename_cond f c)

(* Unfold the range (v, view_name) inside [q]. *)
let unfold_range ~view_name ~view q v =
  let mapping = output_mapping view_name view in
  let fresh w = rename_var ~outer:v w in
  (* references v.label become (fresh w).a *)
  let rewrite_ref (var, label) =
    if String.equal var v then
      match List.assoc_opt label mapping with
      | Some (w, a) -> (fresh w, a)
      | None ->
          errorf "view %s has no column %s (referenced as %s.%s)" view_name
            label v label
    else (var, label)
  in
  let rewrite_term = function
    | Quel.Ast.Attr (var, label) ->
        let var, label = rewrite_ref (var, label) in
        Quel.Ast.Attr (var, label)
    | Quel.Ast.Const _ as c -> c
  in
  let freshen_term = function
    | Quel.Ast.Attr (w, a) -> Quel.Ast.Attr (fresh w, a)
    | Quel.Ast.Const _ as c -> c
  in
  let ranges =
    List.concat_map
      (fun (var, rel) ->
        if String.equal var v then
          List.map (fun (w, rel) -> (fresh w, rel)) view.Quel.Ast.ranges
        else [ (var, rel) ])
      q.Quel.Ast.ranges
  in
  let targets = List.map rewrite_ref q.Quel.Ast.targets in
  let outer_where = Option.map (rename_cond rewrite_term) q.Quel.Ast.where in
  let view_where = Option.map (rename_cond freshen_term) view.Quel.Ast.where in
  let where =
    match (outer_where, view_where) with
    | None, w | w, None -> w
    | Some a, Some b -> Some (Quel.Ast.And (a, b))
  in
  { Quel.Ast.ranges; targets; where }

let rec expand_guarded ~views ~visiting q =
  match
    List.find_opt (fun (_, rel) -> List.mem_assoc rel views) q.Quel.Ast.ranges
  with
  | None -> q
  | Some (v, view_name) ->
      if List.mem view_name visiting then raise (Cycle view_name);
      let definition =
        match List.assoc_opt view_name views with
        | Some d -> d
        | None -> errorf "no view named %s" view_name
      in
      let view =
        expand_guarded ~views ~visiting:(view_name :: visiting) definition
      in
      expand_guarded ~views ~visiting
        (unfold_range ~view_name ~view q v)

let expand ~views q = expand_guarded ~views ~visiting:[] q

let view_schema db ~views name =
  match List.assoc_opt name views with
  | None -> errorf "no view named %s" name
  | Some view ->
      let body = expand ~views view in
      let columns =
        List.map
          (fun (label, _) ->
            (* find the base attribute the (expanded) view retrieves *)
            let w, a =
              match List.assoc_opt label (output_mapping name body) with
              | Some source -> source
              | None -> errorf "view %s: no column %s after expansion" name label
            in
            let rel_name =
              match List.assoc_opt w body.Quel.Ast.ranges with
              | Some r -> r
              | None -> errorf "view %s: unbound variable %s" name w
            in
            let schema, _ = Quel.Resolve.relation db rel_name in
            match Schema.domain schema (Attr.make a) with
            | Some d -> (label, d)
            | None ->
                errorf "view %s: %s has no attribute %s" name rel_name a)
          (output_mapping name view)
      in
      Schema.make name columns

let materialize cat ~views name =
  match List.assoc_opt name views with
  | None -> errorf "no view named %s" name
  | Some view ->
      let db = Storage.Catalog.to_db cat in
      let b =
        Compile.run_catalog
          ~semantics:(Semantics.of_dialect Semantics.Ni_lower)
          cat db (expand ~views view)
      in
      (view_schema db ~views name, Xrel.unsafe_of_minimal b.Quel.Eval.sure)

let db_with_views cat ~views =
  List.fold_left
    (fun acc (name, _) ->
      if List.mem_assoc name acc then
        errorf "view %s shadows an existing relation" name
      else (name, materialize cat ~views name) :: acc)
    (Storage.Catalog.to_db cat) views
