open Nullrel

let prefix_mapping v attrs =
  List.map (fun a -> (a, Quel.Resolve.prefixed v (Attr.name a))) attrs

let query ~schemas (q : Quel.Ast.query) =
  let range_plan (v, rel_name) =
    match schemas rel_name with
    | None -> raise (Quel.Resolve.Error ("unknown relation " ^ rel_name))
    | Some attrs -> Expr.Rename (prefix_mapping v attrs, Expr.Rel rel_name)
  in
  let source =
    match List.map range_plan q.Quel.Ast.ranges with
    | [] -> raise (Quel.Resolve.Error "a query needs at least one range clause")
    | first :: rest -> List.fold_left (fun acc e -> Expr.Product (acc, e)) first rest
  in
  let selected =
    match q.Quel.Ast.where with
    | None -> source
    | Some cond -> Expr.Select (Quel.Eval.predicate_of_cond cond, source)
  in
  let prefixed_targets =
    List.map (fun (v, a) -> Quel.Resolve.prefixed v a) q.Quel.Ast.targets
  in
  let output_mapping =
    List.map2
      (fun (v, a) prefixed ->
        (prefixed, Quel.Eval.target_attr q.Quel.Ast.targets (v, a)))
      q.Quel.Ast.targets prefixed_targets
  in
  let projected =
    Expr.Project (Attr.Set.of_list prefixed_targets, selected)
  in
  let needs_rename =
    List.exists (fun (o, n) -> not (Attr.equal o n)) output_mapping
  in
  if needs_rename then Expr.Rename (output_mapping, projected) else projected

(* The probe a declared secondary index serves for one join node, seen
   through the plan's renames. [probe_for] supplies the raw probe over
   a base relation (the shells wire {!Storage.Catalog.equi_probe});
   the translations from {!Cost.probe_target} carry probe tuples down
   to base names and indexed hits back up. *)
let index_probe_of ~stats ~probe_for node =
  match node with
  | Expr.Equijoin (x, _, e2) -> (
      match Cost.probe_target stats x e2 with
      | None -> None
      | Some (name, x0, down, up) -> (
          match probe_for name x0 with
          | None -> None
          | Some p -> Some (fun t -> List.filter_map up (p (down t)))))
  | Expr.Select (p, Expr.Product (_, e2)) -> (
      (* The compiled-query join shape: a cross-scope equality directly
         over a product. Key each left tuple's value of the non-indexed
         attribute into the index under the indexed attribute's base
         name; a null key surely-equals nothing, so it probes to
         nothing. *)
      match Cost.select_product_probe stats p e2 with
      | None -> None
      | Some (ka, kb, (name, x0, down, up)) -> (
          match probe_for name x0 with
          | None -> None
          | Some p ->
              Some
                (fun t ->
                  match Tuple.get t ka with
                  | Value.Null -> []
                  | v ->
                      List.filter_map up
                        (p (down (Tuple.of_list [ (kb, v) ]))))))
  | _ -> None

(* Physical execution serves the Ni_lower dialect only: every operator
   of the physical algebra bakes subsumption minimization in (that is
   the paper's Section 4 discipline), so the plain-set dialects would
   lose their Codd-style row identity inside any plan node. They
   evaluate through the calculus evaluator instead — the planner
   dispatches on the dialect up front, and the Ni_lower path below is
   byte-for-byte the pre-dialect pipeline. *)
let run_bands ?semantics (db : Quel.Resolve.db) q =
  let ctx = Quel.Eval.ctx ?semantics () in
  Quel.Eval.query ctx db q

let run ?stats ?semantics ?(index_probe = fun _ -> None)
    (db : Quel.Resolve.db) q =
  let sem =
    match semantics with Some sem -> sem | None -> Semantics.current ()
  in
  match sem.Semantics.dialect with
  | Semantics.Codd_maybe | Semantics.Sql_3vl | Semantics.Certain ->
      let b = run_bands ~semantics:sem db q in
      { Quel.Eval.attrs = b.Quel.Eval.attrs;
        rel = Xrel.of_relation b.Quel.Eval.sure }
  | Semantics.Ni_lower ->
  Quel.Resolve.check db q;
  let schemas name =
    Option.map (fun (schema, _) -> Schema.attrs schema) (List.assoc_opt name db)
  in
  let plan = query ~schemas q in
  let schema name = Option.map fst (List.assoc_opt name db) in
  let env_scope name = Option.map Schema.attr_set (schema name) in
  let plan = Rewrite.optimize ?cost:stats ~env_scope plan in
  let env name = Option.map snd (List.assoc_opt name db) in
  let attrs =
    List.map (Quel.Eval.target_attr q.Quel.Ast.targets) q.Quel.Ast.targets
  in
  { Quel.Eval.attrs; rel = Expr.eval ~index_probe ~schema ~env plan }
