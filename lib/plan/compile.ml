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

(* The probe a declared index of [cat] serves for one join node, seen
   through the plan's renames: the translations from
   {!Cost.select_product_probe} carry probe tuples down to base names
   and indexed hits back up. *)
let index_probe_of ~stats cat node =
  match node with
  | Expr.Select (p, Expr.Product (_, e2)) -> (
      (* The compiled-query join shape: a cross-scope equality directly
         over a product. Key each left tuple's value of the non-indexed
         attribute into the index under the indexed attribute's base
         name; a null key surely-equals nothing, so it probes to
         nothing. *)
      match Cost.select_product_probe stats p e2 with
      | None -> None
      | Some (ka, kb, (name, x0, down, up)) -> (
          match Storage.Catalog.equi_probe cat name x0 with
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
   lose their Codd-style row identity inside any plan node. A plan may
   also order and skip the comparisons the evaluator makes (a pushed
   selection empties a factor first), so a qualification that could
   raise, judged by the domains the catalog holds every column to, gets
   the evaluator's answer or error. *)
let evaluator_answers sem db q =
  Quel.Resolve.check db q;
  sem.Semantics.dialect <> Semantics.Ni_lower
  ||
  match q.Quel.Ast.where with
  | None -> false
  | Some c ->
      let domain = Quel.Eval.domains_for db q in
      Predicate.may_raise
        (fun a -> Domain.kind (domain a))
        (Quel.Eval.predicate_of_cond c)

let find db name = List.assoc_opt name db
let schema_of db name = Option.map fst (find db name)
let env_of db name = Option.map snd (find db name)

let optimize ?cost db q =
  let raw =
    query ~schemas:(fun name -> Option.map Schema.attrs (schema_of db name)) q
  in
  let env_scope name = Option.map Schema.attr_set (schema_of db name) in
  (raw, Rewrite.optimize ?cost ~env_scope raw)

(* The evaluator's bands when it answers, else the plan's answer
   [plan ()] as the one band of [Ni_lower]. *)
let answer sem db q plan =
  if evaluator_answers sem db q then
    Quel.Eval.query (Quel.Eval.ctx ~semantics:sem ()) db q
  else
    {
      Quel.Eval.attrs =
        List.map (Quel.Eval.target_attr q.Quel.Ast.targets) q.Quel.Ast.targets;
      sure = Xrel.rep (plan ());
      maybe = None;
    }

(* What a catalog tells the planner about one statement's relations:
   the entries' live row counts (the statement db's for names the
   catalog lacks: [sys_*] relations, materialized views), their fresh
   [.analyze] statistics, each lookup counted as a hit, a miss or
   stale in [nullrel_stats_lookups_total], and the declared indexes. *)
let catalog_source cat db =
  {
    Cost.rowcount =
      (fun name ->
        match Storage.Catalog.cardinal cat name with
        | Some n -> Some n
        | None -> Option.map Xrel.cardinal (env_of db name));
    table =
      (fun name ->
        if not (Storage.Catalog.mem cat name) then None
        else
          match Storage.Catalog.stats_status cat name with
          | Storage.Catalog.Fresh t ->
              Stats.count_hit ();
              Some t
          | Storage.Catalog.Stale _ ->
              Stats.count_stale ();
              None
          | Storage.Catalog.Missing ->
              Stats.count_miss ();
              None);
    equipped = Storage.Catalog.has_equi cat;
  }

type planned = { raw : Expr.t; optimized : Expr.t; stats : Cost.source }

let plan_catalog cat db q =
  Quel.Resolve.check db q;
  let stats = catalog_source cat db in
  let raw, optimized = optimize ~cost:stats db q in
  { raw; optimized; stats }

let current = function Some sem -> sem | None -> Semantics.current ()

let run_catalog ?semantics cat db q =
  answer (current semantics) db q (fun () ->
      let p = plan_catalog cat db q in
      Expr.eval
        ~index_probe:(index_probe_of ~stats:p.stats cat)
        ~schema:(schema_of db) ~env:(env_of db) p.optimized)

let analyze_catalog cat db q =
  let p = plan_catalog cat db q in
  snd
    (Analyze.run
       ~index_probe:(index_probe_of ~stats:p.stats cat)
       ~schema:(schema_of db) ~stats:p.stats ~env:(env_of db) p.optimized)

let run ?semantics db q =
  let sem = current semantics in
  let b =
    answer sem db q (fun () ->
        Expr.eval ~schema:(schema_of db) ~env:(env_of db) (snd (optimize db q)))
  in
  {
    Quel.Eval.attrs = b.Quel.Eval.attrs;
    rel =
      (if sem.Semantics.minimize then Xrel.unsafe_of_minimal b.Quel.Eval.sure
       else Xrel.of_relation b.Quel.Eval.sure);
  }
