open Nullrel

type result = { attrs : Attr.t list; rel : Xrel.t }

type bands = {
  attrs : Attr.t list;
  sure : Relation.t;
  maybe : Relation.t option;
}

type tautology_strategy = Brute_force | Symbolic_first

type ctx = {
  semantics : Semantics.t;
  governor : Exec.t option;
  strategy : tautology_strategy;
  legal : (Tuple.t -> bool) option;
}

let ctx ?semantics ?governor ?(strategy = Symbolic_first) ?legal () =
  let semantics =
    match semantics with Some sem -> sem | None -> Semantics.current ()
  in
  { semantics; governor; strategy; legal }

let target_attr targets (v, a) =
  let same_attr = List.filter (fun (_, a') -> String.equal a a') targets in
  if List.length same_attr <= 1 then Attr.make a else Resolve.prefixed v a

let flip = function
  | Predicate.Eq -> Predicate.Eq
  | Predicate.Neq -> Predicate.Neq
  | Predicate.Lt -> Predicate.Gt
  | Predicate.Gt -> Predicate.Lt
  | Predicate.Le -> Predicate.Ge
  | Predicate.Ge -> Predicate.Le

let rec predicate_of_cond = function
  | Ast.Cmp (Ast.Attr (v, a), cmp, Ast.Attr (w, b)) ->
      Predicate.Cmp_attrs (Resolve.prefixed v a, cmp, Resolve.prefixed w b)
  | Ast.Cmp (Ast.Attr (v, a), cmp, Ast.Const k) ->
      Predicate.Cmp_const (Resolve.prefixed v a, cmp, k)
  | Ast.Cmp (Ast.Const k, cmp, Ast.Attr (v, a)) ->
      Predicate.Cmp_const (Resolve.prefixed v a, flip cmp, k)
  | Ast.Cmp (Ast.Const k1, cmp, Ast.Const k2) ->
      Predicate.Const (Predicate.apply_comparison cmp k1 k2)
  | Ast.And (c1, c2) ->
      Predicate.And (predicate_of_cond c1, predicate_of_cond c2)
  | Ast.Or (c1, c2) -> Predicate.Or (predicate_of_cond c1, predicate_of_cond c2)
  | Ast.Not c -> Predicate.Not (predicate_of_cond c)

(* A range variable's tuples, re-keyed onto prefixed attributes. The
   prefixed names are built once per range, from the schema, and a
   common prefix keeps each tuple's attribute order. *)
let prefixed_tuples db (v, rel_name) =
  let schema, x = Resolve.relation db rel_name in
  let names =
    List.fold_left
      (fun m a -> Attr.Map.add a (Resolve.prefixed v (Attr.name a)) m)
      Attr.Map.empty (Schema.attrs schema)
  in
  let prefixed a =
    match Attr.Map.find_opt a names with
    | Some p -> p
    | None -> Resolve.prefixed v (Attr.name a)
  in
  let rekey (a, value) = (prefixed a, value) in
  List.map
    (fun r -> Tuple.of_list (List.map rekey (Tuple.to_list r)))
    (Xrel.to_list x)

(* Calls [f] on every combined tuple of a checked query, in
   [combined_tuples]' order, one row at a time: the product is never
   held, so a query keeps alive only what [f] keeps. Each join of a
   partial row with a range tuple charges one tick. *)
let iter_combined db q f =
  let rec extend combined = function
    | [] -> f combined
    | tuples :: rest ->
        List.iter
          (fun r ->
            Exec.tick ();
            match Tuple.join combined r with
            | Some c -> extend c rest
            | None -> ())
          tuples
  in
  extend Tuple.empty (List.map (prefixed_tuples db) q.Ast.ranges)

let combined_tuples db q =
  Resolve.check db q;
  let rows = ref [] in
  iter_combined db q (fun r -> rows := r :: !rows);
  List.rev !rows

let output_attrs q = List.map (target_attr q.Ast.targets) q.Ast.targets

(* Projects a combined row onto the target list. [project q attrs] pairs
   each output attribute with its prefixed source once, sorted by output
   attribute so that each row's bindings arrive in order; the sort is
   stable, so a repeated output still takes its later binding in
   [Tuple.of_list]. *)
let project q attrs =
  let pairs =
    List.stable_sort
      (fun (_, o) (_, o') -> Attr.compare o o')
      (List.map2
         (fun (v, a) out -> (Resolve.prefixed v a, out))
         q.Ast.targets attrs)
  in
  fun r ->
    Tuple.of_list (List.map (fun (src, out) -> (out, Tuple.get r src)) pairs)

let project_targets q rows =
  let attrs = output_attrs q in
  { attrs; rel = Xrel.of_list (List.map (project q attrs) rows) }

(* The dialect's empty-qualification default comes from the capability
   record, not from a literal: Section 5 reads an absent qualification
   as vacuously satisfied, and [Semantics.conj_empty] pins that for
   every dialect (the regression tests hold this against
   [Tvl.conj []] and the empty-divisor division). *)
let qualification ?(semantics = Semantics.of_dialect Semantics.Ni_lower) q =
  match q.Ast.where with
  | None -> Predicate.Const semantics.Semantics.conj_empty
  | Some c -> predicate_of_cond c

(* Qualification loops charge one tick per candidate row: predicate
   evaluation over the combined tuples is real work the governor must
   see (the joins in [iter_combined] are charged separately). *)
let ticked keep r =
  Exec.tick ();
  keep r

(* The dialect-parameterized core: one pass over the combined tuples,
   each placed in a band by the dialect's admission rule and projected
   into it at once, then the dialect's set discipline applied to the
   bands. A band is a set of projections, so a query holds neither the
   product nor the rows it admits. Every entry point below is a shim
   over this. *)
let query ctx db q =
  let sem = ctx.semantics in
  let run () =
    Obs.Span.with_span ("quel.query." ^ sem.Semantics.name) (fun () ->
        let p = qualification ~semantics:sem q in
        Resolve.check db q;
        let attrs = output_attrs q in
        let scope = Attr.Set.of_list attrs in
        let row = project q attrs in
        let into band r =
          let t = row r in
          if Semantics.admit_tuple sem scope t then band := Relation.add t !band
        in
        let sure = ref Relation.empty and maybe = ref Relation.empty in
        iter_combined db q (fun r ->
            Exec.tick ();
            match sem.Semantics.admit (Semantics.eval sem p r) with
            | Semantics.Sure -> into sure r
            | Semantics.Maybe -> if sem.Semantics.reports_maybe then into maybe r
            | Semantics.Out -> ());
        let sure =
          (* Through Xrel so the minimizing dialect pays the kernel
             minimizer (bucketed, parallel-capable), not the naive
             quadratic Relation.minimize — E25 gates this path. *)
          if sem.Semantics.minimize then Xrel.rep (Xrel.of_relation !sure)
          else !sure
        in
        let maybe =
          if not sem.Semantics.reports_maybe then None
          else
            Some
              (if sem.Semantics.exclude_sure then
                 Relation.filter (fun r -> not (Relation.mem r sure)) !maybe
               else !maybe)
        in
        { attrs; sure; maybe })
  in
  match ctx.governor with
  | None -> run ()
  | Some g -> Exec.with_governor g run

let run db q =
  let b = query (ctx ~semantics:(Semantics.of_dialect Semantics.Ni_lower) ()) db q in
  { attrs = b.attrs; rel = Xrel.unsafe_of_minimal b.sure }

let run_string db src = run db (Parser.parse src)

let run_maybe db q =
  let b = query (ctx ~semantics:(Semantics.of_dialect Semantics.Codd_maybe) ()) db q in
  let band = match b.maybe with Some m -> m | None -> Relation.empty in
  { attrs = b.attrs; rel = Xrel.of_relation band }

(* Domain of a prefixed attribute [v.A], from [v]'s schema. *)
let domains_for db q =
  let schemas =
    List.map (fun (v, rel) -> (v, fst (Resolve.relation db rel))) q.Ast.ranges
  in
  fun attr ->
    let name = Attr.name attr in
    match String.index_opt name '.' with
    | None -> Exec_error.bad_input ("Eval: unprefixed attribute " ^ name)
    | Some i -> (
        let v = String.sub name 0 i in
        let a = String.sub name (i + 1) (String.length name - i - 1) in
        match List.assoc_opt v schemas with
        | None -> Exec_error.bad_input ("Eval: unknown variable in " ^ name)
        | Some schema -> (
            match Schema.domain schema (Attr.make a) with
            | Some d -> d
            | None -> Exec_error.bad_input ("Eval: unknown attribute " ^ name)))

(* Shared scaffolding for the bounds that must reason about
   substitutions: [decide] gets the compiled predicate, the domain
   oracle and a combined tuple whose qualification evaluated to ni. *)
let run_with_ni_decision db q decide =
  let p = qualification q in
  let domains = domains_for db q in
  let keep r =
    match Predicate.eval p r with
    | Tvl.True -> true
    | Tvl.False -> false
    | Tvl.Ni -> decide p domains r
  in
  let rows = List.filter (ticked keep) (combined_tuples db q) in
  project_targets q rows

let run_upper ?legal db q =
  Obs.Span.with_span "quel.run_upper" (fun () ->
      let legal_fn = Option.value legal ~default:(fun _ -> true) in
      run_with_ni_decision db q (fun p domains r ->
          match (legal, Codd.Tautology.breakpoints_exists p r) with
          | None, Some answer -> answer
          | _ -> Codd.Tautology.brute_force_exists ~domains ~legal:legal_fn p r))

let run_unknown ?(strategy = Symbolic_first) ?legal db q =
  Obs.Span.with_span "quel.run_unknown" (fun () ->
      let p = qualification q in
      let domains = domains_for db q in
      let legal_fn = Option.value legal ~default:(fun _ -> true) in
      let brute r = Codd.Tautology.brute_force ~domains ~legal:legal_fn p r in
      let tautology r =
        match (strategy, legal) with
        (* The symbolic checker cannot see integrity constraints; any
           [legal] forces the brute-force path. *)
        | Brute_force, _ | Symbolic_first, Some _ -> brute r
        | Symbolic_first, None -> (
            match Codd.Tautology.breakpoints p r with
            | Some answer -> answer
            | None -> brute r)
      in
      let keep r =
        match Predicate.eval p r with
        | Tvl.True -> true
        | Tvl.False -> false
        | Tvl.Ni -> tautology r
      in
      let rows = List.filter (ticked keep) (combined_tuples db q) in
      project_targets q rows)
