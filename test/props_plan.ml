(* Property tests: the optimizer never changes the meaning of a plan,
   and compiled queries agree with the interpreter, over random
   expression trees and random databases. *)

open Nullrel
open Qgen

let count = 200

let test name arb prop = QCheck.Test.make ~count ~name arb prop

(* --- random plans over two base relations R and S -------------- *)

let predicates =
  Predicate.
    [
      cmp_const "A" Le (Value.Int 1);
      cmp_const "B" Eq (Value.Int 2);
      cmp_attrs "A" Lt "B";
      Not (cmp_const "C" Eq (Value.Int 0));
      And (cmp_const "A" Ge (Value.Int 1), cmp_const "B" Le (Value.Int 2));
      Or (cmp_const "A" Eq (Value.Int 0), cmp_attrs "B" Ge "C");
    ]

let attr_subsets =
  List.map Attr.set_of_list
    [ [ "A" ]; [ "B" ]; [ "A"; "B" ]; [ "A"; "C" ]; [ "A"; "B"; "C" ] ]

(* Joins: a product of a plan over {A, B, C} with one renamed onto
   {D, E, F}, so the factors' scopes are disjoint; selections that
   compare across the two; projections that keep some attributes of
   either side, or of one side only, or none of one factor. *)
let to_def =
  List.map
    (fun (o, n) -> (Attr.make o, Attr.make n))
    [ ("A", "D"); ("B", "E"); ("C", "F") ]

let cross_predicates =
  Predicate.
    [
      cmp_attrs "A" Eq "D";
      cmp_attrs "B" Eq "E";
      cmp_attrs "A" Lt "F";
      And (cmp_attrs "C" Eq "D", cmp_const "E" Ge (Value.Int 1));
      Or (cmp_attrs "A" Eq "D", cmp_const "C" Eq (Value.Int 1));
      Not (cmp_attrs "B" Eq "E");
      cmp_const "F" Le (Value.Int 2);
    ]

let join_subsets =
  List.map Attr.set_of_list
    [ [ "A"; "D" ]; [ "B"; "E"; "F" ]; [ "D" ]; [ "C" ]; [ "C"; "D" ];
      [ "A"; "B"; "C"; "E" ] ]

let plan_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, return (Plan.Expr.Rel "R"));
        (3, return (Plan.Expr.Rel "S"));
        (1, return (Plan.Expr.Const Xrel.bottom));
        (1, map (fun x -> Plan.Expr.Const x) xrel_gen);
      ]
  in
  (* The renamed factor is drawn without joins, so its scope stays
     inside {A, B, C} and the rename never collides. *)
  let rec node ~joins depth =
    if depth = 0 then leaf
    else
      let sub = node ~joins (depth - 1) in
      let join =
        map3
          (fun ps e1 e2 ->
            List.fold_left
              (fun e p -> Plan.Expr.Select (p, e))
              (Plan.Expr.Product (e1, Plan.Expr.Rename (to_def, e2)))
              ps)
          (list_size (int_range 0 2) (oneofl cross_predicates))
          sub
          (node ~joins:false (depth - 1))
      in
      let joins =
        if joins then
          [
            (1, join);
            ( 2,
              map2
                (fun x e -> Plan.Expr.Project (x, e))
                (oneofl join_subsets) join );
          ]
        else []
      in
      frequency
        (joins
        @ [
          (2, leaf);
          ( 3,
            map2
              (fun p e -> Plan.Expr.Select (p, e))
              (oneofl predicates) sub );
          ( 2,
            map2
              (fun x e -> Plan.Expr.Project (x, e))
              (oneofl attr_subsets) sub );
          (2, map2 (fun e1 e2 -> Plan.Expr.Union (e1, e2)) sub sub);
          (2, map2 (fun e1 e2 -> Plan.Expr.Diff (e1, e2)) sub sub);
          (1, map2 (fun e1 e2 -> Plan.Expr.Inter (e1, e2)) sub sub);
          (1, map2 (fun e1 e2 -> Plan.Expr.Product (e1, e2)) sub sub);
          ( 1,
            map3
              (fun x e1 e2 -> Plan.Expr.Equijoin (x, e1, e2))
              (oneofl attr_subsets) sub sub );
          ( 1,
            map3
              (fun y e1 e2 -> Plan.Expr.Divide (y, e1, e2))
              (oneofl attr_subsets) sub sub );
        ])
  in
  node ~joins:true 3

let arbitrary_plan =
  QCheck.make ~print:(Pp.to_string Plan.Expr.pp) plan_gen

let arbitrary_db = QCheck.pair arbitrary_xrel arbitrary_xrel

let env_of (r, s_) name =
  match name with "R" -> Some r | "S" -> Some s_ | _ -> None

let env_scope_of (r, s_) name =
  match name with
  | "R" -> Some (Xrel.scope r)
  | "S" -> Some (Xrel.scope s_)
  | _ -> None

let schema_r =
  Schema.make "R"
    (List.map (fun n -> (n, Domain.Int_range (0, 3))) universe_attrs)

let schema_s =
  Schema.make "S"
    (List.map (fun n -> (n, Domain.Int_range (0, 3))) universe_attrs)

let schema name =
  match name with "R" -> Some schema_r | "S" -> Some schema_s | _ -> None

(* The plan as its operators compose, node by node: no physical join,
   no pushdown. *)
let rec naive env = function
  | Plan.Expr.Rel name -> Option.get (env name)
  | Plan.Expr.Const x -> x
  | Plan.Expr.Select (p, e) -> Algebra.select p (naive env e)
  | Plan.Expr.Project (x, e) -> Algebra.project x (naive env e)
  | Plan.Expr.Product (e1, e2) -> Algebra.product (naive env e1) (naive env e2)
  | Plan.Expr.Equijoin (x, e1, e2) ->
      Algebra.equijoin x (naive env e1) (naive env e2)
  | Plan.Expr.Union_join (x, e1, e2) ->
      Algebra.union_join x (naive env e1) (naive env e2)
  | Plan.Expr.Union (e1, e2) -> Xrel.union (naive env e1) (naive env e2)
  | Plan.Expr.Diff (e1, e2) -> Xrel.diff (naive env e1) (naive env e2)
  | Plan.Expr.Inter (e1, e2) -> Xrel.inter (naive env e1) (naive env e2)
  | Plan.Expr.Divide (y, e1, e2) ->
      Algebra.divide y (naive env e1) (naive env e2)
  | Plan.Expr.Rename (m, e) -> Algebra.rename m (naive env e)

(* Both the answer and the exception, if any. *)
let outcome f = match f () with x -> Ok x | exception e -> Error e

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> Xrel.equal x y
  | Error e, Error e' -> e = e'
  | _ -> false

let eval_is_the_algebra =
  test "eval = the operators composed (joins, pushdown)"
    (QCheck.pair arbitrary_plan arbitrary_db) (fun (plan, db) ->
      let env = env_of db in
      same_outcome
        (outcome (fun () -> naive env plan))
        (outcome (fun () -> Plan.Expr.eval ~schema ~env plan)))

let optimize_preserves_semantics =
  test "optimize preserves plan semantics"
    (QCheck.pair arbitrary_plan arbitrary_db) (fun (plan, db) ->
      let env = env_of db and env_scope = env_scope_of db in
      let optimized = Plan.Rewrite.optimize ~env_scope plan in
      Xrel.equal
        (Plan.Expr.eval ~schema ~env plan)
        (Plan.Expr.eval ~schema ~env optimized))

let optimize_is_idempotent =
  test "optimize is idempotent"
    (QCheck.pair arbitrary_plan arbitrary_db) (fun (plan, db) ->
      let env_scope = env_scope_of db in
      let once = Plan.Rewrite.optimize ~env_scope plan in
      Plan.Expr.equal once (Plan.Rewrite.optimize ~env_scope once))

let scope_bound_is_sound =
  test "scope_bound bounds the evaluated scope"
    (QCheck.pair arbitrary_plan arbitrary_db) (fun (plan, db) ->
      let env = env_of db and env_scope = env_scope_of db in
      Attr.Set.subset
        (Xrel.scope (Plan.Expr.eval ~schema ~env plan))
        (Plan.Expr.scope_bound ~env_scope plan))

(* --- compiled queries vs the interpreter ------------------------ *)

let queries =
  [
    "range of r is R retrieve (r.A, r.B)";
    "range of r is R retrieve (r.A) where r.A <= 1";
    "range of r is R retrieve (r.A, r.B, r.C) where r.A < r.B or r.C = 2";
    "range of r is R range of s is S retrieve (r.A, s.B) where r.A = s.A";
    "range of r is R range of s is S retrieve (r.A, s.C) \
     where r.B >= 1 and s.C <= 2";
    "range of r is R range of s is S retrieve (r.A) \
     where r.A = s.A and not s.B = 0";
  ]

let compiled_equals_interpreted =
  test "compiled (optimized) queries = interpreter" arbitrary_db
    (fun (r, s_) ->
      let db : Quel.Resolve.db = [ ("R", (schema_r, r)); ("S", (schema_s, s_)) ] in
      let schemas name =
        Option.map (fun (s_, _) -> Schema.attrs s_) (List.assoc_opt name db)
      in
      List.for_all
        (fun src ->
          let q = Quel.Parser.parse src in
          let reference = (Quel.Eval.run db q).Quel.Eval.rel in
          let planned, evaluated =
            Helpers.evaluator_ran (fun () -> Plan.Compile.run db q)
          in
          (not evaluated)
          && Xrel.equal reference planned.Quel.Eval.rel
          && Xrel.equal reference
               (Plan.Expr.eval ~schema ~env:(env_of (r, s_))
                  (Plan.Compile.query ~schemas q)))
        queries)

(* --- the one-pass join against the selection it replaces -------- *)

(* Values of one column may be strings, so some comparisons raise: the
   join must raise exactly where the selection over the product does,
   with the same exception. *)
let mixed_xrel_gen ~strings =
  let open QCheck.Gen in
  let strs = map (fun i -> Value.Str (string_of_int i)) (int_range 0 1) in
  let value =
    frequency
      ([ (1, return Value.Null); (3, map (fun i -> Value.Int i) (int_range 0 3)) ]
      @ if strings then [ (1, strs) ] else [])
  in
  let tuple =
    map3
      (fun a b c -> Tuple.of_strings [ ("A", a); ("B", b); ("C", c) ])
      value value value
  in
  map Xrel.of_list (list_size (int_range 0 8) tuple)

let theta_case =
  let open QCheck.Gen in
  let rel = bool >>= fun strings -> mixed_xrel_gen ~strings in
  quad rel rel
    (list_size (int_range 1 3) (oneofl cross_predicates))
    (oneofl cross_predicates)

let arbitrary_theta_case =
  QCheck.make
    ~print:(fun (r, s_, stages, p) ->
      Printf.sprintf "R = %s\nS = %s\nchain = %s\nconjunction with %s"
        (Pp.to_string Xrel.pp r) (Pp.to_string Xrel.pp s_)
        (String.concat " ; " (List.map (Pp.to_string Predicate.pp) stages))
        (Pp.to_string Predicate.pp p))
    theta_case

let theta_join_is_select_over_product =
  test "hash theta-join = select over product, errors included"
    arbitrary_theta_case (fun (r, s_, stages, p) ->
      let s_ = Algebra.rename to_def s_ in
      let env name = List.assoc_opt name [ ("R", r); ("S", s_) ] in
      (* No index serves these joins, so only the schemas' attributes
         are read: their domains do not describe the strings the
         columns may hold. *)
      let schema name =
        let ints = List.map (fun a -> (a, Domain.Ints)) in
        match name with
        | "R" -> Some (Schema.make "R" (ints [ "A"; "B"; "C" ]))
        | "S" -> Some (Schema.make "S" (ints [ "D"; "E"; "F" ]))
        | _ -> None
      in
      let product = Plan.Expr.Product (Plan.Expr.Rel "R", Plan.Expr.Rel "S") in
      let chain =
        List.fold_left (fun e q -> Plan.Expr.Select (q, e)) product stages
      in
      (* One selection holding an equality conjunct and more, and a
         chain of selections, each as the plan states it. *)
      let conj = Predicate.And (Predicate.cmp_attrs "A" Predicate.Eq "D", p) in
      same_outcome
        (outcome (fun () -> Algebra.select conj (Algebra.product r s_)))
        (outcome (fun () ->
             Plan.Expr.eval ~schema ~env (Plan.Expr.Select (conj, product))))
      && same_outcome
           (outcome (fun () ->
                List.fold_left
                  (fun x q -> Algebra.select q x)
                  (Algebra.product r s_) stages))
           (outcome (fun () -> Plan.Expr.eval ~schema ~env chain)))

(* --- the planner against the calculus on null-heavy data ---------- *)

(* Small relations where half the cells are null, so a factor that is
   all-null on the attributes a query keeps turns up often. *)
let null_heavy =
  { Workload.Gen.arity = 3; rows = 6; domain_size = 3; null_density = 0.5 }

let planner_equals_evaluator =
  QCheck.Test.make ~count:500
    ~name:"planner = evaluator on generated queries, many nulls"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let g = Workload.Prng.create seed in
      let db = Workload.Gen.db g null_heavy 2 in
      let q = Workload.Diff.gen_query g db in
      let schemas name =
        Option.map (fun (s_, _) -> Schema.attrs s_) (List.assoc_opt name db)
      in
      let schema name = Option.map fst (List.assoc_opt name db) in
      let env name = Option.map snd (List.assoc_opt name db) in
      let reference = (Quel.Eval.run db q).Quel.Eval.rel in
      let planned, evaluated =
        Helpers.evaluator_ran (fun () -> Plan.Compile.run db q)
      in
      (not evaluated)
      && Xrel.equal reference planned.Quel.Eval.rel
      && Xrel.equal reference
           (Plan.Expr.eval ~schema ~env (Plan.Compile.query ~schemas q)))

(* The same with a hash index declared on every column, and each
   two-range query's qualification joined with an equality across the
   ranges, so a probe of the catalog's index serves the join:
   the indexed factor is then never evaluated, keeps columns the query
   drops, and may sit under a selection the rewriter pushed onto it. *)
let indexed_planner_equals_evaluator =
  QCheck.Test.make ~count:300
    ~name:"planner with declared indexes = evaluator, many nulls"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let g = Workload.Prng.create seed in
      let db = Workload.Gen.db g null_heavy 2 in
      let q = Workload.Diff.gen_query g db in
      let q =
        match q.Quel.Ast.ranges with
        | [ (x, rx); (y, ry) ] ->
            let column rel =
              Attr.name
                (Workload.Prng.choose g
                   (Schema.attrs (fst (List.assoc rel db))))
            in
            let eq =
              Quel.Ast.Cmp
                ( Quel.Ast.Attr (x, column rx),
                  Predicate.Eq,
                  Quel.Ast.Attr (y, column ry) )
            in
            (* A one-range conjunct, which the rewriter pushes onto a
               factor. *)
            let local v rel =
              Quel.Ast.Cmp
                ( Quel.Ast.Attr (v, column rel),
                  Workload.Prng.choose g Predicate.[ Eq; Neq; Lt; Ge ],
                  Quel.Ast.Const (Value.Int (Workload.Prng.int g 3)) )
            in
            let v, rel = Workload.Prng.choose g [ (x, rx); (y, ry) ] in
            let conjuncts =
              eq :: local v rel :: Option.to_list q.Quel.Ast.where
            in
            let where =
              List.fold_left
                (fun c c' -> Quel.Ast.And (c, c'))
                (List.hd conjuncts) (List.tl conjuncts)
            in
            { q with Quel.Ast.where = Some where }
        | _ -> q
      in
      let cat =
        List.fold_left
          (fun cat (name, (schema, x)) ->
            List.fold_left
              (fun cat a ->
                Storage.Catalog.create_index cat name ~kind:"hash"
                  (Attr.Set.singleton a))
              (Storage.Catalog.add cat schema x)
              (Schema.attrs schema))
          Storage.Catalog.empty db
      in
      let reference = (Quel.Eval.run db q).Quel.Eval.rel in
      let planned, evaluated =
        Helpers.evaluator_ran (fun () -> Plan.Compile.run_catalog cat db q)
      in
      (not evaluated)
      && Xrel.equal reference (Xrel.unsafe_of_minimal planned.Quel.Eval.sure))

let suite =
  List.map to_alcotest
    [
      eval_is_the_algebra;
      theta_join_is_select_over_product;
      planner_equals_evaluator;
      indexed_planner_equals_evaluator;
      optimize_preserves_semantics;
      optimize_is_idempotent;
      scope_bound_is_sound;
      compiled_equals_interpreted;
    ]
