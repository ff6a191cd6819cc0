(* Plans: evaluation, rewrite rules on concrete shapes, the cost model,
   and mini-QUEL compilation. *)

open Nullrel
open Helpers

let env_of bindings name = List.assoc_opt name bindings
let scope_of bindings name =
  Option.map Xrel.scope (List.assoc_opt name bindings)

(* The test relations hold ints only. *)
let schema_of bindings name =
  Option.map
    (fun x ->
      Schema.make name
        (List.map
           (fun a -> (Attr.name a, Domain.Ints))
           (Attr.Set.elements (Xrel.scope x))))
    (List.assoc_opt name bindings)

let r_rel =
  x [ t [ ("A", i 1); ("B", i 2) ]; t [ ("A", i 3); ("B", i 1) ]; t [ ("A", i 5) ] ]

let s_rel = x [ t [ ("C", i 1) ]; t [ ("C", i 3) ] ]

let bindings = [ ("R", r_rel); ("S", s_rel) ]
let env = env_of bindings
let env_scope = scope_of bindings
let schema = schema_of bindings
let eval e = Plan.Expr.eval ~schema ~env e
let optimize e = Plan.Rewrite.optimize ~env_scope e

let test_eval_operators () =
  check_xrel "base relation" r_rel (eval (Plan.Expr.Rel "R"));
  check_xrel "const" s_rel (eval (Plan.Expr.Const s_rel));
  check_xrel "select"
    (Algebra.select (Predicate.cmp_const "A" Predicate.Le (i 1)) r_rel)
    (eval (Plan.Expr.Select (Predicate.cmp_const "A" Predicate.Le (i 1), Rel "R")));
  check_xrel "project"
    (Algebra.project (aset [ "A" ]) r_rel)
    (eval (Plan.Expr.Project (aset [ "A" ], Rel "R")));
  check_xrel "product"
    (Algebra.product r_rel s_rel)
    (eval (Plan.Expr.Product (Rel "R", Rel "S")));
  check_xrel "union" (Xrel.union r_rel s_rel)
    (eval (Plan.Expr.Union (Rel "R", Rel "S")));
  check_xrel "diff" (Xrel.diff r_rel s_rel)
    (eval (Plan.Expr.Diff (Rel "R", Rel "S")));
  check_xrel "inter" (Xrel.inter r_rel s_rel)
    (eval (Plan.Expr.Inter (Rel "R", Rel "S")));
  check_xrel "divide"
    (Algebra.divide (aset [ "A" ]) r_rel s_rel)
    (eval (Plan.Expr.Divide (aset [ "A" ], Rel "R", Rel "S")));
  check_xrel "rename"
    (Algebra.rename [ (a_ "A", a_ "Z") ] r_rel)
    (eval (Plan.Expr.Rename ([ (a_ "A", a_ "Z") ], Rel "R")));
  Alcotest.(check bool) "unbound relation raises" true
    (try
       ignore (eval (Plan.Expr.Rel "NOPE"));
       false
     with Plan.Expr.Unbound_relation "NOPE" -> true)

let test_scope_bound () =
  let sb e = Plan.Expr.scope_bound ~env_scope e in
  Alcotest.check attr_set "base" (aset [ "A"; "B" ]) (sb (Rel "R"));
  Alcotest.check attr_set "product"
    (aset [ "A"; "B"; "C" ])
    (sb (Plan.Expr.Product (Rel "R", Rel "S")));
  Alcotest.check attr_set "project narrows" (aset [ "A" ])
    (sb (Plan.Expr.Project (aset [ "A"; "C" ], Rel "R")));
  Alcotest.check attr_set "rename maps" (aset [ "Z"; "B" ])
    (sb (Plan.Expr.Rename ([ (a_ "A", a_ "Z") ], Rel "R")));
  Alcotest.check attr_set "divide is Y" (aset [ "A" ])
    (sb (Plan.Expr.Divide (aset [ "A" ], Rel "R", Rel "S")))

let p_a = Predicate.cmp_const "A" Predicate.Le (i 1)
let p_c = Predicate.cmp_const "C" Predicate.Eq (i 1)

let test_rewrite_pushes_select_into_product () =
  let plan = Plan.Expr.Select (p_a, Product (Rel "R", Rel "S")) in
  let optimized = optimize plan in
  Alcotest.(check bool) "select moved inside" true
    (Plan.Expr.equal optimized
       (Plan.Expr.Product (Select (p_a, Rel "R"), Rel "S")));
  check_xrel "semantics preserved" (eval plan) (eval optimized)

let test_rewrite_splits_and_pushes_both () =
  let plan =
    Plan.Expr.Select (Predicate.And (p_a, p_c), Product (Rel "R", Rel "S"))
  in
  let optimized = optimize plan in
  Alcotest.(check bool) "both conjuncts pushed" true
    (Plan.Expr.equal optimized
       (Plan.Expr.Product (Select (p_a, Rel "R"), Select (p_c, Rel "S"))));
  check_xrel "semantics preserved" (eval plan) (eval optimized)

let test_rewrite_respects_null_overlap () =
  (* A predicate over an attribute both operands can bind must NOT be
     pushed: the right operand supplies A for R's (B=...) tuples. *)
  let overlap = x [ t [ ("A", i 5); ("C", i 9) ] ] in
  let bindings = [ ("R", r_rel); ("T", overlap) ] in
  let env = env_of bindings and env_scope = scope_of bindings in
  let schema = schema_of bindings in
  let p = Predicate.cmp_const "A" Predicate.Eq (i 5) in
  let plan = Plan.Expr.Select (p, Product (Rel "R", Rel "T")) in
  let optimized = Plan.Rewrite.optimize ~env_scope plan in
  Alcotest.(check bool) "selection stays above the product" true
    (match optimized with Plan.Expr.Select _ -> true | _ -> false);
  check_xrel "semantics preserved"
    (Plan.Expr.eval ~schema ~env plan)
    (Plan.Expr.eval ~schema ~env optimized)

let test_rewrite_select_through_union_diff () =
  let plan = Plan.Expr.Select (p_a, Union (Rel "R", Rel "R")) in
  let optimized = optimize plan in
  Alcotest.(check bool) "distributed over union" true
    (match optimized with Plan.Expr.Union (Select _, Select _) -> true | _ -> false);
  check_xrel "union semantics" (eval plan) (eval optimized);
  let dplan = Plan.Expr.Select (p_a, Diff (Rel "R", Rel "S")) in
  let doptimized = optimize dplan in
  Alcotest.(check bool) "pushed into minuend" true
    (match doptimized with Plan.Expr.Diff (Select _, Rel "S") -> true | _ -> false);
  check_xrel "diff semantics" (eval dplan) (eval doptimized)

let test_rewrite_select_through_rename () =
  let rename_all =
    [ (a_ "A", a_ "X"); (a_ "B", a_ "Y"); (a_ "C", a_ "Z") ]
  in
  let p_x = Predicate.cmp_const "X" Predicate.Le (i 1) in
  let plan = Plan.Expr.Select (p_x, Rename (rename_all, Rel "R")) in
  let optimized = optimize plan in
  Alcotest.(check bool) "select moved below the rename" true
    (match optimized with
    | Plan.Expr.Rename (_, Select (Predicate.Cmp_const (a, _, _), Rel "R")) ->
        Attr.equal a (a_ "A")
    | _ -> false);
  check_xrel "semantics preserved" (eval plan) (eval optimized);
  (* Guard: a predicate over a rename SOURCE must stay above (the
     attribute no longer exists there — it is always ni). *)
  let p_a_src = Predicate.cmp_const "A" Predicate.Le (i 1) in
  let partial = [ (a_ "A", a_ "X") ] in
  let blocked = Plan.Expr.Select (p_a_src, Rename (partial, Rel "R")) in
  let blocked' = optimize blocked in
  Alcotest.(check bool) "source-named select stays put" true
    (match blocked' with Plan.Expr.Select _ -> true | _ -> false);
  check_xrel "blocked plan still evaluates (to empty)" Xrel.bottom
    (eval blocked)

let test_rewrite_projection_rules () =
  let cascade =
    Plan.Expr.Project (aset [ "A" ], Project (aset [ "A"; "B" ], Rel "R"))
  in
  Alcotest.(check bool) "cascades fuse" true
    (Plan.Expr.equal (optimize cascade)
       (Plan.Expr.Project (aset [ "A" ], Rel "R")));
  let identity = Plan.Expr.Project (aset [ "A"; "B"; "Z" ], Rel "R") in
  Alcotest.(check bool) "identity projection vanishes" true
    (Plan.Expr.equal (optimize identity) (Plan.Expr.Rel "R"));
  check_xrel "cascade semantics" (eval cascade) (eval (optimize cascade))

let test_rewrite_constant_folding () =
  let empty = Plan.Expr.Const Xrel.bottom in
  Alcotest.(check bool) "product with empty" true
    (Plan.Expr.equal (optimize (Product (Rel "R", empty))) empty);
  Alcotest.(check bool) "union with empty" true
    (Plan.Expr.equal (optimize (Union (empty, Rel "R"))) (Plan.Expr.Rel "R"));
  Alcotest.(check bool) "diff of empty" true
    (Plan.Expr.equal (optimize (Diff (empty, Rel "R"))) empty);
  Alcotest.(check bool) "diff with empty subtrahend" true
    (Plan.Expr.equal (optimize (Diff (Rel "R", empty))) (Plan.Expr.Rel "R"))

let stats =
  Plan.Cost.of_rowcount (fun name ->
      if name = "R" then Some 1000 else Some 100)

let test_cost_model () =
  let unpushed = Plan.Expr.Select (p_a, Product (Rel "R", Rel "S")) in
  let pushed = Plan.Expr.Product (Select (p_a, Rel "R"), Rel "S") in
  Alcotest.(check bool) "pushdown reduces estimated cost" true
    (Plan.Cost.cost ~stats pushed < Plan.Cost.cost ~stats unpushed);
  Alcotest.(check bool) "pushdown reduces estimated cardinality too" true
    (Plan.Cost.cardinality ~stats pushed
    <= Plan.Cost.cardinality ~stats unpushed);
  Alcotest.(check bool) "unknown stats use the default" true
    (Plan.Cost.cardinality
       ~stats:(Plan.Cost.of_rowcount (fun _ -> None))
       (Rel "Z")
    = Plan.Cost.default_cardinality)

let qa_db : Quel.Resolve.db =
  [ ("EMP", (Paperdata.Fixtures.emp_schema_finite_tel, Paperdata.Fixtures.emp)) ]

let test_compile_matches_eval () =
  let schemas name =
    Option.map (fun (s_, _) -> Schema.attrs s_) (List.assoc_opt name qa_db)
  in
  let schema name = Option.map fst (List.assoc_opt name qa_db) in
  let env name = Option.map snd (List.assoc_opt name qa_db) in
  List.iter
    (fun src ->
      let q = Quel.Parser.parse src in
      let reference = Quel.Eval.run qa_db q in
      let compiled = Plan.Compile.run qa_db q in
      let unoptimized =
        Plan.Expr.eval ~schema ~env (Plan.Compile.query ~schemas q)
      in
      check_xrel "compiled = interpreter" reference.Quel.Eval.rel
        compiled.Quel.Eval.rel;
      check_xrel "unoptimized = interpreter" reference.Quel.Eval.rel
        unoptimized;
      Alcotest.(check (list string)) "columns agree"
        (List.map Attr.name reference.Quel.Eval.attrs)
        (List.map Attr.name compiled.Quel.Eval.attrs))
    [
      Paperdata.Fixtures.qa_verbatim;
      "range of e is EMP retrieve (e.NAME)";
      "range of e is EMP retrieve (e.NAME, e.E#) where e.SEX = \"M\"";
      "range of e is EMP range of m is EMP retrieve (e.NAME) \
       where e.MGR# = m.E#";
      "range of e is EMP range of m is EMP retrieve (e.NAME, m.NAME) \
       where e.MGR# = m.E# and m.SEX = \"M\"";
    ]

(* The unit rule of the projection pushdown. A factor that is
   non-empty but holds no value on the attributes the query keeps is the
   product's unit: R's one tuple is null on A2, so retrieving (x.A2,
   y.A1) keeps S's tuple. Projecting each factor first and multiplying
   the projections would give nothing, since a minimal representation
   drops the null tuple. *)
let test_pushdown_unit_rule () =
  let schema name attrs =
    Schema.make name (List.map (fun a -> (a, Domain.Ints)) attrs)
  in
  let r = x [ t [ ("B", i 1) ] ] and s_ = x [ t [ ("A1", i 3) ] ] in
  let db : Quel.Resolve.db =
    [ ("R", (schema "R" [ "A2"; "B" ], r)); ("S", (schema "S" [ "A1" ], s_)) ]
  in
  let q =
    Quel.Parser.parse "range of x is R range of y is S retrieve (x.A2, y.A1)"
  in
  let planned = Plan.Compile.run db q in
  check_xrel "one tuple, y.A1 = 3" (x [ t [ ("A1", i 3) ] ])
    planned.Quel.Eval.rel;
  check_xrel "planner = evaluator" (Quel.Eval.run db q).Quel.Eval.rel
    planned.Quel.Eval.rel;
  Alcotest.(check int) "the naive pushdown loses it" 0
    (Xrel.cardinal
       (Algebra.product
          (Algebra.project (aset [ "A2" ]) r)
          (Algebra.project (aset [ "A1" ]) s_)))

let test_compile_plan_shape () =
  let q =
    Quel.Parser.parse
      "range of e is EMP range of m is EMP retrieve (e.NAME) \
       where m.SEX = \"M\" and e.E# >= 4000"
  in
  let schemas name =
    Option.map (fun (s_, _) -> Schema.attrs s_) (List.assoc_opt name qa_db)
  in
  let plan = Plan.Compile.query ~schemas q in
  let env_scope name =
    Option.map (fun (s_, _) -> Schema.attr_set s_) (List.assoc_opt name qa_db)
  in
  let optimized = Plan.Rewrite.optimize ~env_scope plan in
  (* Both conjuncts are single-variable: after optimization neither
     selection sits above the product any more. *)
  let rec has_select_above_product = function
    | Plan.Expr.Select (_, Plan.Expr.Product _) -> true
    | Plan.Expr.Select (_, e)
    | Plan.Expr.Project (_, e)
    | Plan.Expr.Rename (_, e) ->
        has_select_above_product e
    | Plan.Expr.Product (e1, e2)
    | Plan.Expr.Equijoin (_, e1, e2)
    | Plan.Expr.Union_join (_, e1, e2)
    | Plan.Expr.Union (e1, e2)
    | Plan.Expr.Diff (e1, e2)
    | Plan.Expr.Inter (e1, e2)
    | Plan.Expr.Divide (_, e1, e2) ->
        has_select_above_product e1 || has_select_above_product e2
    | Plan.Expr.Rel _ | Plan.Expr.Const _ -> false
  in
  Alcotest.(check bool) "selections pushed off the product" false
    (has_select_above_product optimized);
  (* and the estimated cost strictly drops *)
  let stats =
    Plan.Cost.of_rowcount (fun name ->
        Option.map (fun (_, x) -> Xrel.cardinal x) (List.assoc_opt name qa_db))
  in
  Alcotest.(check bool) "estimated cost drops" true
    (Plan.Cost.cost ~stats optimized < Plan.Cost.cost ~stats plan)

let test_pp_and_size () =
  let plan = Plan.Expr.Select (p_a, Product (Rel "R", Rel "S")) in
  Alcotest.(check int) "two operator nodes" 2 (Plan.Expr.size plan);
  let printed = Nullrel.Pp.to_string Plan.Expr.pp plan in
  Alcotest.(check bool) "rendering mentions both relations" true
    (let contains needle =
       let nh = String.length printed and nn = String.length needle in
       let rec go i =
         i + nn <= nh && (String.sub printed i nn = needle || go (i + 1))
       in
       go 0
     in
     contains "R" && contains "S" && contains "select")

let suite =
  [
    Alcotest.test_case "eval covers every operator" `Quick test_eval_operators;
    Alcotest.test_case "scope bounds" `Quick test_scope_bound;
    Alcotest.test_case "select pushes into product" `Quick
      test_rewrite_pushes_select_into_product;
    Alcotest.test_case "conjunction splits and pushes" `Quick
      test_rewrite_splits_and_pushes_both;
    Alcotest.test_case "pushdown respects null overlap" `Quick
      test_rewrite_respects_null_overlap;
    Alcotest.test_case "select through union and diff" `Quick
      test_rewrite_select_through_union_diff;
    Alcotest.test_case "select through rename" `Quick
      test_rewrite_select_through_rename;
    Alcotest.test_case "projection rules" `Quick test_rewrite_projection_rules;
    Alcotest.test_case "constant folding" `Quick test_rewrite_constant_folding;
    Alcotest.test_case "cost model" `Quick test_cost_model;
    Alcotest.test_case "compiled = interpreted" `Quick
      test_compile_matches_eval;
    Alcotest.test_case "compiled plan shape" `Quick test_compile_plan_shape;
    Alcotest.test_case "pushed projection keeps the product's unit" `Quick
      test_pushdown_unit_rule;
    Alcotest.test_case "pp and size" `Quick test_pp_and_size;
  ]
