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
  let rec node depth =
    if depth = 0 then leaf
    else
      let sub = node (depth - 1) in
      frequency
        [
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
        ]
  in
  node 3

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

let optimize_preserves_semantics =
  test "optimize preserves plan semantics"
    (QCheck.pair arbitrary_plan arbitrary_db) (fun (plan, db) ->
      let env = env_of db and env_scope = env_scope_of db in
      let optimized = Plan.Rewrite.optimize ~env_scope plan in
      Xrel.equal (Plan.Expr.eval ~env plan) (Plan.Expr.eval ~env optimized))

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
        (Xrel.scope (Plan.Expr.eval ~env plan))
        (Plan.Expr.scope_bound ~env_scope plan))

(* --- compiled queries vs the interpreter ------------------------ *)

let schema_r =
  Schema.make "R"
    (List.map (fun n -> (n, Domain.Int_range (0, 3))) universe_attrs)

let schema_s =
  Schema.make "S"
    (List.map (fun n -> (n, Domain.Int_range (0, 3))) universe_attrs)

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
          Xrel.equal reference (Plan.Compile.run db q).Quel.Eval.rel
          && Xrel.equal reference
               (Plan.Expr.eval ~env:(env_of (r, s_))
                  (Plan.Compile.query ~schemas q)))
        queries)

let suite =
  List.map to_alcotest
    [
      optimize_preserves_semantics;
      optimize_is_idempotent;
      scope_bound_is_sound;
      compiled_equals_interpreted;
    ]
