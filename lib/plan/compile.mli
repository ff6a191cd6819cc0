(** Compiling mini-QUEL queries into algebra plans.

    This is the paper's Section 8 efficiency claim made concrete: the
    calculus (mini-QUEL) translates to the generalized algebra, the
    algebra is optimized by {!Rewrite}, and evaluation happens
    operator-by-operator. The compiled-and-optimized pipeline computes
    exactly the lower bound [||Q||-] of {!Quel.Eval.run} (property
    [test/props_plan.ml]), so {!run_catalog} answers retrieves on every
    surface but sessions, with the evaluator kept as the spec. *)

open Nullrel

val query :
  schemas:(string -> Attr.t list option) -> Quel.Ast.query -> Expr.t
(** [query ~schemas q] compiles: each range variable becomes a renamed
    base relation (attributes prefixed [v.A]), the ranges multiply into
    a product, the qualification becomes a selection, the target list a
    projection, and a final rename restores the output column names of
    {!Quel.Eval.target_attr}. Raises {!Quel.Resolve.Error} on unknown
    relations (schema lookup failures). *)

val evaluator_answers :
  Semantics.t -> Quel.Resolve.db -> Quel.Ast.query -> bool
(** Whether {!run} and {!run_catalog} answer [q] with the calculus
    evaluator {!Quel.Eval.query} instead of a plan: under a reporting
    dialect (the physical algebra minimizes at every operator, the set
    discipline those dialects reject), and under [Ni_lower] when a
    comparison of the qualification could meet two kinds of value,
    judged by the ranges' schema domains ({!Nullrel.Predicate.may_raise}).
    A plan may order and skip the comparisons the evaluator makes, so
    only the evaluator gives such a query its answer or its error.
    Raises {!Quel.Resolve.Error} like {!Quel.Resolve.check}. *)

type planned = {
  raw : Expr.t;  (** {!query}'s plan. *)
  optimized : Expr.t;  (** The plan {!run_catalog} runs. *)
  stats : Cost.source;
      (** The catalog's row counts ({!Storage.Catalog.cardinal}; the
          statement db's for names it lacks), fresh statistics (each
          lookup counted as a hit, a miss or stale) and declared
          indexes. *)
}

val plan_catalog :
  Storage.Catalog.t -> Quel.Resolve.db -> Quel.Ast.query -> planned
(** Compile [q] and optimize it with what the catalog knows. [db] is the
    statement's database: the catalog's relations as they stand plus
    any it lacks ([sys_*] relations), as [Sysview.statement_db] or
    {!Storage.Catalog.to_db} build it. *)

val run_catalog :
  ?semantics:Semantics.t ->
  Storage.Catalog.t -> Quel.Resolve.db -> Quel.Ast.query ->
  Quel.Eval.bands
(** The retrieve entry of the shell, the CLI and views, under a dialect
    ({!Nullrel.Semantics.current} by default): {!Quel.Eval.query}'s
    bands when {!evaluator_answers}, else {!plan_catalog}'s plan, its
    joins probing the catalog's declared indexes
    ({!Storage.Catalog.equi_probe}), as the one band. Either way the
    answer, or the error, is {!Quel.Eval.query}'s. *)

val analyze_catalog :
  Storage.Catalog.t -> Quel.Resolve.db -> Quel.Ast.query -> Analyze.node
(** {!Analyze.run} of the plan {!run_catalog} runs, probes included;
    meaningful when not {!evaluator_answers}. *)

val run :
  ?semantics:Semantics.t -> Quel.Resolve.db -> Quel.Ast.query ->
  Quel.Eval.result
(** {!run_catalog} without a catalog: the plan is optimized without
    statistics and probes no index. Under a reporting dialect the
    result is the sure band, re-minimized. To run the plan unoptimized,
    apply {!Expr.eval} to {!query}'s plan. *)
