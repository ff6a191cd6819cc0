(** Compiling mini-QUEL queries into algebra plans.

    This is the paper's Section 8 efficiency claim made concrete: the
    calculus (mini-QUEL) translates to the generalized algebra, the
    algebra is optimized by {!Rewrite}, and evaluation happens
    operator-by-operator. The compiled-and-optimized pipeline computes
    exactly the lower bound [||Q||-] of {!Quel.Eval.run} (property
    [test/props_plan.ml]). *)

open Nullrel

val query :
  schemas:(string -> Attr.t list option) -> Quel.Ast.query -> Expr.t
(** [query ~schemas q] compiles: each range variable becomes a renamed
    base relation (attributes prefixed [v.A]), the ranges multiply into
    a product, the qualification becomes a selection, the target list a
    projection, and a final rename restores the output column names of
    {!Quel.Eval.target_attr}. Raises {!Quel.Resolve.Error} on unknown
    relations (schema lookup failures). *)

val index_probe_of :
  stats:Cost.source ->
  probe_for:(string -> Attr.Set.t -> (Tuple.t -> Tuple.t list) option) ->
  Expr.t ->
  (Tuple.t -> Tuple.t list) option
(** The probe a declared secondary index serves for one join node:
    {!Cost.probe_target} on an [Equijoin]'s build arm, or
    {!Cost.select_product_probe} on a [Select]-over-[Product] node —
    the join shape every compiled query takes. The raw base-relation
    probe comes from [probe_for] (the shells wire
    [Storage.Catalog.equi_probe]); inputs and hits are translated
    through the plan's renames, and hits a selection pushed onto the
    indexed factor rejects are dropped. The shape [eval]'s [index_probe]
    parameter expects, partially applied to the stats source and
    catalog. *)

val run_bands :
  ?semantics:Semantics.t -> Quel.Resolve.db -> Quel.Ast.query ->
  Quel.Eval.bands
(** Evaluate under a dialect ({!Nullrel.Semantics.current} by
    default) and return its bands — the planner-side entry the shells
    use for the reporting dialects. Physical plans serve [Ni_lower]
    only (the physical algebra minimizes at every operator, which is
    precisely the set discipline the other dialects reject), so this
    routes through the calculus evaluator {!Quel.Eval.query}. *)

val run :
  ?stats:Cost.source -> ?semantics:Semantics.t ->
  ?index_probe:(Expr.t -> (Tuple.t -> Tuple.t list) option) ->
  Quel.Resolve.db -> Quel.Ast.query ->
  Quel.Eval.result
(** Compile, optimize with {!Rewrite.optimize}, then evaluate against
    the database. Agrees with {!Quel.Eval.run}. A statistics source
    turns on the cost-based reorder: product chains run smallest-first
    ({!Rewrite.optimize}'s [?cost]). [index_probe] goes to
    {!Expr.eval}: a join node that a declared index serves is probed
    instead of materializing the product. To run the plan unoptimized,
    apply {!Expr.eval} to {!query}'s plan. Under a non-[Ni_lower]
    dialect (explicit [semantics], or the ambient default) the
    physical pipeline is bypassed for {!run_bands} and the result is
    the sure band, re-minimized to fit the [Xrel.t]-shaped result —
    callers wanting the dialect's plain-set bands use {!run_bands}
    directly. *)
