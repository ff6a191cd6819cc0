(** EXPLAIN ANALYZE: evaluate a plan while annotating every operator
    node with its estimated vs. actual cardinality, inclusive governor
    ticks, and wall time.

    Measurement uses {!Obs.Span.timed}, which works without globally
    enabling tracing, and the evaluation runs under whatever
    {!Nullrel.Exec} governor is ambient — an analyzed query is still
    subject to timeouts and budgets. *)

type node = {
  label : string;  (** {!Expr.op_label} of the operator *)
  est_rows : float;  (** {!Cost.cardinality} estimate *)
  actual_rows : int;
  ticks : int;  (** inclusive: this node plus its subtree *)
  elapsed_s : float;  (** inclusive wall time *)
  children : node list;
}

val run :
  ?join_strategy:(Expr.t -> Nullrel.Kernel.strategy) ->
  ?index_probe:(Expr.t -> (Nullrel.Tuple.t -> Nullrel.Tuple.t list) option) ->
  stats:Cost.source ->
  env:(string -> Nullrel.Xrel.t option) ->
  Expr.t ->
  Nullrel.Xrel.t * node
(** Evaluate with {!Expr.eval} and profile every node it runs. Raises
    {!Expr.Unbound_relation} like {!Expr.eval}, and propagates governor
    aborts. [join_strategy] and [index_probe] as in {!Expr.eval}: a
    node served by an index probe shows its probe side only, as it
    ran. *)

val render : ?semantics:string -> node -> string
(** Aligned text tree: one row per operator (children indented), with
    est / actual / est-over-actual / ticks / ms columns (the ratio
    prints ["-"] on an actual-empty node). [semantics] prepends a
    ["semantics: NAME"] line naming the dialect the plan was analyzed
    under (physical plans always run the [Ni_lower] pipeline; the
    annotation makes that dispatch visible). *)
