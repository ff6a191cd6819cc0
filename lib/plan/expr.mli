(** Relational-algebra expression trees over x-relations.

    The paper's Section 7 shows x-relations are closed under the
    complete algebra; this module makes algebra {e expressions} a first-
    class value so they can be built by the mini-QUEL compiler
    ({!Compile}), rewritten by the optimizer ({!Rewrite}) and costed
    ({!Cost}). Evaluation computes, node by node, what the operators of
    {!Nullrel.Xrel} and {!Nullrel.Algebra} would; joins run through the
    physical operators of {!Storage.Join}, and projections are pushed
    into them ({!eval}). *)

open Nullrel

type t =
  | Rel of string  (** A named base relation, resolved by the environment. *)
  | Const of Xrel.t  (** A literal relation. *)
  | Select of Predicate.t * t
  | Project of Attr.Set.t * t
  | Product of t * t
  | Equijoin of Attr.Set.t * t * t
  | Union_join of Attr.Set.t * t * t
  | Union of t * t
  | Diff of t * t
  | Inter of t * t
  | Divide of Attr.Set.t * t * t  (** [Divide (y, dividend, divisor)]. *)
  | Rename of (Attr.t * Attr.t) list * t

exception Unbound_relation of string

val op_label : t -> string
(** Short operator name for spans and EXPLAIN output: the relation name
    for [Rel], otherwise ["select"], ["equijoin"], ["union-join"], … *)

val eval :
  ?index_probe:(t -> (Tuple.t -> Tuple.t list) option) ->
  ?observe:(t -> (unit -> int) -> int) ->
  schema:(string -> Schema.t option) ->
  env:(string -> Xrel.t option) ->
  t -> Xrel.t
(** Bottom-up evaluation. [schema] and [env] give each base relation's
    schema and value; a [Rel] name either does not know raises
    {!Unbound_relation}. The answer is always that of the operators of
    {!Nullrel.Algebra} and {!Nullrel.Xrel} applied node by node, and so
    is the error, if any; three shapes run faster than that:

    - A selection chain over a product of disjoint-scope factors — the
      join shape compiled queries take, since the algebra cannot merge
      two differently-named columns into an [Equijoin] — runs in one
      pass ({!Storage.Join.probe_join}) and never materializes the
      product. A cross-scope equality conjunct [a = b] is probed
      through a declared index when [index_probe] serves it (the
      indexed factor is then never evaluated), else through a hash of
      one factor built for this query ({!Storage.Join.column_probe});
      without one, every pair is tried. The governor is charged per
      probe and per attempted pair.
    - A projection is pushed through a rename that keeps columns apart
      and into the factors of such a join, keeping the attributes its
      predicates read. Each factor then flows as a plain tuple set, cut
      down to what is still needed and to its maximal tuples, and the
      projection minimizes the joined tuples. A non-empty factor that
      holds nothing on the kept attributes cuts down to the null tuple,
      the product's unit. A projection the plan states inside a join
      is evaluated as it stands, a minimal projection.
    - [Equijoin] and [Union_join] run the hash joins of
      {!Storage.Join}.

    A join path never changes an error: when the kinds of value
    ({!Nullrel.Value.kind}) on the two sides could make a comparison of
    the chain raise [Value.Type_error], the chain runs as a selection
    over the materialized product, as the plan states it. For a factor
    an index serves, the kinds are its schema's domains, which the
    catalog enforces; every other factor's are read off its tuples.

    [index_probe] is consulted only on [Select (c, Product (e1, e2))]
    for each cross-scope equality conjunct [c] of a chain (and on the
    commuted product); when it answers — a declared secondary index
    covering that factor, translated through the plan's renames and
    pushed selections by {!Compile.run_catalog} — the probe serves the
    join. The default answers [None] everywhere.

    [observe], when given, wraps the evaluation of every node that
    actually runs: it receives the node and a thunk that computes it
    (children included) and returns its row count, and must call the
    thunk once and return what it returns. It takes the place of the
    node's {!Obs.Span.with_span} — EXPLAIN ANALYZE ({!Analyze})
    measures through it. A projection pushed below its plan node is
    shown as a [Project] node of its own, a chain that runs as one join
    as its outermost [Select], and the rows of a node inside a pushed
    projection are its plain tuple set. Without [observe] each node
    runs under its span. *)

val scope_bound :
  env_scope:(string -> Attr.Set.t option) -> t -> Attr.Set.t
(** A static upper bound on the scope of the result (the actual scope
    can be smaller — e.g. a selection can empty a relation). Used by the
    pushdown rules to decide which operand a predicate can move into.
    Raises {!Unbound_relation}. *)

val size : t -> int
(** Number of operator nodes (for rewrite-termination arguments and
    tests). *)

val equal : t -> t -> bool
(** Structural equality of plans (predicates compared structurally). *)

val pp : Format.formatter -> t -> unit
(** One-line algebra rendering, e.g.
    [project{A}(select[A<=1](R x S))]. *)
