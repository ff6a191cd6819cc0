(** Relational-algebra expression trees over x-relations.

    The paper's Section 7 shows x-relations are closed under the
    complete algebra; this module makes algebra {e expressions} a first-
    class value so they can be built by the mini-QUEL compiler
    ({!Compile}), rewritten by the optimizer ({!Rewrite}) and costed
    ({!Cost}). Evaluation is the straightforward bottom-up application
    of the operators of {!Nullrel.Xrel} and {!Nullrel.Algebra}, with
    the physical joins of {!Storage.Join}. *)

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
  ?observe:(t -> (unit -> Xrel.t) -> Xrel.t) ->
  env:(string -> Xrel.t option) ->
  t -> Xrel.t
(** Bottom-up evaluation. Raises {!Unbound_relation} when a [Rel] name
    is not in the environment. [Equijoin] and [Union_join] nodes run
    the physical hash joins of {!Storage.Join}, which agree with the
    logical operators extensionally (property-tested), each under its
    default {!Nullrel.Kernel.strategy}. [index_probe] is consulted once
    per [Equijoin] node and once per [Select]-over-[Product] node (the
    join shape compiled queries take, since the algebra cannot merge
    two differently-named columns into an [Equijoin]); when it answers
    a probe — a declared secondary index covering the build side,
    translated through the plan's renames by [Compile.index_probe_of]
    — the node runs through {!Storage.Join.probe_equijoin} and the
    build operand (for a select-over-product, the right factor) is
    never evaluated. The default answers [None] everywhere.

    [observe], when given, wraps the evaluation of every node that
    actually runs: it receives the node and the thunk computing it
    (children included) and must return the thunk's result. It takes
    the place of the node's {!Obs.Span.with_span} — EXPLAIN ANALYZE
    ({!Analyze}) measures through it. Without it each node runs under
    its span. *)

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
