(** A unit-work cost model for plans, null-aware when statistics are
    available.

    Cardinalities are estimated top-down from base-relation statistics;
    cost is the sum over operator nodes of the work each performs on
    its estimated inputs (pairwise operators pay the product of their
    input sizes — the paper's own O(|R1| x |R2|) accounting).

    A {!source} supplies what is known about base relations. With only
    row counts the model degrades to the historical fixed
    selectivities; with full {!Stats.table} summaries the estimates
    become null-aware: under Table III a comparison that touches a null
    evaluates to [ni] and only TRUE tuples qualify, so every predicate
    and join estimate is discounted by the null fractions of the
    columns involved, equality selectivities come from distinct counts
    (containment of values for joins), and range predicates interpolate
    against the observed min/max of integer columns. *)

type source = {
  rowcount : string -> int option;
      (** Live row count of a base relation (cheap, always current). *)
  table : string -> Stats.table option;
      (** Collected statistics, when fresh ones exist. *)
  equipped : string -> Nullrel.Attr.Set.t -> bool;
      (** Whether a declared secondary index covers exactly these
          attributes of the named base relation ({!Compile.run_catalog}
          wires [Storage.Catalog.has_equi]). A cross-scope equality
          selection over a product with an equipped factor is costed
          as a probe pass over the other factor: the product is never
          materialized. *)
}

val of_rowcount : (string -> int option) -> source
(** A source with row counts only — the pre-statistics cost model,
    with no statistics tables and no indexes. *)

val select_product_probe :
  source ->
  Nullrel.Predicate.t ->
  Expr.t ->
  (Nullrel.Attr.t
  * Nullrel.Attr.t
  * (string
    * Nullrel.Attr.Set.t
    * (Nullrel.Tuple.t -> Nullrel.Tuple.t)
    * (Nullrel.Tuple.t -> Nullrel.Tuple.t option)))
  option
(** [select_product_probe stats p e2] recognizes the join shape
    compiled queries actually take — a cross-scope equality selection
    [a = b] directly over a product (the algebra cannot merge two
    differently-named columns, so compiled plans never contain
    [Equijoin]) — when the right factor [e2] bottoms out, through
    renames and selections only, in a base relation equipped with an
    index on whichever side of the equality it binds. Returns
    [(ka, kb, tgt)]: the left factor's attribute [ka] supplies the
    probe key, looked up under the right factor's attribute [kb]
    through target [tgt] — the base name, the attribute set under its
    base name, and the tuple translations [down] (probe tuple into
    base scope) and [up] (indexed hit back into the node's scope,
    [None] when a selection on the way rejects it).
    Serving the selection by index probes is sound because a sure
    equality is upward-closed under subsumption, so the selection
    commutes with the minimization the product bakes in. *)

val default_cardinality : float
(** Estimate for a base relation the source knows nothing about. *)

val cardinality : stats:source -> Expr.t -> float
(** Estimated output cardinality. *)

val cost : stats:source -> Expr.t -> float
(** Estimated total work of evaluating the plan bottom-up. *)
