(** Rule-based plan optimization.

    The rewrite rules are exactly the algebraic identities of the
    generalized operators that the property suite
    ([test/props_algebra.ml]) verifies — each rule's soundness under
    x-relation semantics is noted at its implementation:

    - conjunctive selections split into cascades;
    - selections push through union, through the minuend of a
      difference, below projections that retain their attributes, and
      into the operand of a product/equijoin that {e exclusively} covers
      their attributes (exclusivity matters: with overlapping scopes a
      join partner can supply the value a null left operand lacks, so
      pushing would wrongly drop tuples — see the soundness note in the
      implementation);
    - projection cascades fuse; projections distribute over union;
      projections onto (a superset of) the operand scope vanish. A
      projection is not pushed into the factors of a product here:
      that rewrite is not an identity of x-relations (a non-empty
      factor that projects to nothing is the product's unit, and a
      minimal representation cannot say so), so {!Expr.eval} pushes
      projections into joins as it runs them;
    - empty constants propagate ([e x {} = {}], [e u {} = e], ...).

    With a statistics source ([?cost]) one cost-based rule joins the
    rule set: the factors of a maximal product chain are reordered
    smallest-estimate first, but only when their scope bounds are
    pairwise disjoint — then the product is commutative and the order
    cannot change the result. Plans compiled from QUEL qualify (every
    range variable is renamed to its own prefix); arbitrary plans with
    overlapping factor scopes are left alone.

    [optimize] iterates to a fixpoint. Rules only ever move selections
    downward, remove nodes, or stably sort product chains, so the
    fixpoint exists; a safety bound caps pathological cases. *)

open Nullrel

val optimize :
  ?cost:Cost.source -> env_scope:(string -> Attr.Set.t option) -> Expr.t -> Expr.t
(** Fixpoint of one bottom-up pass that applies the first matching
    rule at each node (bounded at 64 passes). Cost-based
    reordering only happens when [cost] is supplied. *)
