(** The generalized relational algebra over x-relations
    (Sections 5, 6).

    X-relations are closed under all the operators of the complete
    relational algebra — union, difference, selection, Cartesian product
    and projection (Section 7) — plus the derived theta-joins, equijoin,
    union-join (outer join) and division. Set union, x-intersection and
    difference live in {!Xrel}; this module holds the remaining
    operators. *)

val select : Predicate.t -> Xrel.t -> Xrel.t
(** Generalized selection: keeps the tuples whose qualification evaluates
    to [True] in the three-valued logic ([False] and [ni] rows are
    discarded — the lower-bound discipline of Section 5). Preserves
    minimality. *)

val select_ab : Attr.t -> Predicate.comparison -> Attr.t -> Xrel.t -> Xrel.t
(** [R\[A theta B\]] per (5.1): the selected tuples are A-total, B-total
    and satisfy the comparison. Equal to
    [select (Cmp_attrs (a, theta, b))]. *)

val select_ak : Attr.t -> Predicate.comparison -> Value.t -> Xrel.t -> Xrel.t
(** [R\[A theta k\]] per (5.2), [k] a non-null constant of [DOM(A)].
    Raises [Invalid_argument] if [k] is null. *)

val product : Xrel.t -> Xrel.t -> Xrel.t
(** Cartesian product (5.3): the tuple joins [r1 \/ r2] of the non-null
    pairs. When the operand scopes are disjoint (the standard case) every
    pair is joinable and the result of minimal operands is minimal;
    overlapping scopes behave like a natural join on the shared columns
    and the result is re-minimized. *)

val theta_join :
  Attr.t -> Predicate.comparison -> Attr.t -> Xrel.t -> Xrel.t -> Xrel.t
(** [R1\[A theta B\]R2 = (R1 x R2)\[A theta B\]] per (5.4). *)

val equijoin : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** [R1(.X)R2]: the joins [r1 \/ r2] of pairs that are both X-total (and
    hence agree on X). The join columns are not repeated. *)

val union_join : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** [R1( *X)R2], the information-preserving union-join (the outer join of
    \[5,13,25\]): the equijoin together with the tuples of either operand
    that do not participate in it. Implemented as
    [union (equijoin x r1 r2) (union r1 r2)] — participating tuples are
    subsumed by their joins, so minimization keeps exactly the dangling
    ones. *)

val semijoin : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** [semijoin x r1 r2]: the tuples of [r1] that participate in the
    equijoin on [x] — X-total and matched by an X-total partner in
    [r2]. The derived operator behind the union-join's "participating"
    notion; [union_join x r1 r2 = equijoin u (r1 - semijoin) u
    (r2 - semijoin')] up to minimization. *)

val antijoin : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** [antijoin x r1 r2]: the tuples of [r1] that do {e not} participate
    in the equijoin — the dangling tuples the union-join preserves.
    Complementary to {!semijoin} within [r1]. *)

val project : Attr.Set.t -> Xrel.t -> Xrel.t
(** [R\[X\]] per (5.5). Projection can surface less informative
    duplicates, so the result is re-minimized. *)

val rename : (Attr.t * Attr.t) list -> Xrel.t -> Xrel.t
(** Attribute renaming [(old, new)]; needed to give product operands
    disjoint scopes. A mapping injective on the operand's scope keeps
    the representation minimal; only one that merges columns
    re-minimizes. *)

val image : Attr.Set.t -> Attr.Set.t -> Tuple.t -> Xrel.t -> Xrel.t
(** [image y z t r] is the Z-image [Z_R(t)] of the Y-total tuple [t]
    under [r] (6.4): the Z-values of the tuples of [r] whose Y-value
    equals [t]. *)

val divide : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** [R(/Y)S], the Y-quotient (Section 6): the Y-values [y] of the Y-total
    tuples of [R] such that for every tuple [z] of [S], [y \/ z]
    x-belongs to [R]. This is characterization (6.3), the consistent
    "for sure / for sure" reading of universal quantification; tuples
    that are not Y-total do not contribute. Expects the scopes of
    [R\[Y\]] and [S] to be disjoint (the case of practical interest). *)

val divide_algebraic : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** Division by its defining algebraic expression (6.2):
    [R_Y\[Y\] - ((R_Y\[Y\] x S) - R_Y)\[Y\]]. Agrees with {!divide} on
    disjoint scopes; kept as an executable witness of derivability from
    the five base operators. *)

val divide_via_images : Attr.Set.t -> Xrel.t -> Xrel.t -> Xrel.t
(** Division by characterization (6.5): [y] qualifies iff the Z-image of
    [y] contains [S]. Agrees with {!divide}. *)
