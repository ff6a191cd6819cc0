(** Selection predicates and their three-valued evaluation (Section 5).

    Predicates are the qualification expressions of the calculus:
    comparisons between attributes, or between an attribute and a
    non-null constant, combined with the Boolean connectives of
    Table III. A comparison touching a null evaluates to [ni]; the lower
    bound [||Q||-] keeps only [True] rows. *)

type comparison = Eq | Neq | Lt | Le | Gt | Ge

val comparison_to_string : comparison -> string
(** ["="], ["<>"], ["<"], ["<="], [">"], [">="]. *)

val negate_comparison : comparison -> comparison
(** The complementary operator: [Eq <-> Neq], [Lt <-> Ge], [Gt <-> Le].
    Note that under three-valued evaluation [A negate(th) B] equals
    [Not (A th B)] — both are [ni] on nulls. *)

val apply_comparison : comparison -> Value.t -> Value.t -> Tvl.t
(** Three-valued comparison of two values: [Ni] if either is null.
    Raises [Value.Type_error] on cross-domain comparisons. *)

type t =
  | Cmp_attrs of Attr.t * comparison * Attr.t
      (** [t.A theta t.B] — requires both attributes non-null. *)
  | Cmp_const of Attr.t * comparison * Value.t
      (** [t.A theta k], [k] a non-null constant. *)
  | And of t * t
  | Or of t * t
  | Not of t
  | Const of Tvl.t  (** A constant truth value (identity elements). *)

val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t

val cmp_const : string -> comparison -> Value.t -> t
(** [cmp_const "A" Eq v] is [Cmp_const (Attr.make "A", Eq, v)]. Raises
    [Invalid_argument] if [v] is null: selection constants must come from
    the domain, "not the ni symbol" (Section 5). *)

val cmp_attrs : string -> comparison -> string -> t

val eval : t -> Tuple.t -> Tvl.t
(** Three-valued evaluation against a tuple, per Table III. *)

val holds : t -> Tuple.t -> bool
(** [holds p r] iff [eval p r = True] — the lower-bound discipline. *)

val attrs : t -> Attr.Set.t
(** All attributes mentioned by the predicate. *)

val may_raise : (Attr.t -> int) -> t -> bool
(** [may_raise kinds p]: whether {!eval} can raise
    [Value.Type_error] on some tuple whose attribute [a] holds only
    values of the kinds in the mask [kinds a] ({!Value.kind}). Every
    comparison of a predicate is evaluated, so this asks whether any
    one of them can meet two kinds; [false] is a guarantee, [true] may
    be a false alarm (two attributes of one tuple are judged apart). *)

val map_attrs : (Attr.t -> Attr.t) -> t -> t
(** Renames the attributes a predicate mentions (used by the plan
    optimizer to push selections through renames). *)

val pp : Format.formatter -> t -> unit
