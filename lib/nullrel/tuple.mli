(** Tuples with null values and the "more informative" semilattice
    (Section 3).

    A tuple is an assignment of values from extended domains to a finite
    set of attributes. The paper's convention — "if r is an X-value and
    the attribute A is not in X, then r[A] = ni" — makes a tuple
    equivalent to every enlargement of it by null columns. We therefore
    keep tuples in {e canonical form}: only non-null bindings are stored,
    so information-wise equivalence of tuples coincides with structural
    equality, and a tuple is simultaneously an X-value for every X
    containing its non-null attributes.

    The key order is Definition 3.1: [r] is {e more informative} than
    [t] ([r >= t]) when [r] matches [t] on every non-null value of [t].
    Under canonical form this order is a genuine partial order; every two
    tuples have a meet, and joinable tuples have a join (the tuples of
    [U*] form a meet-semilattice, footnote 5).

    {b Physical layout.} A tuple is two parallel arrays: its non-null
    attributes in strictly increasing {!Attr.compare} order, and their
    values, none of them null. [>=], meet, join, restriction and
    {!compare} are merges over the sorted attributes. The arrays are
    never written once built, so a tuple may be read from any domain.
    The attribute array is the tuple's {!signature}: tuples with the
    same null pattern have equal signatures, which is what the
    subsumption index buckets by.

    {b Order guarantee.} {!compare} is lexicographic over the
    (attribute, value) pairs, a proper prefix first, and {!fold} and
    {!to_list} run in attribute order. Every {!Set} order, CSV file and
    index dump follows from these. *)

type t

val empty : t
(** The null tuple: all attributes null. Bottom of the tuple order. *)

val of_list : (Attr.t * Value.t) list -> t
(** Builds a tuple from bindings; null bindings are dropped (canonical
    form), later bindings for the same attribute override earlier ones. *)

val of_strings : (string * Value.t) list -> t
(** Convenience wrapper over {!of_list} using attribute names. *)

val to_list : t -> (Attr.t * Value.t) list
(** The non-null bindings in attribute order. *)

val get : t -> Attr.t -> Value.t
(** [get r a] is [r\[A\]]; [Value.Null] when [a] is unbound. Total by the
    paper's convention. *)

val set : t -> Attr.t -> Value.t -> t
(** Functional update; setting [Value.Null] removes the binding. *)

val attrs : t -> Attr.Set.t
(** The attributes on which the tuple is non-null. *)

val is_null_tuple : t -> bool
(** True on tuples consisting only of nulls; all such tuples are
    equivalent to {!empty}. *)

val is_total_on : Attr.Set.t -> t -> bool
(** [is_total_on x r] iff [r] is X-total: non-null on every attribute of
    [x]. *)

val equal : t -> t -> bool
(** Information-wise equivalence of tuples — structural equality of
    canonical forms. *)

val compare : t -> t -> int
(** Container order (no semantic meaning): lexicographic over the
    (attribute, value) pairs in attribute order, a proper prefix
    first. Two tuples that share a key array compare by their values
    alone. *)

val hash : t -> int
(** Consistent with {!equal}; allocates nothing. *)

val more_informative : t -> t -> bool
(** [more_informative r t] is [r >= t] (Definition 3.1): for each
    non-null value of [t], [r] holds the same value. Reflexive,
    transitive, antisymmetric on canonical tuples. *)

val strictly_more_informative : t -> t -> bool
(** [r >= t] and [not (equal r t)]. *)

val meet : t -> t -> t
(** [meet r1 r2] is [r1 /\ r2]: keeps the bindings on which the two
    tuples agree. Always exists; it is the greatest lower bound. *)

val joinable : t -> t -> bool
(** [r1] and [r2] are joinable when they conflict on no attribute: for
    each [A], if [r1\[A\] <> r2\[A\]] then one of the two is null. *)

val join : t -> t -> t option
(** [join r1 r2] is [r1 \/ r2] when the tuples are joinable — the least
    upper bound, taking the more informative value on each attribute —
    and [None] otherwise. *)

val restrict : t -> Attr.Set.t -> t
(** [restrict r x] is the X-value [r\[X\]] (used by projection). *)

val remove : t -> Attr.Set.t -> t
(** [remove r x] drops the attributes of [x] from [r]. *)

val rename : (Attr.t * Attr.t) list -> t -> t
(** [rename mapping r] renames attributes per [mapping] (old, new);
    attributes not mentioned are kept. Raises
    [Exec_error.Error (Bad_input _)] if two distinct non-null bindings
    collide on a target name; with several collisions it names the one
    reached first in attribute order. *)

val fold : (Attr.t -> Value.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over the non-null bindings in attribute order. *)

(** {1 Signatures}

    A tuple's signature is its set of non-null attributes, kept as the
    sorted attribute array the tuple already holds: taking it
    allocates nothing. *)

type signature

val signature : t -> signature

val compare_signature : signature -> signature -> int
(** Lexicographic in attribute order, a proper prefix first: the order
    [Attr.Set.compare] gives the same attribute sets. *)

val signature_of_attrs : Attr.Set.t -> signature
(** The signature of the tuples whose non-null attributes are exactly
    [x]: what {!restrict_signature} and {!is_total_on_signature} take
    for a fixed attribute set, such as a key. *)

val subset_signature : signature -> signature -> bool
(** [subset_signature s1 s2] iff every attribute of [s1] is in [s2]. *)

val is_total_on_signature : signature -> t -> bool
(** {!is_total_on} for the attributes of a signature. *)

val hash_on_signature : signature -> t -> int
(** [hash_on_signature s r] is [hash (restrict_signature r s)] for an
    [r] total on [s], computed without building the restriction. *)

val restrict_signature : t -> signature -> t
(** {!restrict} to the attributes of a signature. *)

val with_signature : signature -> t -> t
(** [with_signature s r] is [r] holding [s] as its attribute array when
    [s] is [r]'s signature, and [r] otherwise: an equal tuple that
    shares its attributes with the tuple [s] came from. *)

(** {1 Bulk construction}

    A loader builds many tuples over one list of columns (a CSV header,
    a binary dictionary). A builder writes each tuple's two arrays once
    and gives the tuples of one null pattern one shared key array. It
    is mutable: one loader owns it, and no other domain sees it. *)

type builder

val builder : Attr.t array -> builder
(** [builder cols]: position [i] binds [cols.(i)]. Columns may come in
    any order, and one attribute may sit at several positions. *)

val bind : builder -> int -> Value.t -> unit
(** [bind b i v] binds position [i]'s attribute to [v], replacing what
    an earlier [bind] gave that attribute; [Value.Null] unbinds it. *)

val build : builder -> t
(** The tuple of the [bind]s since the last [build], after which every
    attribute is unbound again. It equals folding {!set} over the same
    bindings from {!empty}, and the tuples of one null pattern that
    one builder builds share one key array. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(A=1, B=-)]-style binding list (only non-null bindings). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Signature_map : Stdlib.Map.S with type key = signature
(** Ordered by {!compare_signature}. *)
