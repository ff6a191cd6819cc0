(** Sorted per-attribute indexes for selections.

    [Nullrel.Algebra.select_ak] scans the whole representation. For a
    relation queried repeatedly on the same attribute, this index sorts
    the A-total tuples by their A-value once and answers
    [A theta k] selections by binary search — O(log n + answer). Tuples
    that are null on A never satisfy any comparison (Section 5), so
    they are simply absent from the index and the semantics are
    preserved exactly (property: agreement with [select_ak]).

    A declared [range] index ({!Catalog.create_index}) builds none of
    this: like a [hash] one, it names an equality probe that the
    relation's subsumption index serves. *)

open Nullrel

type t

val build : Attr.t -> Xrel.t -> t
(** Sorts the A-total tuples of the relation by their A-value.
    O(n log n). *)

val attr : t -> Attr.t

val select : t -> Predicate.comparison -> Value.t -> Xrel.t
(** [select idx theta k] = [Algebra.select_ak a theta k] on the indexed
    relation. [Eq], [Lt], [Le], [Gt], [Ge] answer by binary search;
    [Neq] is the complement of [Eq] within the index. Raises
    [Invalid_argument] if [k] is null, [Value.Type_error] on a
    cross-domain probe. *)

val range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> Xrel.t
(** Inclusive range scan [lo <= A <= k], either end open when absent. *)
