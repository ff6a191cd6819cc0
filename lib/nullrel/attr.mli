(** Attribute names.

    Attributes are the column names of relations (Section 3 of the paper).
    They live in a finite universe [U]; in this implementation the universe
    is implicit — any string is a valid attribute — and operations that
    need an explicit finite universe (such as {!Xrel.top}) take it as an
    argument. *)

type t = private string
(** An attribute name. Private, so that {!Tuple}'s merges can compare
    names with the runtime's string comparison directly; only {!make}
    builds one. *)

val make : string -> t
(** [make s] is the attribute named [s]. Raises [Invalid_argument] if [s]
    is empty. *)

val name : t -> string
(** [name a] is the attribute's name. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints the bare attribute name. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val set_of_list : string list -> Set.t
(** [set_of_list names] is the attribute set containing [make n] for each
    [n] in [names]. *)

val pp_set : Format.formatter -> Set.t -> unit
(** Prints an attribute set as [{A, B, C}] in attribute order. *)
