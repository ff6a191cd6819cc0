(** Domain values extended with the no-information null.

    Every attribute domain is extended with the distinguished symbol [ni]
    (Section 3): "we extend each domain to include the distinguished
    symbol ni which denotes the null value under the no-information
    interpretation". In tables the null is rendered as ["-"], following
    the paper. *)

type t =
  | Null  (** The no-information null, written [ni] in the paper. *)
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Type_error of string
(** Raised when two non-null values of different domains are compared.
    The paper assumes [A theta B] compares attributes "from the same
    underlying domain" (Section 5); comparing across domains is a typing
    bug, not incomplete information, so it is an error rather than [ni]. *)

val null : t
val is_null : t -> bool

val int : int -> t
(** [Int i]. Integers in [-128, 255] share one preallocated value each,
    so the parsers and loaders that build values through [int] spend no
    allocation on them. *)

val equal : t -> t -> bool
(** Structural equality. [equal Null Null = true]: this is the syntactic
    equality used for set representations and for tuple meets/joins, where
    the paper notes "it is immaterial whether we assume ni = ni or
    ni <> ni" (footnote 4). It is {e not} the query-level comparison —
    see {!compare3}. *)

val compare : t -> t -> int
(** A total order used only for balanced-tree containers; [Null] sorts
    first. Carries no semantic meaning. *)

val hash : t -> int

val compare3 : t -> t -> int option
(** [compare3 v w] is the query-level comparison of Section 5: [None] if
    either value is null (the comparison has value [ni]), otherwise
    [Some c] with [c] the sign of the comparison. Raises {!Type_error}
    on values from different domains. *)

val type_name : t -> string
(** ["null"], ["int"], ["float"], ["string"] or ["bool"]. *)

val pp : Format.formatter -> t -> unit
(** Prints the value; [Null] prints as ["-"] as in the paper's tables. *)

val to_string : t -> string

val of_string_guess : string -> t
(** Parses ["-"] as [Null], then tries [int], [float], [bool], falling
    back to a string value. Used by the CSV loader. *)
