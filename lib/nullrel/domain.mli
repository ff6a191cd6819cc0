(** Attribute domains.

    A domain [DOM(A)] underlies each attribute (Section 3). Finite
    domains can be enumerated, which is what the lattice top
    [TOP_U = DOM(A1) x ... x DOM(Ap)], the pseudo-complement, and the
    null-substitution principle of the Codd baseline all require.
    Unbounded domains are supported everywhere else. *)

type t =
  | Int_range of int * int  (** Integers [lo..hi] inclusive; finite. *)
  | Enum of string list  (** An explicit finite string domain. *)
  | Bools  (** [{false, true}]; finite. *)
  | Ints  (** All integers; infinite. *)
  | Floats  (** All floats; infinite. *)
  | Strings  (** All strings; infinite. *)

exception Infinite of string
(** Raised when enumerating an infinite domain. *)

val is_finite : t -> bool

val cardinal : t -> int option
(** [Some n] for finite domains, [None] otherwise. *)

val members : t -> Value.t list
(** Enumerates a finite domain. Raises {!Infinite} on [Ints], [Floats]
    and [Strings]. The null value is never a member: [ni] extends the
    domain but is not part of it. *)

val mem : Value.t -> t -> bool
(** Domain membership. [mem Value.Null _ = false] — constants appearing
    in selections must be drawn from [DOM(A)], "not the ni symbol"
    (Section 5). *)

val kind : t -> int
(** The {!Value.kind} of every member: a domain admits values of one
    kind only. *)

val pp : Format.formatter -> t -> unit
