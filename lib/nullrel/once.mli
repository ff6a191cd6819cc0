(** A memo cell that any number of domains may force at once.

    [Lazy.t] is not domain-safe: forcing a suspension that another
    domain is forcing raises [CamlinternalLazy.Undefined]. A cell here
    runs its builder in every domain that finds it unset, publishes the
    first result with one compare-and-set, and hands that same value to
    every caller, the losers included. The builder must therefore be
    pure (it may run more than once); the value is shared once
    published. Forcing a set cell costs one atomic load. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** An unset cell with its builder. *)

val of_val : 'a -> 'a t
(** A cell already set. *)

val get : 'a t -> 'a
(** The published value, building and publishing it first if the cell
    is unset. *)
