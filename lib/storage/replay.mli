(** A relation's journal tail folded into one net delta.

    Recovery starts each relation from the exact state of the
    checkpoint its data file belongs to, and a journal change is the
    net difference between two minimal representations (Section 4's
    representation is unique; Section 7's insert discipline admits and
    evicts exactly what the change records). Under those conditions the
    whole tail of one relation composes into a single [(added,
    removed)] pair, and applying that pair once equals applying the
    changes one by one: a tuple removed and later re-added cancels out,
    and so does one added and later removed.

    {!compose} checks the condition instead of assuming it. A change
    recorded against a different state — a transaction merged onto a
    commit it never saw, where the insert discipline evicted or
    rejected tuples the record does not name — would compose to the
    wrong state. So each change is checked against the composed state
    before it, with the probes the insert discipline itself makes:
    every removed tuple is present; every added tuple is absent,
    schema-valid, incomparable with every present tuple, and unique on
    the key. The checkpoint side is answered by a subsumption index over
    the checkpoint state, built once and never advanced, the tail side
    by small counts over the tuples the tail touched. *)

open Nullrel

val compose :
  Schema.t -> Xrel.t -> Wal.change list -> (Tuple.t list * Tuple.t list) option
(** [compose schema x changes]: the net [(added, removed)] of replaying
    [changes] onto [x] in order, or [None] as soon as one change is not
    an exact net delta of the state before it (then only op-by-op
    replay reproduces the journal).
    [added] is disjoint from [x]; [removed] is a subset of it. *)
