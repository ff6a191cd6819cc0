(** A catalog of named relations with schema enforcement.

    Functional (persistent) — updating returns a new catalog, mirroring
    the algebraic definition of updates in Section 7. *)

open Nullrel

type t

exception Violation of Schema.violation list
(** Raised by the checked update operations. *)

val empty : t

val add : t -> Schema.t -> Xrel.t -> t
(** Registers (or replaces) a relation under its schema's name. Raises
    {!Violation} if the relation violates the schema. *)

val add_unchecked : t -> Schema.t -> Xrel.t -> t

val find : t -> string -> (Schema.t * Xrel.t) option
val get : t -> string -> Schema.t * Xrel.t
(** Like {!find} but raises [Not_found]. *)

val cardinal : t -> string -> int option
(** The named relation's live row count, [Xrel.cardinal] of it, in
    O(1): every write keeps it. [None] on an unknown name. *)

val relation : t -> string -> Xrel.t
val schema : t -> string -> Schema.t
val names : t -> string list
val mem : t -> string -> bool
val remove : t -> string -> t

val set_relation : t -> string -> Xrel.t -> t
(** Replaces the relation stored under a name, re-checking its schema.
    Declared constraints stay verified — the caller is responsible for
    having enforced them ({!enforce}). A write of the {e identical}
    relation is a no-op: the entry (memoized subsumption index,
    statistics stamp) is kept untouched. Prefer {!apply_delta} when the
    statement's delta is known — it maintains minimality and the index
    incrementally instead of rebuilding. *)

val apply_delta :
  t ->
  string ->
  added:Tuple.t list ->
  removed:Tuple.t list ->
  t * (Tuple.Set.t * Tuple.Set.t)
(** The incremental DML write path. Removes [removed] (tuples not
    present are ignored; removing from an antichain needs no repair),
    then admits each tuple of [added] by the Section 7 insert
    discipline: reject it if some stored tuple already subsumes it,
    otherwise admit it and evict the stored tuples it strictly
    subsumes — one bounded index probe per tuple, never a full
    re-minimize. The entry's subsumption index is {e advanced} by the
    statement's net delta and survives the write. Returns the new
    catalog and the net
    [(added, removed)] tuple sets actually applied — the seeds
    constraint enforcement consumes. When the net delta is empty the
    catalog is returned unchanged (no version bump, stats stay
    fresh). Raises {!Violation} (and leaves the catalog unchanged) if
    an admitted tuple breaks its schema: domains and entity integrity
    per tuple, key uniqueness by one probe of the key restriction.
    Raises [Not_found] on an unknown name. *)

val replay_delta :
  t -> string -> added:Tuple.t list -> removed:Tuple.t list -> t
(** Journal replay's write: splices a relation's composed tail, a net
    delta {!Replay.compose} has checked against every probe of the
    insert discipline — [removed] present, [added] absent, schema-valid
    and incomparable with the rest — so no probe is repeated here.
    The subsumption index is left unbuilt, as after a load, and the
    first writer or probe builds it on demand. An empty delta leaves
    the catalog unchanged. Raises [Not_found] on an unknown name. *)

val qualifying : t -> string -> Predicate.t -> Tuple.t list
(** [qualifying cat rel p]: the tuples of [rel] on which [p] is surely
    true, in {!Tuple.compare} order — [Xrel.filter (Predicate.holds p)]
    of the relation, and the same exception where that raises. A
    [delete] or [replace] finds its targets here. When [p] has
    top-level [A = k] conjuncts and no comparison in it can meet two
    kinds of value ({!Predicate.may_raise} over the schema's domains),
    the relation's subsumption index lists the tuples at their
    restriction ({!Subsume_index.matching}) and [p] filters those
    candidates, one {!Exec.tick} each; otherwise every tuple is
    examined and ticked. Raises [Not_found] on an unknown name. *)

val probe_index : t -> string -> Nullrel.Subsume_index.t option
(** A subsumption index over the relation's current minimal
    representation, built lazily at most once per write — the probe
    side of incremental constraint enforcement. *)

(** {1 Secondary indexes}

    A declared index ([hash] or [range]) is a kind and an attribute set
    [X] kept in the relation's entry: it names an equality probe on
    [X], which the planner and the constraint layer read. The probe is
    served by the relation's subsumption index
    ({!Subsume_index.equi_probe}), whose listing tables advance with
    each write and survive compactions, so writes, journal replay,
    checkpoints and loads do no work for a declaration. {!Persist}
    saves the declarations in the [INDEX] file. *)

val index_kinds : string list
(** The declarable kinds: [["hash"; "range"]]. *)

val create_index : t -> string -> kind:string -> Attr.Set.t -> t
(** Declares an index. Idempotent on an identical declaration. Raises
    [Exec_error] on an unknown relation or kind, on an empty attribute
    set or attributes outside the schema, or (for [range]) on a key of
    more than one attribute. *)

val drop_index : t -> string -> kind:string -> Attr.Set.t -> t
(** No-op on an unknown declaration. *)

val indexes : t -> string -> (string * Attr.Set.t * int) list
(** The declared indexes of one relation: kind, attributes, and how
    many tuples are total on the attributes (the tuples a probe can
    return). *)

val all_indexes : t -> (string * string * Attr.Set.t) list
(** Every declaration in the catalog: relation, kind, attributes. *)

val equi_probe : t -> string -> Attr.Set.t -> (Tuple.t -> Tuple.t list) option
(** An equality probe over the named relation on exactly these
    attributes when a declared index of any kind names them, [None]
    otherwise: {!Subsume_index.equi_probe} of the relation's
    subsumption index. *)

val has_equi : t -> string -> Attr.Set.t -> bool
(** Whether {!equi_probe} answers, decided without building anything. *)

val restore_index : t -> string -> kind:string -> Attr.Set.t -> t option
(** Re-declares a persisted index: {!create_index}, or [None] where it
    would raise (the relation or its attributes no longer exist) — a
    persisted declaration is never a source of truth. *)

val to_db : t -> (string * (Schema.t * Xrel.t)) list
(** Export in the shape the {!Quel.Resolve} evaluator consumes. *)

(** {1 Statistics}

    Each relation carries an internal data version, bumped by every
    write ({!add} over an existing name, {!set_relation} — including
    journal replay during recovery). Stats set through {!set_stats}
    are stamped with the version current at that moment and count as
    fresh only while no write has happened since; a mutation
    invalidates them implicitly, with no path that forgets to. *)

type stats_status =
  | Fresh of Stats.table  (** Collected against the current data. *)
  | Stale of Stats.table  (** The relation changed since collection. *)
  | Missing  (** Never analyzed (or unknown relation). *)

val stats_status : t -> string -> stats_status

val stats : t -> string -> Stats.table option
(** Fresh stats only; [None] when stale or missing. *)

val set_stats : t -> string -> Stats.table -> t
(** Stamps and stores; no-op on an unknown name. *)

val clear_stats : t -> string -> t

(** {1 Constraints}

    Declared integrity constraints ({!Constr.def}) live in the catalog
    beside the relations they govern. A declaration fully verifies the
    current data (the TLA+ [Add*Constraint] precondition); afterwards
    the DML layer keeps them satisfied incrementally through
    {!enforce}. A wholesale replacement of a relation ({!add} over an
    existing name — the shell's [.load]) marks every constraint
    involving it {e unverified}: still enforced on new writes, but the
    bulk-loaded data itself has not been checked — mirroring the stats
    Fresh/Stale protocol. *)

val constraints : t -> Constr.def list
(** In declaration order. *)

val constraint_def : t -> string -> Constr.def option

val add_constraint : t -> Constr.def -> t
(** Verifies the current data satisfies the definition (raises
    {!Constr.Error} with the first violation otherwise), then attaches
    it. A definition with the same name is replaced. *)

val attach_constraint : ?verified:bool -> t -> Constr.def -> t
(** Attaches without verification — the journal-replay and
    checkpoint-load path ("replay re-enforces rather than re-checks").
    [~verified:false] records it as unverified. *)

val drop_constraint : t -> string -> t
(** No-op on an unknown name. *)

val unverified_constraints : t -> string list
(** Names whose last verification predates the data. *)

val revalidate_constraints : t -> t * (string * Constr.violation) list
(** Re-runs full verification on every unverified constraint; the ones
    that pass are marked verified, the violations of the rest are
    returned (those stay unverified). *)

val enforce_env : t -> Constr.env
(** The catalog as an enforcement environment: relation lookup, lazy
    probe indexes, the declared equality indexes ({!equi_probe}),
    primary keys. *)

val enforce : t -> Constr.delta list -> Constr.delta list
(** {!Constr.enforce} against this catalog's state and declarations. *)

val verify_constraint : t -> Constr.def -> Constr.violation list

type reference_violation = {
  relation : string;  (** Referencing relation. *)
  fk : Schema.foreign_key;
  tuple : Tuple.t;  (** The dangling referencing tuple. *)
}

val pp_reference_violation : Format.formatter -> reference_violation -> unit

val check_references : t -> reference_violation list
(** Referential integrity across the whole catalog, with the null
    semantics of {!Schema.foreign_key}: a referencing tuple that is
    null on {e any} foreign-key attribute asserts nothing and passes; a
    total reference must be matched, for sure, by some tuple of the
    target relation. A foreign key whose target relation is absent
    flags every total reference. Declared {!Constr.Foreign_key}
    constraints are included alongside the schema-level ones. *)
