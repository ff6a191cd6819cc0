(** Declarable integrity constraints under the paper's [ni] semantics,
    with incremental enforcement and referential actions.

    The paper's closing remarks say the basic integrity rules "can be
    extended and enforced in the presence of null values, without major
    problems"; this module is that extension, following the TLA+
    [MQDBConstraints] specification (SNIPPETS.md):

    - {b unique} is ni-tolerant: a tuple null on {e any} unique
      attribute collides with nothing ([UniqueOk] holds vacuously on
      [NullVal]); only two tuples {e total} on the unique attributes
      with equal values violate it.
    - {b not-null} forbids [ni] on one attribute, mirroring entity
      integrity for declared non-key attributes.
    - {b foreign keys} assert nothing when the referencing tuple is
      null on any local attribute ([FKTargetExists] on [NullVal]); a
      total reference must be x-subsumed by the target relation. On
      deletion of a referenced tuple, the declared action fires:
      [Restrict] aborts, [Cascade] deletes the referencing tuples
      (transitively — the [CascadeSet] closure), [Set_null] rewrites
      the local attributes to [ni], which must itself re-satisfy every
      not-null and primary-key rule or the whole transaction aborts.

    Enforcement ({!enforce}) is {e incremental}: it checks only the
    tuples a statement added or removed, probing the target relations
    through {!Nullrel.Subsume_index} rather than re-scanning — and, for
    a delete, the referencing relation through a declared index on the
    foreign key's columns when there is one — and returns the closure
    of referential actions as extra deltas to be committed inside the
    same transaction. *)

open Nullrel

(** {1 Declarations} *)

type action = Restrict | Cascade | Set_null

type def =
  | Unique of { name : string; rel : string; attrs : Attr.t list }
  | Not_null of { name : string; rel : string; attr : Attr.t }
  | Foreign_key of {
      name : string;
      rel : string;  (** Referencing relation. *)
      target : string;  (** Referenced relation. *)
      pairs : (Attr.t * Attr.t) list;  (** [(local, referenced)]. *)
      on_delete : action;
    }

val name : def -> string
val relations : def -> string list
(** The relations a definition involves: [[rel]], or [[rel; target]]
    for a foreign key (deduplicated for self-references). *)

val action_to_string : action -> string
val action_of_string : string -> action option
val pp_def : Format.formatter -> def -> unit

val def_to_line : def -> string
(** One tab-separated line, newline-free; the persistence and journal
    format. *)

val def_of_line : string -> def option
(** Inverse of {!def_to_line}; [None] on anything unparseable. *)

(** {1 Violations} *)

type violation =
  | Null_forbidden of { constr : string; rel : string; attr : Attr.t }
      (** A written tuple is [ni] on a not-null attribute. *)
  | Duplicate of { constr : string; rel : string; tuple : Tuple.t }
      (** A second tuple, total on the unique attributes, carries the
          same values. *)
  | Dangling of {
      constr : string;
      rel : string;
      target : string;
      tuple : Tuple.t;
    }  (** A total reference matched by no target tuple. *)
  | Restricted of {
      constr : string;
      rel : string;
      target : string;
      tuple : Tuple.t;
    }
      (** A deletion from [target] would orphan [tuple] of [rel] and
          the foreign key says [Restrict]. *)
  | Set_null_forbidden of {
      constr : string;
      rel : string;
      attr : Attr.t;
      blocker : string;  (** ["primary key"] or a constraint name. *)
    }
      (** [Set_null] would write [ni] into an attribute that a
          not-null constraint or the primary key forbids to be null. *)

exception Error of violation

val error : violation -> 'a
(** Counts the violation in the metrics registry, then raises
    {!Error}. *)

val class_name : violation -> string
(** Stable one-word class: ["not-null"], ["unique"], ["fk-dangling"],
    ["fk-restricted"], ["set-null-blocked"]. *)

val exit_code : int
(** Process exit code for constraint violations: 10, continuing the
    session layer's 7..9 range. *)

val to_string : violation -> string
val pp_violation : Format.formatter -> violation -> unit

(** {1 Enforcement} *)

type delta = {
  d_rel : string;
  d_added : Tuple.Set.t;
  d_removed : Tuple.Set.t;
}
(** One relation's change, as the tuples its minimal representation
    gained and lost (the {!Storage.Wal} delta shape). *)

type env = {
  lookup : string -> Xrel.t option;
      (** The {e post-statement} state of a relation. *)
  probe : string -> Subsume_index.t option;
      (** A subsumption index over exactly [lookup]'s value. *)
  equi_probe : string -> Attr.Set.t -> (Tuple.t -> Tuple.t list) option;
      (** [equi_probe rel attrs]: an equality probe over exactly
          [lookup rel]'s value on exactly the attribute set [attrs] —
          given a tuple total on [attrs], the tuples that agree with it
          there — or [None] when no declared index covers [attrs]. A
          delete action probes it on a foreign key's local attributes,
          once per removed target tuple, instead of scanning the
          referencing relation. *)
  key_of : string -> Attr.Set.t;
      (** The relation's primary key (empty when none). *)
}

val enabled : bool ref
(** Kill switch, [true] by default. When flipped off, {!enforce}
    returns [[]] without checking — the bench baseline for the
    enforcement-overhead gate. *)

val enforce : env -> def list -> delta list -> delta list
(** [enforce env defs seeds] checks the seed deltas (already reflected
    in [env]) against every constraint and computes the referential
    action closure. Added tuples are checked for not-null, ni-tolerant
    uniqueness and dangling references by index probes; removed tuples
    trigger the declared delete actions on every foreign key referencing
    their relation, to a fixpoint (a cascade can orphan further
    references). An action fires only on the references the removal
    broke — total references equal to a removed tuple's referenced
    values that no remaining target tuple matches — so a dangling
    reference loaded under an unverified constraint is left alone. They
    are found by {!env.equi_probe} on the foreign key's local
    attributes when it answers, by a scan of the referencing relation
    otherwise; a [Restrict] refusal names the least such tuple in
    [Xrel.to_list] order either way. Each action advances the working
    state by its own delta, never rebuilding a relation or an index. Returns the extra deltas — cascade deletions and
    set-null rewrites, in firing order — that must commit atomically
    with the seeds. Raises {!Error} on any violation; the caller must
    then abandon the whole transaction. With no definitions (or
    {!enabled} off) it returns [[]] immediately. *)

val verify : env -> def -> violation list
(** Full-scan verification that the current data satisfies one
    definition — the TLA+ [Add*Constraint] precondition, used at
    declaration time and to re-validate constraints restored from a
    stale checkpoint. An unknown relation yields no violations (there
    is nothing to violate). *)
