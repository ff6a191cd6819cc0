(** Executing QUEL update statements against a catalog.

    The semantics are Section 7's: [append] is lattice union, [delete]
    is difference, [replace] is a deletion followed by an addition.
    Because the lower-bound discipline extends to updates, [delete] and
    [replace] touch only the tuples that {e surely} match the
    qualification — a null never matches, so incomplete tuples are never
    destroyed by a value-based condition.

    Every executed update re-checks the target relation against its
    schema ({!Storage.Catalog.Violation} aborts the update; the catalog
    is unchanged). *)


(** Errors — an unknown relation, an unknown attribute in an
    assignment, a qualification referencing a variable other than the
    target — raise {!Nullrel.Exec_error.Error} with [Bad_input]. *)

type outcome = {
  catalog : Storage.Catalog.t;  (** The catalog after the statement. *)
  message : string;  (** One-line human summary ("2 tuples deleted"). *)
  result : Quel.Eval.result option;
      (** The table, for [retrieve] statements only. Under a reporting
          dialect this is the sure band re-minimized into the
          [Xrel.t]-shaped compat result; [bands] has the plain sets. *)
  bands : Quel.Eval.bands option;
      (** The dialect's banded answer, for [retrieve] statements
          evaluated under a non-[Ni_lower] {!Nullrel.Semantics}
          dialect; [None] for writes and for [Ni_lower] reads. *)
  touched : string list;
      (** Every relation the statement wrote, sorted — the target plus
          any relations its constraints cascaded into. Empty for reads
          and constraint DDL. *)
  deltas : Constr.delta list;
      (** The net per-relation changes actually applied, in firing
          order (the statement's own delta, then the cascades). The
          durable layer journals these directly, so the journaling
          cost is bounded by the delta rather than the relation. Empty
          for reads, DDL and no-op writes. *)
}

val exec :
  ?semantics:Nullrel.Semantics.t -> Storage.Catalog.t ->
  Quel.Ast.statement -> outcome
(** Executes one statement. [semantics] (default
    {!Nullrel.Semantics.current}) selects the dialect [retrieve]
    answers under — writes always qualify tuples by the paper's
    lower-bound rule regardless, so updates are dialect-independent.
    Execution is {e including} incremental constraint
    enforcement: inserts and updates are validated against the declared
    unique / not-null / foreign-key constraints using index probes, and
    a delete from a referenced relation fires its cascade / set-null
    closure as part of the same statement — all of it reflected in the
    returned catalog, or none of it ({!Constr.Error} aborts with the
    catalog unchanged). [constrain] verifies the existing data first;
    [unconstrain] drops by name. Write statements targeting the
    reserved [sys_] namespace are rejected with [Bad_input] — those are
    the virtual system-catalog relations (lib/sysview), computed views
    that no statement can store into. *)

(** A write statement compiled against its target: the tuple an
    [append] assigns, the qualification a [delete] surely matches, or a
    [replace]'s qualification and the image it maps each match to. *)
type write =
  | Insert of Nullrel.Tuple.t
  | Remove of Nullrel.Predicate.t
  | Patch of Nullrel.Predicate.t * (Nullrel.Tuple.t -> Nullrel.Tuple.t)

val compile_write :
  Storage.Catalog.t ->
  Quel.Ast.statement ->
  (string * Nullrel.Xrel.t * write) option
(** The target relation's name and current value, and the compiled
    write; [None] for [retrieve] and constraint DDL. {!exec} runs every
    write through it, and so does the full-rewrite reference the tests
    check {!exec} against. Raises like {!exec} on an unknown relation
    or attribute or a qualification over another variable. *)

val exec_string :
  ?semantics:Nullrel.Semantics.t -> Storage.Catalog.t -> string -> outcome
(** [exec] composed with {!Quel.Parser.parse_statement}. *)

val is_read : Quel.Ast.statement -> bool
(** True exactly for [retrieve]. *)

val target_relation : Quel.Ast.statement -> string option
(** The relation a statement writes: [None] for [retrieve] and
    [unconstrain], the target name otherwise. The session layer uses
    this to maintain per-transaction write sets. *)

val ops_between :
  Storage.Catalog.t ->
  Storage.Catalog.t ->
  string list ->
  Storage.Wal.op list
(** [ops_between cat0 cat1 touched] is the journal-operation list that
    turns [cat0] into [cat1]: one non-noop {!Storage.Wal.Change} per
    touched relation plus the constraint-DDL difference — the payload
    of one atomic transaction record. *)

(** {1 Durable mode}

    A durable session pins the catalog to a directory with
    write-ahead-journalled updates: every statement is appended to
    [DIR/wal] ({!Storage.Wal}) {e before} its effect is applied, and a
    full crash-safe checkpoint ({!Storage.Persist.save}) is cut every
    [checkpoint_every] statements. A crash at any moment therefore
    loses at most the statement whose journal append was interrupted;
    {!open_durable} (via {!Storage.Persist.recover}) replays the
    committed journal tail and leaves the directory clean again. *)

type durable

val open_durable :
  ?io:Storage.Io.t ->
  ?checkpoint_every:int ->
  dir:string ->
  unit ->
  durable * Storage.Persist.report
(** Opens (creating if absent) a durable catalog directory, running
    full recovery first. The report says what recovery found; a
    relation quarantined as [Corrupt] is absent from the session.
    Default [checkpoint_every] is 64. *)

val durable_catalog : durable -> Storage.Catalog.t
val durable_lsn : durable -> int

val exec_durable : durable -> Quel.Ast.statement -> durable * outcome
(** Journal, apply, checkpoint-if-due. Statements that change nothing
    (including every [retrieve]) are not journaled. Exceptions from the
    statement itself ({!Nullrel.Exec_error.Error},
    {!Storage.Catalog.Violation}) leave the session unchanged;
    exceptions from the filesystem propagate and the session value must
    be discarded — re-open to recover. A governed abort (timeout,
    budget, cancellation) is checked strictly {e before} the journal
    append, so it always leaves the directory at the last committed
    state. *)

val exec_durable_string : durable -> string -> durable * outcome
val checkpoint : durable -> durable
(** Forces a checkpoint now (also empties the journal). *)
