(** The write-ahead journal: whole transactions as serialized operation
    lists.

    Section 7 defines every update algebraically, so the effect of any
    statement on a relation is captured exactly by two antichains of
    tuples: the rows its minimal representation gained and the rows it
    lost. A {!change} stores precisely that (re-using {!Binary}'s
    encoding), which makes replay {e exact}: applying a change to the
    pre-state reproduces the post-state byte for byte, because a subset
    of a minimal representation is itself minimal and therefore survives
    the encode/decode roundtrip unchanged.

    A {!record} is one {e atomic transaction}: the relation changes a
    session transaction produced — including every cascade and set-null
    delta its constraints fired — plus any constraint DDL, in a single
    frame. The frame is the atomicity unit of the journal: {!read}
    returns whole frames only, so a crash mid-append can never surface
    half a cascade; the torn tail drops the entire transaction.

    The journal file is [DIR/wal], a sequence of frames:
    {v
    frame ::= payload-length:4 bytes LE  payload  crc32(payload):4 bytes LE
    payload ::= lsn:8 bytes LE  op-count:4 bytes LE  op*
    op ::= 'C'  rel-name-block  added-block:Binary  removed-block:Binary
         | 'A'  constraint-def-line-block
         | 'D'  constraint-name-block
    block ::= length:4 bytes LE  bytes
    v}
    A frame is committed once {!append} returns (the write is fsynced).
    {!read} returns the longest valid prefix of frames; a torn tail —
    the signature of a crash mid-append — is reported, not raised. *)

open Nullrel

type change = {
  rel : string;  (** The relation the operation touched. *)
  added : Xrel.t;  (** Rows the minimal representation gained. *)
  removed : Xrel.t;  (** Rows the minimal representation lost. *)
}

type op =
  | Change of change
  | Add_constraint of Constr.def  (** Constraint DDL rides the journal. *)
  | Drop_constraint of string

type record = {
  lsn : int;  (** Log sequence number, strictly increasing from 1. *)
  ops : op list;  (** The whole transaction, in application order. *)
}

exception Error of string
(** Raised by {!apply} when a record does not fit the catalog. *)

val file : dir:string -> string
(** [DIR/wal]. *)

val change : rel:string -> before:Xrel.t -> after:Xrel.t -> change
(** The exact difference of two states of one relation. *)

val change_is_noop : change -> bool

val delta : lsn:int -> rel:string -> before:Xrel.t -> after:Xrel.t -> record
(** A single-change transaction record. *)

val apply_op : ?verify_constraints:bool -> Catalog.t -> op -> Catalog.t
(** Replays one operation. [Change] splices the delta into the
    relation's minimal representation. [Add_constraint] attaches the
    definition — {e without} re-verifying the data by default (replay
    re-enforces rather than re-checks: the original commit verified
    it); pass [~verify_constraints:true] to fully verify instead (the
    session layer's speculative apply does, so a concurrent commit that
    broke a just-validated declaration is caught, raising
    {!Constr.Error}). Raises {!Error} if a change's relation is not in
    the catalog, and {!Catalog.Violation} if the spliced relation fails
    its schema — both mean the journal does not belong to this
    catalog. *)

val apply : ?verify_constraints:bool -> Catalog.t -> record -> Catalog.t
(** {!apply_op} over the whole transaction, in order. *)

val append : io:Io.t -> dir:string -> record -> unit
(** Appends one frame, fsynced; the commit point of a durable update. *)

val append_batch : io:Io.t -> dir:string -> record list -> unit
(** Appends every frame in one [append_file] call — one fsync for the
    whole batch, the group-commit primitive. The frames are bytewise
    identical to [List.iter (append ...)], so {!read} cannot tell
    batched commits from individual ones; a crash mid-append leaves a
    torn {e tail} (some prefix of the batch committed whole, the rest
    gone), exactly like a torn single append. No-op on the empty
    list. *)

val read : io:Io.t -> dir:string -> record list * string option
(** All committed records, in order, plus a description of the torn or
    corrupt tail if the file does not end cleanly (never raises — the
    valid prefix is always returned). A missing journal is
    [([], None)]. *)

val reset : io:Io.t -> dir:string -> unit
(** Empties the journal (atomically, via rename) after a checkpoint. *)
