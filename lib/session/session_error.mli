(** The typed error taxonomy of the concurrent session layer.

    Extends {!Nullrel.Exec_error}'s classes with the three ways a
    transaction can fail at the {e engine} boundary rather than inside
    its own execution: optimistic-concurrency conflicts, admission
    control, and engine shutdown. Statement-level failures (bad input,
    budgets, storage faults) keep raising {!Nullrel.Exec_error.Error};
    nothing a session can do should surface any other exception. *)

type t =
  | Conflict of { relation : string }
      (** First-committer-wins validation failed: another transaction
          that committed after this one's snapshot touched an
          overlapping set of tuples of [relation]. The transaction is
          rolled back; re-run it against a fresh snapshot. *)
  | Queue_full of { limit : int }
      (** Admission control: the engine's commit queue already holds
          [limit] pending transactions. The transaction stays staged;
          commit again to retry. *)
  | Shutdown
      (** The engine is stopped (or poisoned by a mid-flush fault) and
          accepts no further work. *)
  | Constraint of Constr.violation
      (** Commit-time constraint validation failed: against the {e
          merged} state (this transaction's effects on top of every
          concurrent commit that won), a declared constraint no longer
          holds. The transaction is rolled back; nothing was
          journaled. *)

exception Error of t

val raise_ : t -> 'a
val conflict : relation:string -> 'a
val queue_full : limit:int -> 'a
val shutdown : unit -> 'a

val class_name : t -> string
(** Stable one-word class: ["conflict"], ["queue-full"],
    ["shutdown"], ["constraint"]. *)

val exit_code : t -> int
(** Distinct nonzero process exit codes, continuing
    {!Nullrel.Exec_error.exit_code}'s 2..6 range: conflict 7,
    queue-full 8, shutdown 9, constraint 10. *)

val to_string : t -> string
