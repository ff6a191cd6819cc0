type t =
  | Conflict of { relation : string }
  | Queue_full of { limit : int }
  | Shutdown
  | Constraint of Constr.violation

exception Error of t

let class_name = function
  | Conflict _ -> "conflict"
  | Queue_full _ -> "queue-full"
  | Shutdown -> "shutdown"
  | Constraint _ -> "constraint"

let m_abort =
  let make cls =
    ( cls,
      Obs.Metrics.counter ~labels:[ ("class", cls) ]
        ~help:"Session transactions aborted at the engine boundary, by class"
        "nullrel_session_aborts_total" )
  in
  List.map make [ "conflict"; "queue-full"; "shutdown"; "constraint" ]

let raise_ e =
  if Obs.Metrics.is_enabled () then
    Obs.Metrics.inc (List.assoc (class_name e) m_abort);
  raise (Error e)

let conflict ~relation = raise_ (Conflict { relation })
let queue_full ~limit = raise_ (Queue_full { limit })
let shutdown () = raise_ Shutdown

(* Continues Exec_error's 2..6 range so the CLI maps every typed abort
   to a distinct process exit code. *)
let exit_code = function
  | Conflict _ -> 7
  | Queue_full _ -> 8
  | Shutdown -> 9
  | Constraint _ -> Constr.exit_code

let to_string = function
  | Conflict { relation } ->
      Printf.sprintf
        "conflict: a concurrent transaction touched %s after this \
         transaction's snapshot; re-run against a fresh snapshot"
        relation
  | Queue_full { limit } ->
      Printf.sprintf
        "commit queue full (%d pending transactions); commit again to retry"
        limit
  | Shutdown -> "session engine is shut down"
  | Constraint v -> Constr.to_string v
