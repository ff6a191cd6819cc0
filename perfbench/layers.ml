(* The per-layer metrics of a traced run: span times from {!Trace},
   plus the engine's own [Obs.Metrics] counters read as deltas over the
   traced phase. Every workload prints every metric; a layer the
   workload never enters reads 0. *)

open Common

let counters =
  [
    "nullrel_subsumption_comparisons_total";
    "nullrel_minimize_input_tuples";
    "nullrel_minimize_output_tuples";
    "nullrel_exec_ticks_total";
    "nullrel_comparison_verdicts_total";
    "nullrel_par_chunks_total";
    "nullrel_subsume_index_advances_total";
    "nullrel_subsume_index_builds_total";
    "nullrel_constraint_checks_total";
    "nullrel_constraint_cascade_tuples_total";
    "storage_fsyncs_total";
    "storage_wal_replayed_total";
    "storage_index_attach_total";
    "storage_index_rebuild_total";
  ]

type mark = {
  obs : (string * int) list;
  wal_bytes : int;
  ckpt_bytes : int;
  ckpts : int;
}

let mark () =
  {
    obs = List.map (fun n -> (n, obs_total n)) counters;
    wal_bytes = Atomic.get Bench_io.wal_written;
    ckpt_bytes = Atomic.get Bench_io.checkpoint_written;
    ckpts = Atomic.get Bench_io.checkpoints;
  }

(* Switches tracing and the engine's counters on; returns the start
   mark. Only call while no session is running. *)
let start () =
  Obs.Metrics.set_enabled true;
  Trace.on := true;
  mark ()

let stop () =
  Trace.on := false;
  Obs.Metrics.set_enabled false;
  mark ()

let durs spans = List.map Trace.dur spans
let mean_of k spans = k *. mean (durs spans)

let pcts k spans ps =
  let a = Array.of_list (durs spans) in
  Array.sort compare a;
  List.map (fun p -> if Array.length a = 0 then 0. else k *. pct a p) ps

(* [overhead_ms]: traced minus untraced median of the workload's timed
   operation. *)
let report ~m0 ~m1 ~overhead_ms spans =
  let d name = float (List.assoc name m1.obs - List.assoc name m0.obs) in
  let sel ?tag ~layer ~name () = Trace.select ?tag ~layer ~name spans in
  let stmts = float (List.length (List.filter Trace.is_stmt spans)) in
  let awaits = (sel ~layer:"session" ~name:"Session.await" ()) in
  let commits = float (List.length awaits) in
  let per_commit x = ratio x commits in
  let per_stmt x = ratio x stmts in
  let wal_appends = (sel ~layer:"storage" ~name:"append_file" ~tag:"wal" ()) in
  let leaders = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace leaders s.parent ()) wal_appends;
  let led =
    List.length (List.filter (fun (s : Trace.span) -> Hashtbl.mem leaders s.id) awaits)
  in
  let ckpt_ops =
    List.filter
      (fun (s : Trace.span) ->
        String.equal s.layer "storage" && String.equal s.tag "checkpoint"
        && not (String.equal s.name "read_file"))
      spans
  in
  let opens = (sel ~layer:"session" ~name:"Session.open_engine" ()) in
  let loads = (sel ~layer:"storage" ~name:"Persist.load_report" ()) in
  let n_opens = float (List.length opens) in
  let open_ids = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace open_ids s.id ()) opens;
  let under_open name =
    List.fold_left
      (fun acc (s : Trace.span) ->
        if String.equal s.layer "storage" && String.equal s.name name
           && Hashtbl.mem open_ids s.parent
        then acc + s.bytes
        else acc)
      0 spans
    |> float
  in
  let await_p = pcts 1e6 awaits [ 50.; 99. ] in
  let append_p = pcts 1e6 wal_appends [ 50.; 99. ] in
  let attached = d "storage_index_attach_total" in
  let m name v unit = metric ~json:true name v unit in
  (* Read path. *)
  m "quel.parse_us" (mean_of 1e6 ((sel ~layer:"quel" ~name:"Parser.parse_statement" ()))) "us";
  m "session.read_exec_ms.scan" (mean_of 1e3 ((sel ~layer:"session" ~name:"Session.exec" ~tag:"scan" ()))) "ms";
  m "session.read_exec_ms.join" (mean_of 1e3 ((sel ~layer:"session" ~name:"Session.exec" ~tag:"join" ()))) "ms";
  m "quel.rows_examined_per_row"
    (ratio (float (Atomic.get examined_rows)) (float (Atomic.get answer_rows)))
    "ratio";
  m "kernel.subsumption_cmp_per_stmt" (per_stmt (d "nullrel_subsumption_comparisons_total")) "count";
  m "xrel.minimize_keep_ratio"
    (ratio (d "nullrel_minimize_output_tuples") (d "nullrel_minimize_input_tuples"))
    "ratio";
  m "exec.ticks_per_stmt" (per_stmt (d "nullrel_exec_ticks_total")) "count";
  m "predicate.verdicts_per_stmt" (per_stmt (d "nullrel_comparison_verdicts_total")) "count";
  m "par.chunks_per_stmt" (per_stmt (d "nullrel_par_chunks_total")) "count";
  (* Commit path. *)
  m "session.write_exec_us"
    (mean_of 1e6
       (List.filter
          (fun (s : Trace.span) -> not (List.mem s.tag [ "scan"; "join" ]))
          ((sel ~layer:"session" ~name:"Session.exec" ()))))
    "us";
  m "session.submit_us" (mean_of 1e6 ((sel ~layer:"session" ~name:"Session.submit" ()))) "us";
  m "session.await_us.p50" (List.nth await_p 0) "us";
  m "session.await_us.p99" (List.nth await_p 1) "us";
  m "session.lead_share" (ratio (float led) commits) "ratio";
  (* Each committed transaction is one journal record and each group
     flush one journal append. *)
  m "session.records_per_batch" (ratio commits (float (List.length wal_appends))) "count";
  m "subsume_index.advances_per_commit" (per_commit (d "nullrel_subsume_index_advances_total")) "count";
  m "subsume_index.builds_per_commit" (per_commit (d "nullrel_subsume_index_builds_total")) "count";
  m "constr.checks_per_commit" (per_commit (d "nullrel_constraint_checks_total")) "count";
  m "constr.cascade_tuples_per_commit" (per_commit (d "nullrel_constraint_cascade_tuples_total")) "count";
  m "io.append_us.p50" (List.nth append_p 0) "us";
  m "io.append_us.p99" (List.nth append_p 1) "us";
  m "io.fsyncs_per_commit" (per_commit (d "storage_fsyncs_total")) "count";
  m "wal.bytes_per_commit" (per_commit (float (m1.wal_bytes - m0.wal_bytes))) "B";
  m "persist.checkpoint_ms"
    (ratio (1e3 *. List.fold_left ( +. ) 0. (durs ckpt_ops)) (float (m1.ckpts - m0.ckpts)))
    "ms";
  m "persist.checkpoint_bytes_per_commit"
    (per_commit (float (m1.ckpt_bytes - m0.ckpt_bytes)))
    "B";
  (* Recovery. *)
  m "persist.load_ms" (mean_of 1e3 loads) "ms";
  m "restart.repair_ms" (mean_of 1e3 opens -. mean_of 1e3 loads) "ms";
  m "io.read_bytes_per_restart" (ratio (under_open "read_file") n_opens) "B";
  m "io.write_bytes_per_restart"
    (ratio (under_open "write_file" +. under_open "append_file") n_opens)
    "B";
  m "wal.replayed_per_restart"
    (ratio (d "storage_wal_replayed_total") (float (List.length loads) +. n_opens))
    "count";
  m "persist.index_attach_share"
    (ratio attached (attached +. d "storage_index_rebuild_total"))
    "ratio";
  (* Trace health. *)
  m "trace.coverage" (Trace.coverage spans) "ratio";
  m "trace.overhead" overhead_ms "ms"
