(* nullrel: a command-line front end for relations with null values.

   Relations are CSV files ("-" is the null); the first line names the
   attributes.  Subcommands expose the generalized algebra and
   mini-QUEL, whose queries the planner answers (Plan.Compile.run_catalog,
   as in the shell; the reporting dialects get the calculus evaluator's
   bands).

     nullrel show r.csv
     nullrel minimize r.csv
     nullrel union r1.csv r2.csv
     nullrel diff r1.csv r2.csv
     nullrel inter r1.csv r2.csv
     nullrel join --on ID r1.csv r2.csv
     nullrel outerjoin --on ID r1.csv r2.csv
     nullrel divide --quotient S# r.csv divisor.csv
     nullrel query --rel EMP=emp.csv 'range of e is EMP retrieve (e.NAME)'
     nullrel query --analyze --rel EMP=emp.csv '...'   (statistics first)
     nullrel agg sum --attr e.QTY --rel SP=sp.csv '...'

   Exit codes: 0 success, 1 generic/quarantine, 2 bad input (parse,
   resolve, CSV shape), 3 storage/I-O faults, 4 timeout, 5 budget
   exceeded, 6 cancelled, 7 commit conflict, 8 commit queue full,
   9 engine shut down, 10 constraint violation. *)

open Nullrel
open Cmdliner

(* [read path], with a CSV error naming the file. *)
let csv_file read path =
  try read path with
  | Storage.Csv.Error msg -> raise (Storage.Csv.Error (path ^ ": " ^ msg))

let load = csv_file (fun path -> Storage.Csv.read_file path)

let split_eq what binding =
  match String.index_opt binding '=' with
  | None -> Exec_error.bad_inputf "%s expects NAME=..., got %s" what binding
  | Some idx ->
      ( String.sub binding 0 idx,
        String.sub binding (idx + 1) (String.length binding - idx - 1) )

(* Column order for printing a result: requested attrs first, then any
   remaining scope attributes. *)
let columns_for preferred x =
  let scope = Xrel.scope x in
  let in_preferred a = List.exists (Attr.equal a) preferred in
  preferred @ List.filter (fun a -> not (in_preferred a)) (Attr.Set.elements scope)

let emit ~as_csv attrs x =
  if as_csv then print_string (Storage.Csv.write_string attrs x)
  else Format.printf "%a@?" (Pp.table attrs) x

(* --------------------- errors and limits ------------------- *)

(* One exception story for every subcommand: each error class gets its
   own nonzero exit code, so scripts can distinguish a typo (2) from a
   failing disk (3) from a governor abort (4..6). Every branch also
   records a structured abort event, so a --trace-file dump written
   from at_exit carries the reason the process died. *)
let handle f =
  let abort kind detail = Sysview.Trace.note_abort ~kind ~detail in
  try f () with
  | Session.Session_error.Error e ->
      let msg = Session.Session_error.to_string e in
      abort "session" msg;
      Printf.eprintf "error: %s\n" msg;
      exit (Session.Session_error.exit_code e)
  | Constr.Error v ->
      let msg = Constr.to_string v in
      abort "constraint" msg;
      Printf.eprintf "constraint violation: %s\n" msg;
      exit Constr.exit_code
  | Exec_error.Error e ->
      let msg = Exec_error.to_string e in
      abort "governor" msg;
      Printf.eprintf "error: %s\n" msg;
      exit (Exec_error.exit_code e)
  | Quel.Parser.Error msg ->
      abort "parse" msg;
      Printf.eprintf "parse error: %s\n" msg;
      exit 2
  | Quel.Lexer.Error (msg, pos) ->
      abort "parse" msg;
      Printf.eprintf "lexical error at %d: %s\n" pos msg;
      exit 2
  | Quel.Resolve.Error msg ->
      abort "resolve" msg;
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | Value.Type_error msg ->
      abort "type" msg;
      Printf.eprintf "type error: %s\n" msg;
      exit 2
  | Storage.Csv.Error msg ->
      abort "csv" msg;
      Printf.eprintf "csv error: %s\n" msg;
      exit 2
  | Storage.Catalog.Violation violations ->
      let text =
        String.concat "\n"
          (List.map (Pp.to_string Schema.pp_violation) violations)
      in
      abort "integrity" text;
      Printf.eprintf "integrity violations:\n%s\n" text;
      exit 2
  | Storage.Binary.Corrupt msg ->
      abort "storage" msg;
      Printf.eprintf "error: corrupt relation file: %s\n" msg;
      exit 3
  | Storage.Persist.Error msg ->
      abort "storage" msg;
      Printf.eprintf "error: %s\n" msg;
      exit 3
  | Sys_error msg ->
      abort "io" msg;
      Printf.eprintf "error: %s\n" msg;
      exit 3

(* --metrics-file / --trace / --trace-file all enable collection up
   front and flush through [at_exit], so the dump is written even when
   [handle] leaves with a nonzero code on a governor abort. *)
let metrics_dumped = ref false
let trace_dumped = ref false

let setup_obs metrics_file trace trace_file =
  if metrics_file <> None || trace || trace_file <> None then begin
    Obs.Metrics.set_enabled true;
    Obs.Span.set_enabled true;
    Option.iter
      (fun path ->
        at_exit (fun () ->
            (* Exactly one aggregated dump per process: every session
               and every domain feeds the same global registry, so a
               single writer sees it all — and writing a sibling then
               renaming publishes the file atomically, so a concurrent
               reader (or a crash mid-dump) never observes interleaved
               or half-written text. *)
            if not !metrics_dumped then begin
              metrics_dumped := true;
              try
                let tmp = path ^ ".tmp" in
                let oc = open_out tmp in
                output_string oc (Obs.Metrics.dump_prometheus ());
                close_out oc;
                Sys.rename tmp path
              with Sys_error _ -> prerr_endline ("cannot write " ^ path)
            end))
      metrics_file;
    Option.iter
      (fun path ->
        at_exit (fun () ->
            (* Same once-guard + sibling-rename story as the metrics
               dump: the JSONL file appears atomically and exactly
               once, after every span (and any abort event noted by
               [handle]) has been recorded. *)
            if not !trace_dumped then begin
              trace_dumped := true;
              try Sysview.Trace.write_file path
              with Sys_error _ -> prerr_endline ("cannot write " ^ path)
            end))
      trace_file;
    if trace then
      at_exit (fun () ->
          List.iter
            (fun (e : Obs.Span.event) ->
              Printf.eprintf "trace: %s%s  %.1fms  %d ticks\n"
                (String.make (2 * e.Obs.Span.depth) ' ')
                e.Obs.Span.label
                (e.Obs.Span.duration_s *. 1000.)
                e.Obs.Span.ticks)
            (Obs.Span.events ()))
  end

let set_semantics dialect =
  Option.iter
    (fun d -> Semantics.set_default (Semantics.of_dialect d))
    dialect

let setup metrics_file trace trace_file domains semantics =
  Option.iter Par.Pool.set_domains domains;
  set_semantics semantics;
  setup_obs metrics_file trace trace_file

(* [f] under a governor, when any limit is set. *)
let limited deadline_s max_tuples f =
  match (deadline_s, max_tuples) with
  | None, None -> f ()
  | _ -> Exec.with_governor (Exec.make ?deadline_s ?max_tuples ()) f

let governed deadline_s max_tuples metrics_file trace trace_file domains
    semantics f =
  setup metrics_file trace trace_file domains semantics;
  handle (fun () -> limited deadline_s max_tuples f)

(* ------------------------- arguments ---------------------- *)

let csv_flag =
  let doc = "Emit CSV instead of an aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let timeout_arg =
  let doc =
    "Abort with exit code 4 if execution runs longer than $(docv) seconds."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~doc ~docv:"SECS")

let max_tuples_arg =
  let doc =
    "Abort with exit code 5 if execution touches more than $(docv) tuples."
  in
  Arg.(value & opt (some int) None & info [ "max-tuples" ] ~doc ~docv:"N")

let metrics_file_arg =
  let doc =
    "Enable metrics collection and write a Prometheus text dump to $(docv) \
     on exit (including aborts)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-file" ] ~doc ~docv:"PATH")

let trace_flag =
  let doc = "Enable span tracing; print recorded spans to stderr on exit." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_file_arg =
  let doc =
    "Enable span tracing and write a structured JSONL trace (spans, slow \
     statements, governed-abort events) to $(docv) on exit (including \
     aborts)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-file" ] ~doc ~docv:"PATH")

let domains_arg =
  let doc =
    "Parallelism degree: how many OCaml domains the kernels may use \
     (default: $(b,NULLREL_DOMAINS) or the hardware recommendation; 1 \
     disables parallel execution)."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"N")

let semantics_arg =
  let doc =
    "Null-semantics dialect queries answer under: $(b,ni) (the paper's \
     lower bound, the default), $(b,codd) (TRUE answers plus a MAYBE \
     band), $(b,sql) (TRUE plus an UNKNOWN band), $(b,certain) (total \
     sure answers only)."
  in
  let dialect_conv =
    Arg.enum
      (List.map
         (fun n -> (n, Option.get (Semantics.of_string n)))
         Semantics.names)
  in
  Arg.(
    value
    & opt (some dialect_conv) None
    & info [ "semantics" ] ~doc ~docv:"DIALECT")

let file n = Arg.(required & pos n (some file) None & info [] ~docv:"FILE")

let on_arg =
  let doc = "Comma-separated join attributes." in
  Arg.(required & opt (some string) None & info [ "on" ] ~doc ~docv:"ATTRS")

let quotient_arg =
  let doc = "Comma-separated quotient (Y) attributes." in
  Arg.(
    required
    & opt (some string) None
    & info [ "quotient"; "y" ] ~doc ~docv:"ATTRS")

let attr_set_of_string s_ =
  Attr.set_of_list (String.split_on_char ',' s_ |> List.map String.trim)

(* ------------------------- commands ----------------------- *)

let show_cmd =
  let run as_csv timeout tuples metrics trace tracef domains sem_d path =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let attrs, x = load path in
        emit ~as_csv attrs x)
  in
  let doc = "Print a relation (as loaded, minimized)." in
  Cmd.v (Cmd.info "show" ~doc)
    Term.(
      const run $ csv_flag $ timeout_arg $ max_tuples_arg $ metrics_file_arg
      $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg $ file 0)

let minimize_cmd =
  let run as_csv timeout tuples metrics trace tracef domains sem_d path =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let attrs, x = load path in
        (* load already canonicalizes; echoing it shows the minimal form *)
        emit ~as_csv attrs x;
        Printf.eprintf "minimal representation: %d tuples\n" (Xrel.cardinal x))
  in
  let doc = "Reduce a relation to its minimal representation." in
  Cmd.v (Cmd.info "minimize" ~doc)
    Term.(
      const run $ csv_flag $ timeout_arg $ max_tuples_arg $ metrics_file_arg
      $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg $ file 0)

let binop_cmd name doc op =
  let run as_csv timeout tuples metrics trace tracef domains sem_d p1 p2 =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let a1, x1 = load p1 in
        let _, x2 = load p2 in
        let result = op x1 x2 in
        emit ~as_csv (columns_for a1 result) result)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ csv_flag $ timeout_arg $ max_tuples_arg $ metrics_file_arg
      $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg $ file 0 $ file 1)

let union_cmd =
  binop_cmd "union" "Generalized union (lattice least upper bound)."
    Xrel.union

let diff_cmd =
  binop_cmd "diff" "Generalized difference, per (4.8)." Xrel.diff

let inter_cmd =
  binop_cmd "inter" "X-intersection (lattice greatest lower bound)."
    Xrel.inter

let join_cmd =
  let run as_csv timeout tuples metrics trace tracef domains sem_d on p1 p2 =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let a1, x1 = load p1 in
        let _, x2 = load p2 in
        let result = Algebra.equijoin (attr_set_of_string on) x1 x2 in
        emit ~as_csv (columns_for a1 result) result)
  in
  let doc = "Equijoin on the given attributes (join columns not repeated)." in
  Cmd.v (Cmd.info "join" ~doc)
    Term.(
      const run $ csv_flag $ timeout_arg $ max_tuples_arg $ metrics_file_arg
      $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg $ on_arg $ file 0 $ file 1)

let outerjoin_cmd =
  let run as_csv timeout tuples metrics trace tracef domains sem_d on p1 p2 =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let a1, x1 = load p1 in
        let _, x2 = load p2 in
        let result = Algebra.union_join (attr_set_of_string on) x1 x2 in
        emit ~as_csv (columns_for a1 result) result)
  in
  let doc = "Union-join (the information-preserving outer join)." in
  Cmd.v (Cmd.info "outerjoin" ~doc)
    Term.(
      const run $ csv_flag $ timeout_arg $ max_tuples_arg $ metrics_file_arg
      $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg $ on_arg $ file 0 $ file 1)

let divide_cmd =
  let run as_csv timeout tuples metrics trace tracef domains sem_d y p1 p2 =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let _, x1 = load p1 in
        let _, x2 = load p2 in
        let y = attr_set_of_string y in
        let result = Algebra.divide y x1 x2 in
        emit ~as_csv (Attr.Set.elements y) result)
  in
  let doc = "Y-quotient: dividend / divisor, the 'for sure' division." in
  Cmd.v (Cmd.info "divide" ~doc)
    Term.(
      const run $ csv_flag $ timeout_arg $ max_tuples_arg $ metrics_file_arg
      $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg $ quotient_arg $ file 0 $ file 1)

let project_cmd =
  let run as_csv timeout tuples metrics trace tracef domains sem_d attrs path =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let _, x = load path in
        let xs = attr_set_of_string attrs in
        let result = Algebra.project xs x in
        emit ~as_csv (Attr.Set.elements xs) result)
  in
  let doc = "Projection onto the given attributes (re-minimized)." in
  let attrs_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTRS")
  in
  Cmd.v (Cmd.info "project" ~doc)
    Term.(
      const run $ csv_flag $ timeout_arg $ max_tuples_arg $ metrics_file_arg
      $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg $ attrs_arg $ file 1)

let rel_arg =
  let doc = "Bind a relation: NAME=FILE.csv (repeatable)." in
  Arg.(value & opt_all string [] & info [ "rel"; "r" ] ~doc ~docv:"NAME=FILE")

(* An in-memory catalog over the --rel bindings. The system catalog is
   built over it when a query ranges over a sys_* relation, so
   sys_relations and sys_columns report the bound CSVs (stats Missing,
   constraints none — honestly reported as such). *)
let catalog_of_rels rels =
  List.fold_left
    (fun cat binding ->
      let name, path = split_eq "--rel" binding in
      let schema, x = csv_file (Storage.Csv.read_relation name) path in
      Storage.Catalog.add cat schema x)
    Storage.Catalog.empty rels

let query_cmd =
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")
  in
  let analyze_flag =
    let doc =
      "Collect statistics over every bound relation first, so the planner \
       costs the query with them (null-aware selectivities, product \
       reordering)."
    in
    Arg.(value & flag & info [ "analyze" ] ~doc)
  in
  let run as_csv timeout tuples metrics trace tracef domains sem_d analyze rels query_src =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let cat = catalog_of_rels rels in
        let cat =
          if not analyze then cat
          else
            List.fold_left
              (fun cat (name, (schema, x)) ->
                Storage.Catalog.set_stats cat name
                  (Stats.collect ~attrs:(Schema.attrs schema) x))
              cat (Storage.Catalog.to_db cat)
        in
        let q = Quel.Parser.parse query_src in
        let db = Sysview.statement_db ~ranges:q.Quel.Ast.ranges cat in
        let sem = Semantics.current () in
        let b = Plan.Compile.run_catalog ~semantics:sem cat db q in
        if sem.Semantics.dialect = Semantics.Ni_lower then
          emit ~as_csv b.attrs (Xrel.unsafe_of_minimal b.sure)
        else begin
          if as_csv then
            Exec_error.bad_input
              "--csv emits x-relations; the reporting dialects produce \
               plain-set bands (drop --csv, or use --semantics ni)";
          Format.printf "%a@?" (Pp.table_rel b.attrs) b.sure;
          Option.iter
            (Format.printf "%a@?"
               (Pp.table_rel ~title:(sem.Semantics.maybe_label ^ " band")
                  b.attrs))
            b.maybe
        end)
  in
  let doc =
    "Evaluate a mini-QUEL query (the paper's lower bound ||Q||-) through the \
     planner; the reporting dialects print their second band too."
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run $ csv_flag $ timeout_arg $ max_tuples_arg $ metrics_file_arg
      $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg $ analyze_flag $ rel_arg $ query_arg)

let agg_cmd =
  let kind_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("count", `Count); ("sum", `Sum); ("min", `Min); ("max", `Max) ])) None
      & info [] ~docv:"KIND")
  in
  let attr_arg =
    let doc = "The aggregated attribute, written $(i,v.ATTR)." in
    Arg.(value & opt (some string) None & info [ "attr" ] ~doc ~docv:"V.ATTR")
  in
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY")
  in
  let run timeout tuples metrics trace tracef domains sem_d rels kind attr query_src =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let cat = catalog_of_rels rels in
        let parse_ref r =
          match String.index_opt r '.' with
          | Some idx ->
              ( String.sub r 0 idx,
                String.sub r (idx + 1) (String.length r - idx - 1) )
          | None ->
              Exec_error.bad_input "--attr must be written v.ATTR"
        in
        let kind =
          match (kind, attr) with
          | `Count, None -> Quel.Aggregate.Count
          | `Count, Some _ -> Exec_error.bad_input "count takes no --attr"
          | `Sum, Some r ->
              let v, a = parse_ref r in
              Quel.Aggregate.Sum (v, a)
          | `Min, Some r ->
              let v, a = parse_ref r in
              Quel.Aggregate.Min (v, a)
          | `Max, Some r ->
              let v, a = parse_ref r in
              Quel.Aggregate.Max (v, a)
          | (`Sum | `Min | `Max), None ->
              Exec_error.bad_input "sum/min/max need --attr V.ATTR"
        in
        let q = Quel.Parser.parse query_src in
        let db = Sysview.statement_db ~ranges:q.Quel.Ast.ranges cat in
        let b =
          try Quel.Aggregate.bounds db q kind
          with Domain.Infinite what ->
            Exec_error.bad_inputf
              "%s has an infinite domain; aggregate bounds need finite \
               domains (int ranges stay finite in .nrdb schemas, but CSV \
               columns are guessed as unbounded)"
              what
        in
        Printf.printf "bounds: %d .. %d%s\n" b.Quel.Aggregate.lower
          b.Quel.Aggregate.upper
          (if b.Quel.Aggregate.may_be_empty then "   (the answer may be empty)"
           else ""))
  in
  let doc =
    "Exact aggregate bounds over all completions of the nulls (count, sum, \
     min, max)."
  in
  Cmd.v (Cmd.info "agg" ~doc)
    Term.(
      const run $ timeout_arg $ max_tuples_arg $ metrics_file_arg $ trace_flag
      $ trace_file_arg $ domains_arg $ semantics_arg $ rel_arg $ kind_arg $ attr_arg $ query_arg)

let convert_cmd =
  let run timeout tuples metrics trace tracef domains sem_d src dst =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let load_any path =
          if Filename.check_suffix path ".nrx" then
            let x = Storage.Binary.read_file path in
            (Attr.Set.elements (Xrel.scope x), x)
          else load path
        in
        let attrs, x = load_any src in
        if Filename.check_suffix dst ".nrx" then Storage.Binary.write_file dst x
        else Storage.Csv.write_file dst attrs x;
        Printf.eprintf "%s -> %s (%d tuples)\n" src dst (Xrel.cardinal x))
  in
  let doc = "Convert between .csv and the compact .nrx binary format." in
  Cmd.v (Cmd.info "convert" ~doc)
    Term.(
      const run $ timeout_arg $ max_tuples_arg $ metrics_file_arg $ trace_flag
      $ trace_file_arg $ domains_arg $ semantics_arg $ file 0
      $ Arg.(required & pos 1 (some string) None & info [] ~docv:"DEST"))

let fsck_cmd =
  let dry_flag =
    let doc = "Report only; do not rewrite the checkpoint or the journal." in
    Arg.(value & flag & info [ "dry-run"; "n" ] ~doc)
  in
  let dir_arg = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  let run timeout tuples metrics trace tracef domains sem_d dry dir =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let report =
          if dry then Storage.Persist.load_report ~dir ()
          else Storage.Persist.recover ~dir ()
        in
        List.iter print_endline (Storage.Persist.report_lines report);
        Printf.printf "%d relations, lsn %d%s\n"
          (List.length (Storage.Catalog.names report.Storage.Persist.catalog))
          report.Storage.Persist.lsn
          (if dry then "" else " (checkpoint rewritten, journal empty)");
        let corrupt =
          List.exists
            (fun (_, s_) ->
              match s_ with Storage.Persist.Corrupt _ -> true | _ -> false)
            report.Storage.Persist.statuses
        in
        if corrupt then exit 1)
  in
  let doc =
    "Check a catalog directory (checksums, journal) and repair it: replay \
     the committed journal tail, quarantine corrupt relations, rewrite a \
     clean checkpoint. Exits 1 if anything was quarantined, 3 if the \
     directory itself is unreadable."
  in
  Cmd.v (Cmd.info "fsck" ~doc)
    Term.(
      const run $ timeout_arg $ max_tuples_arg $ metrics_file_arg $ trace_flag
      $ trace_file_arg $ domains_arg $ semantics_arg $ dry_flag $ dir_arg)

let sessions_cmd =
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  let dir_arg =
    let doc =
      "Catalog directory for the drive (created if absent). Default: a \
       throwaway temporary directory, removed afterwards."
    in
    Arg.(value & opt (some string) None & info [ "dir" ] ~doc ~docv:"DIR")
  in
  let sessions_arg =
    let doc = "Concurrent sessions to drive." in
    Arg.(value & opt int 4 & info [ "sessions" ] ~doc ~docv:"N")
  in
  let txns_arg =
    let doc = "Transactions per session." in
    Arg.(value & opt int 100 & info [ "txns" ] ~doc ~docv:"N")
  in
  let conflict_arg =
    let doc =
      "Make every $(docv)th transaction hit a shared write-write hotspot \
       (0 disables contention)."
    in
    Arg.(value & opt int 0 & info [ "conflict-every" ] ~doc ~docv:"K")
  in
  let serial_flag =
    let doc = "One fsync per transaction instead of group commit." in
    Arg.(value & flag & info [ "serial" ] ~doc)
  in
  let demo_flag =
    let doc =
      "Print the deterministic two-session walkthrough (snapshot isolation, \
       one group batch, a conflict, a retry) instead of the load drive."
    in
    Arg.(value & flag & info [ "demo" ] ~doc)
  in
  let run timeout tuples metrics trace tracef domains sem_d dir nsessions txns
      conflict_every serial demo =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let with_dir f =
          match dir with
          | Some d -> f d
          | None ->
              let d = Filename.temp_file "nullrel_sessions" "" in
              Sys.remove d;
              Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)
        in
        with_dir @@ fun dir ->
        if demo then
          List.iter print_endline (Session.Drive.demo ~dir ())
        else begin
          Session.Drive.seed ~dir ();
          let config =
            { Session.default_config with Session.group = not serial }
          in
          let eng, _ = Session.open_engine ~config ~dir () in
          let r =
            Session.Drive.contention eng ~sessions:nsessions ~txns
              ~conflict_every ()
          in
          Session.shutdown eng;
          let s = r.Session.Drive.engine_stats in
          let lat = r.Session.Drive.latencies_s in
          Printf.printf
            "sessions %d  txns/session %d  mode %s\n\
             committed %d  conflicts %d  queue-full retries %d  events %d\n\
             throughput %.0f txn/s  commit latency p50 %.2f ms  p99 %.2f ms\n\
             batches %d  records %d  max batch %d\n"
            r.Session.Drive.sessions r.Session.Drive.txns_per_session
            (if serial then "serial (one fsync per txn)" else "group commit")
            r.Session.Drive.committed r.Session.Drive.conflicts
            r.Session.Drive.queue_full_retries r.Session.Drive.events
            (float_of_int r.Session.Drive.committed
            /. Float.max 1e-9 r.Session.Drive.elapsed_s)
            (1e3 *. Session.Drive.percentile lat 50.)
            (1e3 *. Session.Drive.percentile lat 99.)
            s.Session.batches s.Session.records s.Session.max_batch
        end)
  in
  let doc =
    "Drive concurrent sessions with snapshot isolation and group commit: a \
     contention benchmark over the domain pool, or (--demo) a deterministic \
     walkthrough. Conflicts exit 7, a full commit queue 8, a poisoned \
     engine 9 — but the drive retries those internally and exits 0."
  in
  Cmd.v (Cmd.info "sessions" ~doc)
    Term.(
      const run $ timeout_arg $ max_tuples_arg $ metrics_file_arg $ trace_flag
      $ trace_file_arg $ domains_arg $ semantics_arg $ dir_arg $ sessions_arg $ txns_arg $ conflict_arg
      $ serial_flag $ demo_flag)

let dml_cmd =
  let dir_arg =
    let doc = "Durable catalog directory (created if absent)." in
    Arg.(required & opt (some string) None & info [ "dir" ] ~doc ~docv:"DIR")
  in
  let load_args =
    let doc =
      "Register relation NAME from FILE.csv before running the statements \
       (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "load" ] ~doc ~docv:"NAME=FILE")
  in
  let key_args =
    let doc =
      "Declare a primary key for a --load'ed relation: NAME=A,B \
       (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "key" ] ~doc ~docv:"NAME=ATTRS")
  in
  let stmt_args =
    Arg.(value & pos_all string [] & info [] ~docv:"STATEMENT")
  in
  let run timeout tuples metrics trace tracef domains sem_d dir loads keys stmts =
    setup metrics trace tracef domains sem_d;
    handle (fun () ->
        (* Phase 1: register any CSVs as relations of the directory's
           catalog (a checkpoint write, like the shell's .load+.save).
           Recovery first folds the journal into the checkpoint it
           rewrites, so the new checkpoint, cut at the recovered LSN,
           supersedes every record: none can replay a second time over
           a reloaded relation. *)
        if loads <> [] then begin
          let cat, lsn =
            if Sys.file_exists dir then
              let r = Storage.Persist.recover ~dir () in
              (r.Storage.Persist.catalog, r.Storage.Persist.lsn)
            else (Storage.Catalog.empty, 0)
          in
          let keys = List.map (split_eq "--key") keys in
          let cat =
            List.fold_left
              (fun cat binding ->
                let name, path = split_eq "--load" binding in
                let key =
                  Option.map
                    (fun ks ->
                      List.map String.trim (String.split_on_char ',' ks))
                    (List.assoc_opt name keys)
                in
                let schema, x =
                  csv_file (Storage.Csv.read_relation ?key name) path
                in
                Storage.Catalog.add cat schema x)
              cat loads
          in
          Storage.Persist.save ~lsn ~dir cat
        end;
        (* Phase 2: one session commits each statement as its own
           transaction — constraint enforcement, cascades and the
           journal included — so a failing statement leaves the
           directory at the last committed one. The limits bound the
           statements only: phase 1 and the recovery that opening the
           engine runs charge about one tick per stored row, and stay
           outside them like the exit checkpoint below. *)
        let eng, report = Session.open_engine ~dir () in
        (* Only a directory that needed repair is reported, as by the
           shell's [.open]: a clean one, its journal tail included, is
           opened silently. *)
        if report.Storage.Persist.needs_repair then
          List.iter
            (fun l -> Printf.eprintf "recovery: %s\n" l)
            (Storage.Persist.report_lines report);
        let sess = Session.attach eng in
        limited timeout tuples (fun () ->
            List.iter
              (fun src ->
                let outcome = Session.exec_string sess src in
                ignore (Session.commit sess);
                match outcome.Dml.result with
                | Some result ->
                    Format.printf "%a@?"
                      (Pp.table result.Quel.Eval.attrs)
                      result.Quel.Eval.rel
                | None ->
                    if outcome.Dml.message <> "" then
                      print_endline outcome.Dml.message)
              stmts);
        Session.shutdown eng);
    (* Checkpoint on exit, outside the governor: every statement has
       committed, so a limit must not turn the clean-up into a failure.
       Recovery rewrites the checkpoint and empties the journal. *)
    handle (fun () -> ignore (Storage.Persist.recover ~dir ()))
  in
  let doc =
    "Run mini-QUEL statements against a durable catalog directory, each \
     committed as its own session transaction: journalled updates, \
     declared-constraint enforcement (cascades in the same transaction), \
     checkpoint on exit. A constraint violation exits 10 with the \
     directory at the last committed statement."
  in
  Cmd.v (Cmd.info "dml" ~doc)
    Term.(
      const run $ timeout_arg $ max_tuples_arg $ metrics_file_arg $ trace_flag
      $ trace_file_arg $ domains_arg $ semantics_arg $ dir_arg $ load_args $ key_args $ stmt_args)

let semantics_cmd =
  let queries_arg =
    let doc = "Generated queries per run." in
    Arg.(value & opt int 500 & info [ "queries" ] ~doc ~docv:"N")
  in
  let seed_arg =
    let doc = "PRNG seed (the run is deterministic given it)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc ~docv:"SEED")
  in
  let rows_arg =
    let doc = "Rows per generated relation." in
    Arg.(value & opt int 40 & info [ "rows" ] ~doc ~docv:"N")
  in
  let nulls_arg =
    let doc = "Probability that a generated cell is null." in
    Arg.(value & opt float 0.25 & info [ "null-density" ] ~doc ~docv:"P")
  in
  let run timeout tuples metrics trace tracef domains sem_d queries seed rows
      nulls =
    governed timeout tuples metrics trace tracef domains sem_d (fun () ->
        let spec =
          { Workload.Diff.default_spec with Workload.Gen.rows;
            null_density = nulls }
        in
        let report = Workload.Diff.run ~seed ~queries ~spec () in
        print_endline (Workload.Diff.render report);
        if not (Workload.Diff.ok report) then exit 1)
  in
  let doc =
    "Differential semantics harness: random queries evaluated under all \
     four dialects (ni, codd, sql, certain), with the containment lattice \
     between their answers checked query by query. Exits 1 on any oracle \
     failure."
  in
  Cmd.v (Cmd.info "semantics" ~doc)
    Term.(
      const run $ timeout_arg $ max_tuples_arg $ metrics_file_arg $ trace_flag
      $ trace_file_arg $ domains_arg $ semantics_arg $ queries_arg $ seed_arg
      $ rows_arg $ nulls_arg)

let repl_cmd =
  let run metrics trace tracef domains sem_d =
    setup metrics trace tracef domains sem_d;
    print_endline "nullrel shell -- .help for commands, .quit to leave";
    let rec loop st =
      if Shell.finished st then ()
      else begin
        print_string "> ";
        match read_line () with
        | exception End_of_file -> print_newline ()
        | line ->
            let st, output = Shell.exec st line in
            if output <> "" then print_endline output;
            loop st
      end
    in
    loop Shell.initial
  in
  let doc = "Interactive shell: load CSVs, run queries, inspect plans." in
  Cmd.v (Cmd.info "repl" ~doc)
    Term.(const run $ metrics_file_arg $ trace_flag $ trace_file_arg $ domains_arg $ semantics_arg)

let () =
  let doc = "relational algebra with no-information nulls (Zaniolo 1982)" in
  let info = Cmd.info "nullrel" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            show_cmd;
            minimize_cmd;
            union_cmd;
            diff_cmd;
            inter_cmd;
            join_cmd;
            outerjoin_cmd;
            divide_cmd;
            project_cmd;
            query_cmd;
            agg_cmd;
            convert_cmd;
            fsck_cmd;
            sessions_cmd;
            dml_cmd;
            semantics_cmd;
            repl_cmd;
          ]))
