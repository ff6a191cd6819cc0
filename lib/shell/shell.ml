open Nullrel

type limits = { time_s : float option; max_tuples : int option }

type state = {
  cat : Storage.Catalog.t;
  finished : bool;
  limits : limits;
  dir : string option;
      (* The durable directory behind the catalog (.open) — lets the
         sys_wal and CRC columns of the system catalog see the disk. *)
  semantics : Semantics.t option;
      (* [.semantics NAME] selection; [None] defers to the ambient
         dialect, so a CLI [--semantics] flag and the dot-command
         compose instead of fighting. *)
}

let no_limits = { time_s = None; max_tuples = None }

let initial =
  { cat = Storage.Catalog.empty; finished = false; limits = no_limits;
    dir = None; semantics = None }

let effective_semantics st =
  match st.semantics with Some sem -> sem | None -> Semantics.current ()

let catalog st = st.cat
let finished st = st.finished

let describe_limits = function
  | { time_s = None; max_tuples = None } -> "limits: off"
  | { time_s; max_tuples } ->
      let parts =
        List.filter_map Fun.id
          [
            Option.map (Printf.sprintf "time %gs") time_s;
            Option.map (Printf.sprintf "tuples %d") max_tuples;
          ]
      in
      "limits: " ^ String.concat ", " parts

(* Run [f] under a governor when any limit is set; a fresh governor per
   input, so budgets do not leak across statements. *)
let governed st f =
  match st.limits with
  | { time_s = None; max_tuples = None } -> f ()
  | { time_s; max_tuples } ->
      Exec.with_governor
        (Exec.make ?deadline_s:time_s ?max_tuples:max_tuples ())
        f

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let help =
  ".agg KIND [v.A] QUERY  aggregate bounds (count | sum | min | max)\n\
   .analyze [NAME ...]    collect planner statistics (all relations by \
   default)\n\
   .check                 run schema, constraint + referential integrity \
   checks\n\
   .constraints           list declared constraints and their verification \
   state\n\
   .domains [N]           show or set the parallelism degree (domains)\n\
   .explain analyze QUERY run a query; show est/actual rows, ticks, time per \
   operator\n\
   .fsck DIR              check a catalog directory and repair it\n\
   .help                  this text\n\
   .index REL KIND ATTRS  declare a secondary index (hash | range; \
   ATTRS comma-separated)\n\
   .index drop REL KIND ATTRS  drop one\n\
   .indexes               list declared secondary indexes\n\
   .limit                 show the current execution limits\n\
   .limit off             clear all limits\n\
   .limit time SECS       abort statements running longer than SECS\n\
   .limit tuples N        abort statements touching more than N tuples\n\
   .list                  list relations (the sys_* system catalog is \
   always queryable)\n\
   .load NAME FILE.csv    register a CSV file as relation NAME\n\
   .monitor [N | on | off] live top-style view from sys_sessions + \
   sys_metrics_history\n\
   .open DIR              load a saved catalog directory\n\
   .plan QUERY            show the optimized algebra plan for a query\n\
   .quit                  leave\n\
   .save DIR              save the catalog (atomic, checksummed)\n\
   .schema NAME           print a relation's schema\n\
   .semantics [NAME]      show or set the null-semantics dialect (ni | codd \
   | sql | certain)\n\
   .session [DIR]         two-session walkthrough: snapshot isolation, group \
   commit, a conflict, a retry\n\
   .show NAME             print a relation\n\
   .slowlog [MS | off]    show the slow-statement log, or set its threshold\n\
   .stats [reset]         dump metrics (Prometheus text), or zero them\n\
   .stats-catalog         show collected statistics and their freshness\n\
   .trace [on | off]      show recent operator spans, or toggle tracing\n\
   range of ... retrieve (...) [where ...]    evaluate ||Q||-\n\
   append to REL (A = 1, ...)                 insert (union)\n\
   range of v is REL delete v [where ...]     delete (difference)\n\
   range of v is REL replace v (A = 2) [where ...]\n\
   constrain unique REL (A, B) [as NAME]      declare a null-tolerant key\n\
   constrain notnull REL (A) [as NAME]        forbid ni on A\n\
   constrain fk REL (F) to T (K) on delete restrict|cascade|setnull [as \
   NAME]\n\
   unconstrain NAME                           drop a constraint"

let with_relation st name f =
  match Storage.Catalog.find st.cat name with
  | None when Sysview.is_sys name -> (
      (* Materialize just for display: sys_* names resolve in .show and
         .schema exactly as they do in queries. *)
      match List.assoc_opt name (Sysview.db ?dir:st.dir st.cat) with
      | Some (schema, x) -> f schema x
      | None -> Printf.sprintf "error: no relation %s (try .list)" name)
  | None -> Printf.sprintf "error: no relation %s (try .list)" name
  | Some (schema, x) -> f schema x

(* Admission control: before a governed retrieve runs at all, compare
   the optimizer's cost estimate for the chosen plan against the tuple
   budget and reject queries that cannot plausibly fit. *)
let admission st db q =
  match st.limits.max_tuples with
  | None -> None
  | Some budget ->
      let p = Plan.Compile.plan_catalog st.cat db q in
      let est = Plan.Cost.cost ~stats:p.Plan.Compile.stats p.optimized in
      if est > float_of_int budget then Some (est, budget) else None

let statement_db st q =
  Sysview.statement_db ?dir:st.dir ~ranges:q.Quel.Ast.ranges st.cat

(* Statements: retrieves go through the planner's catalog entry (the
   reporting dialects print their second band under its own title);
   updates go through the Section 7 semantics of [Dml]. *)
let run_statement st src =
  match Quel.Parser.parse_statement src with
  | Quel.Ast.Retrieve q -> (
      (* Built once per statement, shared between admission, planning
         and evaluation. *)
      let db = statement_db st q in
      match admission st db q with
      | Some (est, budget) ->
          ( st,
            Printf.sprintf
              "rejected: estimated cost %.0f exceeds the tuple budget %d \
               (raise .limit tuples, or refine the query)"
              est budget )
      | None ->
          let sem = effective_semantics st in
          let b = Plan.Compile.run_catalog ~semantics:sem st.cat db q in
          let table ?title = Pp.to_string (Pp.table_rel ?title b.attrs) in
          ( st,
            match b.maybe with
            | None -> table b.sure
            | Some band ->
                table b.sure ^ "\n"
                ^ table ~title:(sem.Semantics.maybe_label ^ " band") band ))
  | statement ->
      let outcome = Dml.exec ?semantics:st.semantics st.cat statement in
      ({ st with cat = outcome.Dml.catalog }, outcome.Dml.message)

let show_plan st src =
  let q = Quel.Parser.parse src in
  let p = Plan.Compile.plan_catalog st.cat (statement_db st q) q in
  let cost = Plan.Cost.cost ~stats:p.stats in
  Printf.sprintf "raw:       %s\noptimized: %s\nest. cost: %.0f -> %.0f"
    (Pp.to_string Plan.Expr.pp p.raw)
    (Pp.to_string Plan.Expr.pp p.optimized)
    (cost p.raw) (cost p.optimized)

(* EXPLAIN ANALYZE measures what the retrieve runs: the plan, or the
   calculus evaluator when the entry answers with it. *)
let explain_analyze st src =
  let q = Quel.Parser.parse src in
  let db = statement_db st q in
  let sem = effective_semantics st in
  let dialect = Semantics.to_string sem.Semantics.dialect in
  if Plan.Compile.evaluator_answers sem db q then
    let b, m =
      Obs.Span.timed "evaluator" (fun () ->
          Plan.Compile.run_catalog ~semantics:sem st.cat db q)
    in
    Printf.sprintf
      "semantics: %s\nno plan ran: the calculus evaluator answered (a \
       reporting dialect, or a comparison of two kinds of value)\n\
       evaluator  actual %d  ticks %d  ms %.1f"
      dialect (Relation.cardinal b.sure) m.Obs.Span.ticks
      (m.Obs.Span.duration_s *. 1000.)
  else
    Plan.Analyze.render ~semantics:dialect
      (Plan.Compile.analyze_catalog st.cat db q)

(* .analyze [NAME ...]: one governed statistics scan per relation,
   results stamped into the catalog (fresh until the next mutation). *)
let analyze st names =
  let names =
    match names with [] -> Storage.Catalog.names st.cat | names -> names
  in
  let missing =
    List.filter (fun n -> not (Storage.Catalog.mem st.cat n)) names
  in
  match missing with
  | n :: _ -> (st, Printf.sprintf "error: no relation %s (try .list)" n)
  | [] ->
      let cat, lines =
        List.fold_left
          (fun (cat, lines) name ->
            let schema, x = Storage.Catalog.get cat name in
            let t = Stats.collect ~attrs:(Schema.attrs schema) x in
            ( Storage.Catalog.set_stats cat name t,
              Printf.sprintf "analyzed %s: %d rows, %d columns" name
                t.Stats.rows
                (List.length t.Stats.columns)
              :: lines ))
          (st.cat, []) names
      in
      ({ st with cat }, String.concat "\n" (List.rev lines))

let stats_catalog st =
  match Storage.Catalog.names st.cat with
  | [] -> "(no relations loaded)"
  | names ->
      String.concat "\n"
        (List.map
           (fun name ->
             match Storage.Catalog.stats_status st.cat name with
             | Storage.Catalog.Missing -> name ^ ": not analyzed"
             | Storage.Catalog.Fresh t ->
                 Format.asprintf "%s (fresh): %a" name Stats.pp t
             | Storage.Catalog.Stale t ->
                 Format.asprintf "%s (stale — re-run .analyze): %a" name
                   Stats.pp t)
           names)

(* .monitor [N]: a top-style snapshot rendered from the same virtual
   relations a query would see — sys_sessions for the live session
   table, sys_metrics_history for the last N flight-recorder rows. *)
let monitor n =
  let on = !Obs.History.enabled in
  (* Fold "now" into the view so the newest line is current. *)
  if on then Obs.History.snap_now ();
  let engine_lines =
    match Session.list_engines () with
    | [] -> [ "engines: none open" ]
    | engines ->
        List.map
          (fun eng ->
            let s = Session.stats eng in
            Printf.sprintf
              "engine %s: queue %d, committed %d, conflicts %d, batches %d"
              (Session.engine_dir eng) (Session.queue_depth eng)
              s.Session.committed s.Session.conflicts s.Session.batches)
          engines
  in
  let _, (sess_schema, sess_x) = Sysview.sys_sessions () in
  let session_lines =
    if Xrel.is_empty sess_x then [ "sessions: none attached" ]
    else [ Pp.to_string (Pp.table_of_schema sess_schema) sess_x ]
  in
  let snaps = Obs.History.entries () in
  let keep =
    let len = List.length snaps in
    if len <= n then snaps else List.filteri (fun i _ -> i >= len - n) snaps
  in
  let history_lines =
    match keep with
    | [] ->
        [
          (if on then "history: no snapshots yet (run some governed work)"
           else "history: off (.monitor on starts the flight recorder)");
        ]
    | snaps ->
        let series snap name =
          match List.assoc_opt name snap.Obs.History.series with
          | Some v when not (Float.is_nan v) -> Printf.sprintf "%.0f" v
          | _ -> "-"
        in
        Printf.sprintf "%6s %12s %10s %14s %12s" "seq" "ticks" "Δticks"
          "commit_p99_us" "commits"
        :: List.rev
             (fst
                (List.fold_left
                   (fun (acc, prev) snap ->
                     let line =
                       Printf.sprintf "%6d %12d %10d %14s %12s"
                         snap.Obs.History.seq snap.Obs.History.ticks
                         (snap.Obs.History.ticks - prev)
                         (series snap "nullrel_session_commit_us_p99")
                         (series snap "nullrel_session_commits_total")
                     in
                     (line :: acc, snap.Obs.History.ticks))
                   ([], 0) snaps))
  in
  String.concat "\n"
    ((Printf.sprintf "monitor: history %s, %d/%d snapshots retained"
        (if on then "on" else "off")
        (List.length snaps) (Obs.History.capacity ())
     :: engine_lines)
    @ session_lines @ history_lines)

let pp_span_event (e : Obs.Span.event) =
  Printf.sprintf "%s%s  %.1fms  %d ticks"
    (String.make (2 * e.Obs.Span.depth) ' ')
    e.Obs.Span.label
    (e.Obs.Span.duration_s *. 1000.)
    e.Obs.Span.ticks

(* .agg KIND [v.ATTR] QUERY *)
let run_aggregate st words =
  let parse_ref r =
    match String.index_opt r '.' with
    | Some idx ->
        ( String.sub r 0 idx,
          String.sub r (idx + 1) (String.length r - idx - 1) )
    | None -> Exec_error.bad_input "aggregate attribute must be written v.ATTR"
  in
  let kind, rest =
    match words with
    | "count" :: rest -> (Quel.Aggregate.Count, rest)
    | "sum" :: r :: rest ->
        let v, a = parse_ref r in
        (Quel.Aggregate.Sum (v, a), rest)
    | "min" :: r :: rest ->
        let v, a = parse_ref r in
        (Quel.Aggregate.Min (v, a), rest)
    | "max" :: r :: rest ->
        let v, a = parse_ref r in
        (Quel.Aggregate.Max (v, a), rest)
    | _ -> Exec_error.bad_input ".agg count|sum|min|max [v.ATTR] QUERY"
  in
  let q = Quel.Parser.parse (String.concat " " rest) in
  let b = Quel.Aggregate.bounds (statement_db st q) q kind in
  Printf.sprintf "bounds: %d .. %d%s" b.Quel.Aggregate.lower
    b.Quel.Aggregate.upper
    (if b.Quel.Aggregate.may_be_empty then "   (the answer may be empty)"
     else "")

let check st =
  let schema_issues =
    List.concat_map
      (fun (name, (schema, x)) ->
        List.map
          (fun v ->
            Printf.sprintf "%s: %s" name (Pp.to_string Schema.pp_violation v))
          (Schema.check schema x))
      (Storage.Catalog.to_db st.cat)
  in
  let reference_issues =
    List.map
      (Pp.to_string Storage.Catalog.pp_reference_violation)
      (Storage.Catalog.check_references st.cat)
  in
  (* Re-verify any constraints whose data changed wholesale (.load /
     restored stale): the ones that pass become verified again. *)
  let stale_before = Storage.Catalog.unverified_constraints st.cat in
  let cat, constraint_issues =
    Storage.Catalog.revalidate_constraints st.cat
  in
  let constraint_issues =
    List.map
      (fun (_, v) -> Pp.to_string Constr.pp_violation v)
      constraint_issues
  in
  let revalidated =
    List.filter
      (fun n ->
        not (List.mem n (Storage.Catalog.unverified_constraints cat)))
      stale_before
  in
  let notes =
    if revalidated = [] then []
    else
      [
        Printf.sprintf "re-verified %s"
          (String.concat ", " revalidated);
      ]
  in
  ( { st with cat },
    match schema_issues @ reference_issues @ constraint_issues with
    | [] -> String.concat "\n" ("ok: no violations" :: notes)
    | issues -> String.concat "\n" (issues @ notes) )

let constraints_listing st =
  match Storage.Catalog.constraints st.cat with
  | [] -> "(no constraints declared)"
  | defs ->
      let stale = Storage.Catalog.unverified_constraints st.cat in
      String.concat "\n"
        (List.map
           (fun def ->
             let mark =
               if List.mem (Constr.name def) stale then
                 "  [stale -- data changed since verification; run .check]"
               else ""
             in
             Pp.to_string Constr.pp_def def ^ mark)
           defs)

let pp_attr_list attrs =
  String.concat "," (List.map Attr.name (Attr.Set.elements attrs))

let parse_index_attrs s =
  let names = List.map String.trim (String.split_on_char ',' s) in
  if names = [] || List.exists (String.equal "") names then None
  else Some (Attr.set_of_list names)

(* "REL KIND(ATTRS) -- N tuples indexed" for one declaration. *)
let describe_index cat rel kind attrs =
  let card =
    List.find_map
      (fun (k, a, n) ->
        if String.equal k kind && Attr.Set.equal a attrs then Some n else None)
      (Storage.Catalog.indexes cat rel)
  in
  Printf.sprintf "%s %s(%s) -- %d tuples indexed" rel kind
    (pp_attr_list attrs)
    (Option.value ~default:0 card)

let indexes_listing st =
  match Storage.Catalog.all_indexes st.cat with
  | [] -> "(no indexes declared -- .index REL KIND ATTRS declares one)"
  | decls ->
      String.concat "\n"
        (List.map
           (fun (rel, kind, attrs) -> describe_index st.cat rel kind attrs)
           decls)

let split_words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' line)

let exec st line =
  let line = String.trim line in
  try
    if line = "" then (st, "")
    else if line.[0] <> '.' then
      let label =
        if String.length line > 48 then String.sub line 0 48 ^ "..." else line
      in
      Obs.Span.with_span ("stmt: " ^ label) (fun () ->
          governed st (fun () -> run_statement st line))
    else
      match split_words line with
      | [ ".quit" ] | [ ".exit" ] -> ({ st with finished = true }, "bye")
      | [ ".help" ] -> (st, help)
      | [ ".list" ] -> (
          match Storage.Catalog.names st.cat with
          | [] -> (st, "(no relations loaded)")
          | names -> (st, String.concat "\n" names))
      | [ ".load"; name; _file ] when Sysview.is_sys name ->
          ( st,
            Printf.sprintf
              "error: %s is in the reserved sys_ namespace (read-only \
               system catalog)"
              name )
      | [ ".load"; name; file ] ->
          let schema, x = Storage.Csv.read_relation name file in
          ( { st with cat = Storage.Catalog.add st.cat schema x },
            Printf.sprintf "loaded %s (%d tuples)" name (Xrel.cardinal x) )
      | [ ".open"; dir ] ->
          let report = Storage.Persist.load_report ~dir () in
          let cat = report.Storage.Persist.catalog in
          let headline =
            Printf.sprintf "opened %s (%d relations)" dir
              (List.length (Storage.Catalog.names cat))
          in
          (* The engine's rule: a replayed journal tail is no problem. *)
          ( { st with cat; dir = Some dir },
            if not report.Storage.Persist.needs_repair then headline
            else
              String.concat "\n"
                ((headline ^ " -- problems found, run .fsck to repair:")
                :: List.map (fun l -> "  " ^ l)
                     (Storage.Persist.report_lines report)) )
      | [ ".fsck"; dir ] ->
          let report = Storage.Persist.recover ~dir () in
          ( st,
            String.concat "\n"
              (Printf.sprintf "%s: checkpointed %d relations at lsn %d, journal empty"
                 dir
                 (List.length
                    (Storage.Catalog.names report.Storage.Persist.catalog))
                 report.Storage.Persist.lsn
              :: List.map (fun l -> "  " ^ l)
                   (Storage.Persist.report_lines report)) )
      | [ ".save"; dir ] ->
          (* The checkpoint supersedes the target's journal: cut it at an
             LSN no lower than any journaled record, then empty the
             journal (save, then reset, as recovery does), so no record
             can replay over the saved catalog. *)
          let io = Storage.Io.real in
          let lsn =
            List.fold_left
              (fun lsn (r : Storage.Wal.record) -> max lsn r.Storage.Wal.lsn)
              0
              (fst (Storage.Wal.read ~io ~dir))
          in
          Storage.Persist.save ~io ~lsn ~dir st.cat;
          Storage.Wal.reset ~io ~dir;
          ({ st with dir = Some dir }, Printf.sprintf "saved to %s" dir)
      | [ ".open" ] | [ ".fsck" ] | [ ".save" ] | [ ".load" ] | [ ".show" ]
      | [ ".schema" ] ->
          (st, "error: missing argument (try .help)")
      | [ ".semantics" ] ->
          let sem = effective_semantics st in
          ( st,
            String.concat "\n"
              (Printf.sprintf "semantics: %s — %s" sem.Semantics.name
                 sem.Semantics.description
              :: List.map
                   (fun (s_ : Semantics.t) ->
                     Printf.sprintf "  %s%s  %s"
                       (if s_.Semantics.name = sem.Semantics.name then "* "
                        else "  ")
                       s_.Semantics.name s_.Semantics.description)
                   Semantics.all) )
      | [ ".semantics"; name ] -> (
          match Semantics.of_string name with
          | Some d ->
              let sem = Semantics.of_dialect d in
              ( { st with semantics = Some sem },
                Printf.sprintf "semantics: %s — %s" sem.Semantics.name
                  sem.Semantics.description )
          | None ->
              ( st,
                Printf.sprintf "error: unknown dialect %s (one of: %s)" name
                  (String.concat ", " Semantics.names) ))
      | ".semantics" :: _ -> (st, "error: usage: .semantics [NAME]")
      | [ ".session" ] ->
          let dir = Filename.temp_file "nullrel_session_demo" "" in
          Sys.remove dir;
          let lines =
            Fun.protect
              ~finally:(fun () -> rm_rf dir)
              (fun () -> Session.Drive.demo ~dir ())
          in
          (st, String.concat "\n" lines)
      | [ ".session"; dir ] ->
          (st, String.concat "\n" (Session.Drive.demo ~dir ()))
      | [ ".show"; name ] ->
          ( st,
            with_relation st name (fun schema x ->
                Pp.to_string (Pp.table_of_schema schema) x) )
      | [ ".schema"; name ] ->
          ( st,
            with_relation st name (fun schema _ ->
                Pp.to_string Schema.pp schema) )
      | ".plan" :: rest when rest <> [] ->
          (st, show_plan st (String.concat " " rest))
      | ".explain" :: "analyze" :: rest when rest <> [] ->
          ( st,
            governed st (fun () -> explain_analyze st (String.concat " " rest))
          )
      | ".explain" :: _ -> (st, "error: usage: .explain analyze QUERY")
      | [ ".stats" ] ->
          ( st,
            (if Obs.Metrics.is_enabled () then ""
             else "# collection is off (.trace on enables it)\n")
            ^ Obs.Metrics.dump_prometheus () )
      | [ ".stats"; "reset" ] ->
          Obs.Metrics.reset ();
          (st, "stats: reset")
      | [ ".trace" ] -> (
          match Obs.Span.events () with
          | [] -> (st, "trace: no spans recorded (.trace on enables tracing)")
          | evs -> (st, String.concat "\n" (List.map pp_span_event evs)))
      | [ ".trace"; "on" ] ->
          Obs.Metrics.set_enabled true;
          Obs.Span.set_enabled true;
          (st, "trace: on (metrics collection enabled too)")
      | [ ".trace"; "off" ] ->
          Obs.Metrics.set_enabled false;
          Obs.Span.set_enabled false;
          (st, "trace: off")
      | [ ".slowlog" ] -> (
          match Obs.Span.slow_log () with
          | [] ->
              ( st,
                match Obs.Span.slow_threshold () with
                | None -> "slow log: threshold off (.slowlog MS sets it)"
                | Some t ->
                    Printf.sprintf "slow log: empty (threshold %.1fms)"
                      (t *. 1000.) )
          | evs -> (st, String.concat "\n" (List.map pp_span_event evs)))
      | [ ".slowlog"; "off" ] ->
          Obs.Span.set_slow_threshold None;
          (st, "slow log: off")
      | [ ".slowlog"; ms ] -> (
          match float_of_string_opt ms with
          | Some v when v >= 0. && Float.is_finite v ->
              Obs.Span.set_slow_threshold (Some (v /. 1000.));
              (* Recording spans needs tracing on; make the command
                 self-sufficient instead of a silent no-op. *)
              Obs.Span.set_enabled true;
              (st, Printf.sprintf "slow log: threshold %gms (tracing on)" v)
          | _ -> (st, "error: .slowlog [MILLISECONDS | off]"))
      | ".agg" :: rest when rest <> [] ->
          (st, governed st (fun () -> run_aggregate st rest))
      | ".analyze" :: names -> governed st (fun () -> analyze st names)
      | [ ".stats-catalog" ] -> (st, stats_catalog st)
      | [ ".check" ] -> check st
      | [ ".constraints" ] -> (st, constraints_listing st)
      | [ ".indexes" ] -> (st, indexes_listing st)
      | [ ".index"; "drop"; rel; kind; attrs ] -> (
          match parse_index_attrs attrs with
          | None -> (st, "error: usage: .index [drop] REL KIND ATTR[,ATTR...]")
          | Some attrs ->
              ( { st with cat = Storage.Catalog.drop_index st.cat rel ~kind attrs },
                Printf.sprintf "dropped index %s %s(%s)" rel kind
                  (pp_attr_list attrs) ))
      | [ ".index"; rel; kind; attrs ] -> (
          match parse_index_attrs attrs with
          | None -> (st, "error: usage: .index [drop] REL KIND ATTR[,ATTR...]")
          | Some attrs ->
              let cat = Storage.Catalog.create_index st.cat rel ~kind attrs in
              ({ st with cat }, "index " ^ describe_index cat rel kind attrs))
      | ".index" :: _ ->
          (st, "error: usage: .index [drop] REL KIND ATTR[,ATTR...]")
      | [ ".domains" ] ->
          ( st,
            Printf.sprintf "domains: %d (hardware recommends %d, cap %d)"
              (Par.Pool.domains ())
              (Stdlib.Domain.recommended_domain_count ())
              Par.Pool.hard_cap )
      | [ ".domains"; n ] -> (
          match int_of_string_opt n with
          | Some k when k >= 1 ->
              Par.Pool.set_domains k;
              (st, Printf.sprintf "domains: %d" (Par.Pool.domains ()))
          | _ -> (st, "error: .domains N (a positive integer)"))
      | ".domains" :: _ -> (st, "error: usage: .domains [N]")
      | [ ".monitor" ] -> (st, monitor 8)
      | [ ".monitor"; "on" ] ->
          (* History snapshots are charged from the governed hot path,
             so recording needs metrics collection live too. *)
          Obs.Metrics.set_enabled true;
          Obs.History.set_enabled true;
          (st, "monitor: history on (metrics collection enabled too)")
      | [ ".monitor"; "off" ] ->
          Obs.History.set_enabled false;
          (st, "monitor: history off (metrics collection left as it was)")
      | [ ".monitor"; n ] -> (
          match int_of_string_opt n with
          | Some k when k >= 1 -> (st, monitor k)
          | _ -> (st, "error: .monitor [N | on | off]"))
      | ".monitor" :: _ -> (st, "error: usage: .monitor [N | on | off]")
      | [ ".limit" ] -> (st, describe_limits st.limits)
      | [ ".limit"; "off" ] -> ({ st with limits = no_limits }, "limits: off")
      | [ ".limit"; "time"; secs ] -> (
          match float_of_string_opt secs with
          | Some s when s >= 0. && Float.is_finite s ->
              let st =
                { st with limits = { st.limits with time_s = Some s } }
              in
              (st, describe_limits st.limits)
          | _ -> (st, "error: .limit time SECONDS (a non-negative number)"))
      | [ ".limit"; "tuples"; n ] -> (
          match int_of_string_opt n with
          | Some k when k > 0 ->
              let st =
                { st with limits = { st.limits with max_tuples = Some k } }
              in
              (st, describe_limits st.limits)
          | _ -> (st, "error: .limit tuples N (a positive integer)"))
      | ".limit" :: _ ->
          (st, "error: usage: .limit [off | time SECS | tuples N]")
      | cmd :: _ -> (st, Printf.sprintf "error: unknown command %s (try .help)" cmd)
      | [] -> (st, "")
  with
  | Quel.Parser.Error msg -> (st, "parse error: " ^ msg)
  | Quel.Lexer.Error (msg, pos) ->
      (st, Printf.sprintf "lexical error at %d: %s" pos msg)
  | Quel.Resolve.Error msg -> (st, "error: " ^ msg)
  | Storage.Csv.Error msg -> (st, "csv error: " ^ msg)
  | Storage.Persist.Error msg -> (st, "error: " ^ msg)
  | Storage.Catalog.Violation violations ->
      ( st,
        "integrity violations:\n"
        ^ String.concat "\n"
            (List.map (Pp.to_string Schema.pp_violation) violations) )
  | Constr.Error v -> (st, "constraint violation: " ^ Constr.to_string v)
  | Value.Type_error msg -> (st, "type error: " ^ msg)
  | Exec_error.Error e -> (st, "error: " ^ Exec_error.to_string e)
  | Domain.Infinite what ->
      ( st,
        Printf.sprintf
          "error: %s has an infinite domain; substitution reasoning needs \
           finite domains (intrange/enum in the schema)"
          what )
  | Failure msg -> (st, "error: " ^ msg)
  | Sys_error msg -> (st, "error: " ^ msg)
