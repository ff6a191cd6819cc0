(* The system catalog: live engine state materialized as ordinary
   x-relations. Nothing here is persisted or registered in
   Storage.Catalog — every builder computes a fresh (schema, xrel) pair
   from whatever subsystem owns the facts, and the shell/CLI splice the
   result into the Quel db for the duration of one statement. That is
   the snapshot-consistency rule (DESIGN §10): a sys_* relation is
   internally consistent (each underlying cell read exactly once while
   materializing), and two sys_* relations in one query were
   materialized at the same instant — but re-running the query reads
   the world again.

   The paper's ni carries the honest-unknown semantics throughout: a
   histogram has no single "value", an idle session has no pinned
   snapshot, a never-analyzed column has no known min/max. Those fields
   are ni, not 0 — so aggregates over sys_* relations skip them exactly
   as Table III says they should. *)

open Nullrel

module Trace = Trace

let prefix = "sys_"

let is_sys name =
  String.length name >= String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

(* Rows are built as (name, value) lists; Tuple.of_strings drops null
   bindings, which is exactly the ni convention. *)
let row = Tuple.of_strings
let opt_int = function Some i -> Value.Int i | None -> Value.Null
let opt_float = function Some f -> Value.Float f | None -> Value.Null

let float_or_null f = if Float.is_nan f then Value.Null else Value.Float f

let rel schema tuples = (Schema.name schema, (schema, Xrel.of_list tuples))

(* ------------------------- sys_metrics ------------------------- *)

let metrics_schema =
  Schema.make "sys_metrics"
    [
      ("NAME", Domain.Strings);
      ("KIND", Domain.Strings);
      ("VALUE", Domain.Floats);
      ("SUM", Domain.Ints);
      ("COUNT", Domain.Ints);
      ("HELP", Domain.Strings);
    ]

let series_name (i : Obs.Metrics.info) =
  i.Obs.Metrics.i_name ^ Obs.Metrics.label_string i.Obs.Metrics.i_labels

let sys_metrics () =
  let tuples =
    List.map
      (fun (i : Obs.Metrics.info) ->
        let value, sum, count =
          match i.Obs.Metrics.i_value with
          | Obs.Metrics.Counter_v v ->
              (* A counter's sum/count decomposition is not a thing: ni. *)
              (Value.Float (float_of_int v), Value.Null, Value.Null)
          | Obs.Metrics.Gauge_v v -> (Value.Float v, Value.Null, Value.Null)
          | Obs.Metrics.Histogram_v { sum; count; _ } ->
              (* A histogram has no single value: ni, query sys_histograms. *)
              (Value.Null, Value.Int sum, Value.Int count)
        in
        row
          [
            ("NAME", Value.Str (series_name i));
            ("KIND", Value.Str i.Obs.Metrics.i_kind);
            ("VALUE", value);
            ("SUM", sum);
            ("COUNT", count);
            ("HELP", Value.Str i.Obs.Metrics.i_help);
          ])
      (Obs.Metrics.snapshot ())
  in
  rel metrics_schema tuples

(* ----------------------- sys_histograms ------------------------ *)

let histograms_schema =
  Schema.make "sys_histograms"
    [
      ("NAME", Domain.Strings);
      ("BUCKET", Domain.Ints);
      ("LE", Domain.Strings);
      ("COUNT", Domain.Ints);
      ("CUMULATIVE", Domain.Ints);
    ]

let sys_histograms () =
  let tuples =
    List.concat_map
      (fun (i : Obs.Metrics.info) ->
        match i.Obs.Metrics.i_value with
        | Obs.Metrics.Histogram_v { counts; _ } ->
            let n = series_name i in
            let cumulative = ref 0 in
            List.filter_map Fun.id
              (List.init (Array.length counts) (fun b ->
                   let c = counts.(b) in
                   cumulative := !cumulative + c;
                   if c > 0 || b = Array.length counts - 1 then
                     Some
                       (row
                          [
                            ("NAME", Value.Str n);
                            ("BUCKET", Value.Int b);
                            ("LE", Value.Str (Obs.Metrics.le_string b));
                            ("COUNT", Value.Int c);
                            ("CUMULATIVE", Value.Int !cumulative);
                          ])
                   else None))
        | _ -> [])
      (Obs.Metrics.snapshot ())
  in
  rel histograms_schema tuples

(* ------------------- sys_spans / sys_slowlog ------------------- *)

let span_columns =
  [
    ("SEQ", Domain.Ints);
    ("LABEL", Domain.Strings);
    ("DEPTH", Domain.Ints);
    ("DURATION_US", Domain.Ints);
    ("TICKS", Domain.Ints);
  ]

let spans_schema = Schema.make "sys_spans" span_columns
let slowlog_schema = Schema.make "sys_slowlog" span_columns

let span_rows events =
  List.mapi
    (fun seq (e : Obs.Span.event) ->
      row
        [
          ("SEQ", Value.Int seq);
          ("LABEL", Value.Str e.Obs.Span.label);
          ("DEPTH", Value.Int e.Obs.Span.depth);
          ("DURATION_US", Value.Int (int_of_float (e.Obs.Span.duration_s *. 1e6)));
          ("TICKS", Value.Int e.Obs.Span.ticks);
        ])
    events

let sys_spans () = rel spans_schema (span_rows (Obs.Span.events ()))
let sys_slowlog () = rel slowlog_schema (span_rows (Obs.Span.slow_log ()))

(* ------------------------ sys_sessions ------------------------- *)

let sessions_schema =
  Schema.make "sys_sessions"
    [
      ("DIR", Domain.Strings);
      ("SID", Domain.Ints);
      ("STATE", Domain.Enum [ "idle"; "open"; "submitted" ]);
      ("SNAP_LSN", Domain.Ints);
      ("STAGED", Domain.Ints);
      ("DEADLINE_S", Domain.Floats);
      ("MAX_TUPLES", Domain.Ints);
      ("SEMANTICS", Domain.Enum Semantics.names);
    ]

let state_string = function
  | Session.Idle -> "idle"
  | Session.Open -> "open"
  | Session.Submitted -> "submitted"

let sys_sessions () =
  let tuples =
    List.concat_map
      (fun eng ->
        let dir = Session.engine_dir eng in
        List.map
          (fun (si : Session.session_info) ->
            row
              [
                ("DIR", Value.Str dir);
                ("SID", Value.Int si.Session.si_sid);
                ("STATE", Value.Str (state_string si.Session.si_state));
                ("SNAP_LSN", opt_int si.Session.si_snap_lsn);
                ("STAGED", opt_int si.Session.si_staged);
                ("DEADLINE_S", opt_float si.Session.si_deadline_s);
                ("MAX_TUPLES", opt_int si.Session.si_max_tuples);
                ("SEMANTICS", Value.Str si.Session.si_semantics);
              ])
          (Session.sessions_info eng))
      (Session.list_engines ())
  in
  rel sessions_schema tuples

(* ------------------------ sys_relations ------------------------ *)

let relations_schema =
  Schema.make "sys_relations"
    [
      ("NAME", Domain.Strings);
      ("ROWS", Domain.Ints);
      ("STATS", Domain.Enum [ "fresh"; "stale"; "missing" ]);
      ("STATS_ROWS", Domain.Ints);
      ("CONSTRAINTS", Domain.Ints);
      ("UNVERIFIED", Domain.Ints);
      ("SCHEMA_CRC", Domain.Strings);
      ("DATA_CRC", Domain.Strings);
    ]

let sys_relations ?dir ?io cat =
  let crcs =
    match dir with
    | None -> []
    | Some dir -> (
        try Storage.Persist.manifest_crcs ?io ~dir () with _ -> [])
  in
  let unverified = Storage.Catalog.unverified_constraints cat in
  let tuples =
    List.map
      (fun name ->
        let status, stats_rows =
          match Storage.Catalog.stats_status cat name with
          | Storage.Catalog.Fresh t -> ("fresh", Some t.Stats.rows)
          | Storage.Catalog.Stale t -> ("stale", Some t.Stats.rows)
          | Storage.Catalog.Missing -> ("missing", None)
        in
        let involving =
          List.filter
            (fun d -> List.mem name (Constr.relations d))
            (Storage.Catalog.constraints cat)
        in
        let unverified_here =
          List.length
            (List.filter
               (fun d -> List.mem (Constr.name d) unverified)
               involving)
        in
        let schema_crc, data_crc =
          match List.assoc_opt name crcs with
          | Some (s, d) -> (Value.Str s, Value.Str d)
          | None -> (Value.Null, Value.Null)
        in
        row
          [
            ("NAME", Value.Str name);
            ("ROWS", opt_int (Storage.Catalog.cardinal cat name));
            ("STATS", Value.Str status);
            ("STATS_ROWS", opt_int stats_rows);
            ("CONSTRAINTS", Value.Int (List.length involving));
            ("UNVERIFIED", Value.Int unverified_here);
            ("SCHEMA_CRC", schema_crc);
            ("DATA_CRC", data_crc);
          ])
      (Storage.Catalog.names cat)
  in
  rel relations_schema tuples

(* ------------------------- sys_columns ------------------------- *)

let columns_schema =
  Schema.make "sys_columns"
    [
      ("REL", Domain.Strings);
      ("ATTR", Domain.Strings);
      ("NULLS", Domain.Ints);
      ("DISTINCT", Domain.Ints);
      ("MIN", Domain.Ints);
      ("MAX", Domain.Ints);
    ]

(* The honest-ni showcase: a never-analyzed column's null count,
   distinct count and min/max are simply not known — every one of those
   fields is ni, and a min/max aggregate over sys_columns skips them. *)
let sys_columns cat =
  let tuples =
    List.concat_map
      (fun name ->
        let schema, _ = Storage.Catalog.get cat name in
        let stats =
          match Storage.Catalog.stats_status cat name with
          | Storage.Catalog.Fresh t | Storage.Catalog.Stale t -> Some t
          | Storage.Catalog.Missing -> None
        in
        List.map
          (fun attr ->
            let col =
              Option.bind stats (fun t -> Stats.column t attr)
            in
            row
              [
                ("REL", Value.Str name);
                ("ATTR", Value.Str (Attr.name attr));
                ( "NULLS",
                  opt_int (Option.map (fun c -> c.Stats.nulls) col) );
                ( "DISTINCT",
                  opt_int (Option.map (fun c -> c.Stats.distinct) col) );
                ("MIN", opt_int (Option.bind col (fun c -> c.Stats.min_int)));
                ("MAX", opt_int (Option.bind col (fun c -> c.Stats.max_int)));
              ])
          (Schema.attrs schema))
      (Storage.Catalog.names cat)
  in
  rel columns_schema tuples

(* --------------------------- sys_wal --------------------------- *)

let wal_schema =
  Schema.make "sys_wal"
    [
      ("LSN", Domain.Ints);
      ("SEQ", Domain.Ints);
      ("OP", Domain.Enum [ "change"; "add_constraint"; "drop_constraint" ]);
      ("REL", Domain.Strings);
      ("ADDED", Domain.Ints);
      ("REMOVED", Domain.Ints);
    ]

let sys_wal ?dir ?(io = Storage.Io.real) () =
  let records =
    match dir with
    | None -> []
    | Some dir -> ( try fst (Storage.Wal.read ~io ~dir) with _ -> [])
  in
  let tuples =
    List.concat_map
      (fun (r : Storage.Wal.record) ->
        List.mapi
          (fun seq op ->
            let op_s, rel_v, added, removed =
              match op with
              | Storage.Wal.Change c ->
                  ( "change",
                    Value.Str c.Storage.Wal.rel,
                    Value.Int (Xrel.cardinal c.Storage.Wal.added),
                    Value.Int (Xrel.cardinal c.Storage.Wal.removed) )
              | Storage.Wal.Add_constraint d ->
                  (* DDL moves no tuples: the delta columns are ni. *)
                  ("add_constraint", Value.Str (Constr.name d), Value.Null,
                   Value.Null)
              | Storage.Wal.Drop_constraint n ->
                  ("drop_constraint", Value.Str n, Value.Null, Value.Null)
            in
            row
              [
                ("LSN", Value.Int r.Storage.Wal.lsn);
                ("SEQ", Value.Int seq);
                ("OP", Value.Str op_s);
                ("REL", rel_v);
                ("ADDED", added);
                ("REMOVED", removed);
              ])
          r.Storage.Wal.ops)
      records
  in
  rel wal_schema tuples

(* ----------------------- sys_constraints ----------------------- *)

let constraints_schema =
  Schema.make "sys_constraints"
    [
      ("NAME", Domain.Strings);
      ("KIND", Domain.Enum [ "unique"; "not_null"; "foreign_key" ]);
      ("REL", Domain.Strings);
      ("ATTRS", Domain.Strings);
      ("TARGET", Domain.Strings);
      ("ACTION", Domain.Enum [ "restrict"; "cascade"; "set null" ]);
      ("VERIFIED", Domain.Bools);
    ]

let sys_constraints cat =
  let unverified = Storage.Catalog.unverified_constraints cat in
  let tuples =
    List.map
      (fun d ->
        let kind, relname, attrs, target, action =
          match d with
          | Constr.Unique { rel; attrs; _ } ->
              ( "unique",
                rel,
                String.concat "," (List.map Attr.name attrs),
                Value.Null,
                Value.Null )
          | Constr.Not_null { rel; attr; _ } ->
              ("not_null", rel, Attr.name attr, Value.Null, Value.Null)
          | Constr.Foreign_key { rel; target; pairs; on_delete; _ } ->
              ( "foreign_key",
                rel,
                String.concat "," (List.map (fun (l, _) -> Attr.name l) pairs),
                Value.Str target,
                Value.Str (Constr.action_to_string on_delete) )
        in
        row
          [
            ("NAME", Value.Str (Constr.name d));
            ("KIND", Value.Str kind);
            ("REL", Value.Str relname);
            ("ATTRS", Value.Str attrs);
            ("TARGET", target);
            ("ACTION", action);
            ( "VERIFIED",
              Value.Bool (not (List.mem (Constr.name d) unverified)) );
          ])
      (Storage.Catalog.constraints cat)
  in
  rel constraints_schema tuples

(* --------------------- sys_metrics_history --------------------- *)

let history_schema =
  Schema.make "sys_metrics_history"
    [
      ("SEQ", Domain.Ints);
      ("TICKS", Domain.Ints);
      ("TIME", Domain.Floats);
      ("NAME", Domain.Strings);
      ("VALUE", Domain.Floats);
    ]

let sys_metrics_history () =
  let tuples =
    List.concat_map
      (fun (s : Obs.History.snap) ->
        List.map
          (fun (name, v) ->
            row
              [
                ("SEQ", Value.Int s.Obs.History.seq);
                ("TICKS", Value.Int s.Obs.History.ticks);
                ("TIME", Value.Float s.Obs.History.time);
                ("NAME", Value.Str name);
                (* nan marks a quantile of a histogram that had no
                   observations at snapshot time: unknown, hence ni. *)
                ("VALUE", float_or_null v);
              ])
          s.Obs.History.series)
      (Obs.History.entries ())
  in
  rel history_schema tuples

(* -------------------------- assembly --------------------------- *)

let names =
  [
    "sys_metrics";
    "sys_metrics_history";
    "sys_histograms";
    "sys_spans";
    "sys_slowlog";
    "sys_sessions";
    "sys_relations";
    "sys_columns";
    "sys_wal";
    "sys_constraints";
  ]

let db ?dir ?io cat =
  [
    sys_metrics ();
    sys_metrics_history ();
    sys_histograms ();
    sys_spans ();
    sys_slowlog ();
    sys_sessions ();
    sys_relations ?dir ?io cat;
    sys_columns cat;
    sys_wal ?dir ?io ();
    sys_constraints cat;
  ]

let statement_db ?dir ~ranges cat =
  Storage.Catalog.to_db cat
  @ if List.exists (fun (_, rel) -> is_sys rel) ranges then db ?dir cat else []

let schemas =
  [
    metrics_schema;
    history_schema;
    histograms_schema;
    spans_schema;
    slowlog_schema;
    sessions_schema;
    relations_schema;
    columns_schema;
    wal_schema;
    constraints_schema;
  ]
