(* The queryable system catalog: sys_* virtual relations, their honest
   use of ni, the read-only namespace, the history ring, and the
   structured trace export. *)

open Nullrel
open Helpers

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every test touches the process-wide obs registries; restore the
   disabled-by-default state on the way out. *)
let with_obs f =
  Obs.Metrics.set_enabled true;
  Obs.Span.set_enabled true;
  Obs.History.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.History.set_enabled false;
      Obs.History.clear ();
      Obs.History.configure ~interval:50_000 ~capacity:64 ();
      Obs.Span.clear_events ();
      Obs.Span.clear_slow_log ();
      Obs.Span.set_enabled false;
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Sysview.Trace.clear_aborts ())
    f

let feed inputs =
  List.fold_left
    (fun (st, outputs) input ->
      let st, out = Shell.exec st input in
      (st, out :: outputs))
    (Shell.initial, []) inputs
  |> fun (st, outputs) -> (st, List.rev outputs)

let run_sys ?dir cat src =
  let db = Storage.Catalog.to_db cat @ Sysview.db ?dir cat in
  Quel.Eval.run_string db src

(* ------------------------- shape checks ------------------------ *)

let test_names_and_schemas () =
  Alcotest.(check int) "ten relations" 10 (List.length Sysview.names);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is sys") true (Sysview.is_sys n);
      Alcotest.(check bool)
        (n ^ " has a schema") true
        (List.exists (fun s_ -> Schema.name s_ = n) Sysview.schemas))
    Sysview.names;
  Alcotest.(check bool) "user names are not sys" false (Sysview.is_sys "EMP");
  let db = Sysview.db Storage.Catalog.empty in
  Alcotest.(check (list string))
    "db materializes every name in order" Sysview.names (List.map fst db);
  (* Schema/scope agreement: every materialized tuple stays inside its
     schema's attribute set. *)
  List.iter
    (fun (name, (schema, x)) ->
      let attrs = Attr.set_of_list (List.map Attr.name (Schema.attrs schema)) in
      Alcotest.(check bool)
        (name ^ " scope within schema")
        true
        (Attr.Set.subset (Xrel.scope x) attrs))
    db

(* --------------------- ni conventions ------------------------- *)

let test_metrics_ni_conventions () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter ~help:"t" "test_sysview_total" in
      let h = Obs.Metrics.histogram ~help:"t" "test_sysview_sizes" in
      Obs.Metrics.add c 7;
      Obs.Metrics.observe h 3;
      Obs.Metrics.observe h 100;
      let _, (_, x) = Sysview.sys_metrics () in
      let find name =
        List.find
          (fun t_ -> Tuple.get t_ (a_ "NAME") = Value.Str name)
          (Xrel.to_list x)
      in
      let crow = find "test_sysview_total" in
      Alcotest.check value "counter VALUE" (Value.Float 7.)
        (Tuple.get crow (a_ "VALUE"));
      Alcotest.check value "counter SUM is ni" Value.Null
        (Tuple.get crow (a_ "SUM"));
      Alcotest.check value "counter COUNT is ni" Value.Null
        (Tuple.get crow (a_ "COUNT"));
      let hrow = find "test_sysview_sizes" in
      Alcotest.check value "histogram VALUE is ni" Value.Null
        (Tuple.get hrow (a_ "VALUE"));
      Alcotest.check value "histogram SUM" (Value.Int 103)
        (Tuple.get hrow (a_ "SUM"));
      Alcotest.check value "histogram COUNT" (Value.Int 2)
        (Tuple.get hrow (a_ "COUNT")))

let test_histogram_buckets () =
  with_obs (fun () ->
      let h = Obs.Metrics.histogram ~help:"t" "test_sysview_buckets" in
      Obs.Metrics.observe h 1;
      Obs.Metrics.observe h 1;
      Obs.Metrics.observe h 1000;
      let _, (_, x) = Sysview.sys_histograms () in
      let rows =
        List.filter
          (fun t_ ->
            Tuple.get t_ (a_ "NAME") = Value.Str "test_sysview_buckets")
          (Xrel.to_list x)
      in
      Alcotest.(check bool) "has rows" true (rows <> []);
      (* The +Inf row closes every histogram and carries the total. *)
      let inf =
        List.find (fun t_ -> Tuple.get t_ (a_ "LE") = Value.Str "+Inf") rows
      in
      Alcotest.check value "cumulative total" (Value.Int 3)
        (Tuple.get inf (a_ "CUMULATIVE")))

let test_columns_ni_when_unanalyzed () =
  let cat =
    Storage.Catalog.add Storage.Catalog.empty
      (Schema.make "R" [ ("A", Domain.Ints) ])
      (x [ Tuple.of_strings [ ("A", i 1) ] ])
  in
  let _, (_, cols) = Sysview.sys_columns cat in
  match Xrel.to_list cols with
  | [ t_ ] ->
      Alcotest.check value "NULLS is ni" Value.Null (Tuple.get t_ (a_ "NULLS"));
      Alcotest.check value "MIN is ni" Value.Null (Tuple.get t_ (a_ "MIN"))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 column row, got %d"
                          (List.length l))

(* --------------------- read-only namespace --------------------- *)

let test_writes_rejected () =
  let reject src =
    match Dml.exec_string Storage.Catalog.empty src with
    | exception Exec_error.Error _ -> ()
    | _ -> Alcotest.fail (src ^ " should have been rejected")
  in
  reject "append to sys_metrics (NAME = \"x\")";
  reject "range of v is sys_metrics delete v";
  reject "range of v is sys_metrics replace v (NAME = \"x\")";
  reject "constrain notnull sys_metrics (NAME)"

let test_shell_load_refused () =
  let _, outputs = feed [ ".load sys_thing /nonexistent.csv" ] in
  match outputs with
  | [ out ] ->
      Alcotest.(check bool) "refused" true (contains out "read-only")
  | _ -> Alcotest.fail "expected one output"

(* ----------------- the acceptance-criteria queries ------------- *)

(* "Which relations have stale stats or unverified constraints?" as a
   plain Quel query over sys_relations — no dot-commands involved. *)
let test_stale_and_unverified_query () =
  let r_schema = Schema.make "R" [ ("A", Domain.Ints) ] in
  let s_schema = Schema.make "S" [ ("B", Domain.Ints) ] in
  let cat =
    Storage.Catalog.add
      (Storage.Catalog.add Storage.Catalog.empty r_schema (x [ Tuple.of_strings [ ("A", i 1) ] ]))
      s_schema
      (x [ Tuple.of_strings [ ("B", i 2) ] ])
  in
  (* R: analyzed, then changed — stale. S: never analyzed — missing. *)
  let cat =
    Storage.Catalog.set_stats cat "R"
      (Stats.collect ~attrs:[ a_ "A" ] (Storage.Catalog.relation cat "R"))
  in
  let cat =
    Storage.Catalog.set_relation cat "R" (x [ Tuple.of_strings [ ("A", i 1) ]; Tuple.of_strings [ ("A", i 2) ] ])
  in
  let stale =
    run_sys cat
      "range of r is sys_relations retrieve (r.NAME) where r.STATS = \"stale\""
  in
  Alcotest.(check (list string))
    "stale relations" [ "R" ]
    (List.map
       (fun t_ -> Value.to_string (Tuple.get t_ (a_ "NAME")))
       (Xrel.to_list stale.Quel.Eval.rel));
  (* An unverified constraint (attached as after-crash recovery does)
     shows up in both sys_constraints and the per-relation counter. *)
  let def = Constr.Unique { name = "r_key"; rel = "R"; attrs = [ a_ "A" ] } in
  let cat = Storage.Catalog.attach_constraint ~verified:false cat def in
  let unver =
    run_sys cat
      "range of r is sys_relations retrieve (r.NAME, r.UNVERIFIED) where r.UNVERIFIED > 0"
  in
  (match Xrel.to_list unver.Quel.Eval.rel with
  | [ t_ ] ->
      Alcotest.check value "name" (Value.Str "R") (Tuple.get t_ (a_ "NAME"))
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected one unverified row, got %d" (List.length l)));
  let verified_col =
    run_sys cat
      "range of c is sys_constraints retrieve (c.NAME, c.VERIFIED) where c.NAME = \"r_key\""
  in
  match Xrel.to_list verified_col.Quel.Eval.rel with
  | [ t_ ] ->
      Alcotest.check value "verified flag" (Value.Bool false)
        (Tuple.get t_ (a_ "VERIFIED"))
  | _ -> Alcotest.fail "expected the constraint row"

(* "p99 commit latency over the last N snapshots" — the history ring
   flattens histograms into _p99 series, so it's a plain retrieve. *)
let test_history_p99_query () =
  with_obs (fun () ->
      (* a huge interval: only the explicit snap_now calls snapshot —
         materializing sysview itself charges ticks (minimization runs
         under the governor), which would otherwise push extra snaps *)
      Obs.History.configure ~interval:100_000_000 ~capacity:8 ();
      let h = Obs.Metrics.histogram ~help:"t" "test_sysview_commit_us" in
      for k = 1 to 3 do
        Obs.Metrics.observe h (100 * k);
        Obs.History.snap_now ()
      done;
      let r =
        run_sys Storage.Catalog.empty
          "range of s is sys_metrics_history retrieve (s.SEQ, s.VALUE) where s.NAME = \"test_sysview_commit_us_p99\""
      in
      let rows = Xrel.to_list r.Quel.Eval.rel in
      Alcotest.(check int) "one row per snapshot" 3 (List.length rows);
      List.iter
        (fun t_ ->
          match Tuple.get t_ (a_ "VALUE") with
          | Value.Float v ->
              Alcotest.(check bool) "p99 positive" true (v > 0.)
          | v ->
              Alcotest.failf "p99 should be a float, got %s" (Value.to_string v))
        rows)

(* ------------------------ history ring ------------------------- *)

let test_history_ring_bounded () =
  with_obs (fun () ->
      Obs.History.configure ~interval:1000 ~capacity:4 ();
      for _ = 1 to 10 do
        Obs.History.snap_now ()
      done;
      let entries = Obs.History.entries () in
      Alcotest.(check int) "capacity respected" 4 (List.length entries);
      let seqs = List.map (fun s_ -> s_.Obs.History.seq) entries in
      Alcotest.(check (list int)) "latest snapshots, oldest first"
        [ 6; 7; 8; 9 ] seqs;
      (* charge-driven snapshots fire every [interval] ticks *)
      Obs.History.clear ();
      Obs.History.configure ~interval:10 ~capacity:4 ();
      for _ = 1 to 25 do
        Obs.History.charge 1
      done;
      Alcotest.(check int) "two interval crossings" 2
        (List.length (Obs.History.entries ())))

let test_history_disabled_is_inert () =
  Obs.History.clear ();
  Obs.History.set_enabled false;
  Obs.History.charge 1_000_000;
  Obs.History.snap_now ();
  Alcotest.(check int) "no snapshots when off" 0
    (List.length (Obs.History.entries ()))

(* ----------------------- durable columns ----------------------- *)

let test_wal_and_crc_columns () =
  let dir = Filename.temp_file "nullrel_sysview" "" in
  Sys.remove dir;
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cat =
        Storage.Catalog.add Storage.Catalog.empty
          (Schema.make "R" [ ("A", Domain.Ints) ])
          (x [ Tuple.of_strings [ ("A", i 1) ] ])
      in
      Storage.Persist.save ~dir cat;
      let cat =
        Test_durability.with_writer ~dir (fun eng sess ->
            Test_durability.commit_stmt sess "append to R (A = 2)";
            Test_durability.committed eng)
      in
      (* The checkpointed relation has CRCs; the journaled append shows
         in sys_wal with its tuple delta. *)
      let crc =
        run_sys ~dir cat
          "range of r is sys_relations retrieve (r.NAME, r.DATA_CRC)"
      in
      (match Xrel.to_list crc.Quel.Eval.rel with
      | [ t_ ] ->
          Alcotest.(check bool)
            "data crc known" true
            (Tuple.get t_ (a_ "DATA_CRC") <> Value.Null)
      | _ -> Alcotest.fail "expected one relation row");
      let wal =
        run_sys ~dir cat
          "range of w is sys_wal retrieve (w.OP, w.REL, w.ADDED) where w.REL = \"R\""
      in
      match Xrel.to_list wal.Quel.Eval.rel with
      | [ t_ ] ->
          Alcotest.check value "op" (Value.Str "change")
            (Tuple.get t_ (a_ "OP"));
          Alcotest.check value "added" (Value.Int 1)
            (Tuple.get t_ (a_ "ADDED"))
      | l ->
          Alcotest.fail
            (Printf.sprintf "expected one wal row, got %d" (List.length l)))

(* --------------------------- .monitor -------------------------- *)

let test_shell_monitor () =
  with_obs (fun () ->
      let _, outputs =
        feed [ ".monitor on"; "range of m is sys_metrics retrieve (m.NAME)";
               ".monitor"; ".monitor off"; ".monitor bogus extra" ]
      in
      match outputs with
      | [ on; _query; monitor; off; usage ] ->
          Alcotest.(check bool) "on confirms" true (contains on "history on");
          Alcotest.(check bool) "shows header" true (contains monitor "monitor:");
          Alcotest.(check bool) "shows sessions" true (contains monitor "sessions");
          Alcotest.(check bool) "shows history" true (contains monitor "history");
          Alcotest.(check bool) "off confirms" true (contains off "history off");
          Alcotest.(check bool) "usage on junk" true (contains usage "usage")
      | _ -> Alcotest.fail "expected five outputs")

let test_shell_sys_query_and_join () =
  with_obs (fun () ->
      let _, outputs =
        feed
          [
            "range of m is sys_metrics retrieve (m.NAME, m.KIND) where m.KIND \
             = \"histogram\"";
            (* joinable against other sys relations like user data *)
            "range of m is sys_metrics range of h is sys_histograms retrieve \
             (h.NAME, h.LE) where m.NAME = h.NAME and m.KIND = \"histogram\" \
             and h.LE = \"+Inf\"";
            ".schema sys_sessions";
          ]
      in
      match outputs with
      | [ kinds; join; schema ] ->
          Alcotest.(check bool) "histograms listed" true
            (contains kinds "nullrel_minimize_input_tuples");
          Alcotest.(check bool) "join produced +Inf rows" true
            (contains join "+Inf");
          Alcotest.(check bool) "schema renders" true
            (contains schema "SNAP_LSN")
      | _ -> Alcotest.fail "expected three outputs")

(* ------------------------- trace export ------------------------ *)

let test_trace_escape () =
  Alcotest.(check string)
    "quote, backslash, newline" "a\\\"b\\\\c\\nd"
    (Sysview.Trace.escape "a\"b\\c\nd");
  Alcotest.(check string)
    "control characters" "tab\\tbell\\u0007"
    (Sysview.Trace.escape "tab\tbell\007")

let test_trace_dump_jsonl () =
  with_obs (fun () ->
      Sysview.Trace.clear_aborts ();
      Sysview.Trace.note_abort ~kind:"governor"
        ~detail:"budget \"exceeded\"\nline two";
      Obs.Span.with_span "trace.test" (fun () -> ());
      let dump = Sysview.Trace.dump () in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' dump)
      in
      Alcotest.(check int) "one span + one abort" 2 (List.length lines);
      List.iter
        (fun line ->
          Alcotest.(check bool) "flat object" true
            (String.length line > 2
            && line.[0] = '{'
            && line.[String.length line - 1] = '}'))
        lines;
      Alcotest.(check bool) "span line" true
        (contains dump "{\"type\":\"span\",\"label\":\"trace.test\"");
      Alcotest.(check bool) "abort line escapes detail" true
        (contains dump "budget \\\"exceeded\\\"\\nline two");
      (* write_file publishes atomically (no .tmp left behind) *)
      let path = Filename.temp_file "nullrel_trace" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          Sysview.Trace.write_file path;
          Alcotest.(check bool) "no tmp sibling" false
            (Sys.file_exists (path ^ ".tmp"));
          let ic = open_in path in
          let len = in_channel_length ic in
          let contents = really_input_string ic len in
          close_in ic;
          Alcotest.(check string) "file is the dump" dump contents))

let suite =
  [
    Alcotest.test_case "names and schemas" `Quick test_names_and_schemas;
    Alcotest.test_case "metrics ni conventions" `Quick
      test_metrics_ni_conventions;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "unanalyzed columns are ni" `Quick
      test_columns_ni_when_unanalyzed;
    Alcotest.test_case "writes rejected" `Quick test_writes_rejected;
    Alcotest.test_case "shell .load refused" `Quick test_shell_load_refused;
    Alcotest.test_case "stale stats and unverified constraints query" `Quick
      test_stale_and_unverified_query;
    Alcotest.test_case "p99 over history snapshots" `Quick
      test_history_p99_query;
    Alcotest.test_case "history ring bounded" `Quick test_history_ring_bounded;
    Alcotest.test_case "history disabled is inert" `Quick
      test_history_disabled_is_inert;
    Alcotest.test_case "wal and crc columns" `Quick test_wal_and_crc_columns;
    Alcotest.test_case "shell .monitor" `Quick test_shell_monitor;
    Alcotest.test_case "shell sys queries and joins" `Quick
      test_shell_sys_query_and_join;
    Alcotest.test_case "trace escaping" `Quick test_trace_escape;
    Alcotest.test_case "trace dump is JSONL" `Quick test_trace_dump_jsonl;
  ]
