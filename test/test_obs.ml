(* The observability layer: metrics registry, span tracing, and the
   [.explain analyze] rendering built on them. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every test runs against the process-wide registry, so each one
   restores the disabled-by-default state on the way out. *)
let with_obs f =
  Obs.Metrics.set_enabled true;
  Obs.Span.set_enabled true;
  Obs.Span.set_clock (Some (fun () -> 0.));
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_clock None;
      Obs.Span.clear_events ();
      Obs.Span.clear_slow_log ();
      Obs.Span.set_slow_threshold None;
      Obs.Span.set_enabled false;
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

let test_bucket_edges () =
  let check v expect =
    Alcotest.(check int)
      (Printf.sprintf "bucket_index %d" v)
      expect
      (Obs.Metrics.bucket_index v)
  in
  check 0 0;
  check (-7) 0;
  check 1 1;
  check 2 2;
  check 3 2;
  check 4 3;
  check 7 3;
  check 8 4;
  check max_int 62

let test_disabled_is_inert () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~help:"t" "test_obs_inert_total" in
  let h = Obs.Metrics.histogram ~help:"t" "test_obs_inert_sizes" in
  Obs.Metrics.inc c;
  Obs.Metrics.add c 5;
  Obs.Metrics.observe h 42;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Metrics.histogram_count h)

let test_registry_updates_and_reset () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter ~help:"t" "test_obs_reset_total" in
      let c' = Obs.Metrics.counter ~help:"t" "test_obs_reset_total" in
      let h = Obs.Metrics.histogram ~help:"t" "test_obs_reset_sizes" in
      Obs.Metrics.inc c;
      Obs.Metrics.add c' 2;
      Alcotest.(check int) "registration is idempotent" 3
        (Obs.Metrics.counter_value c);
      Obs.Metrics.observe h 5;
      Obs.Metrics.observe h 0;
      Alcotest.(check int) "observations counted" 2
        (Obs.Metrics.histogram_count h);
      Alcotest.(check int) "sum accumulates" 5 (Obs.Metrics.histogram_sum h);
      Alcotest.(check int) "5 lands in bucket 3" 1
        (Obs.Metrics.bucket_count h 3);
      Alcotest.(check int) "0 lands in bucket 0" 1
        (Obs.Metrics.bucket_count h 0);
      Obs.Metrics.reset ();
      Alcotest.(check int) "reset zeroes the counter" 0
        (Obs.Metrics.counter_value c);
      Alcotest.(check int) "reset zeroes the histogram" 0
        (Obs.Metrics.histogram_count h);
      Obs.Metrics.inc c;
      Alcotest.(check int) "registration survives reset" 1
        (Obs.Metrics.counter_value c);
      Alcotest.check_raises "kind mismatch is rejected"
        (Invalid_argument
           "Obs.Metrics: test_obs_reset_total registered as both counter \
            and gauge") (fun () ->
          ignore (Obs.Metrics.gauge ~help:"t" "test_obs_reset_total")))

let test_span_closes_on_exec_error () =
  with_obs (fun () ->
      (try
         Obs.Span.with_span "doomed" (fun () ->
             Nullrel.Exec_error.raise_
               (Nullrel.Exec_error.Timeout { limit_s = 0.1 }))
       with Nullrel.Exec_error.Error _ -> ());
      Alcotest.(check (option string))
        "span stack empty after the raise" None
        (Obs.Span.current_label ());
      match Obs.Span.events () with
      | [ e ] -> Alcotest.(check string) "event recorded" "doomed" e.label
      | es ->
          Alcotest.fail
            (Printf.sprintf "expected one event, got %d" (List.length es)))

let test_span_inclusive_ticks () =
  with_obs (fun () ->
      let (), _ =
        Obs.Span.timed "parent" (fun () ->
            Obs.Span.charge 1;
            let (), inner =
              Obs.Span.timed "child" (fun () -> Obs.Span.charge 4)
            in
            Alcotest.(check int) "child measures its own ticks" 4
              inner.Obs.Span.ticks;
            Obs.Span.charge 2)
      in
      match Obs.Span.events () with
      | [ child; parent ] ->
          Alcotest.(check string) "child closes first" "child" child.label;
          Alcotest.(check int) "child depth" 1 child.depth;
          Alcotest.(check int) "parent ticks are inclusive" 7 parent.ticks
      | es ->
          Alcotest.fail
            (Printf.sprintf "expected two events, got %d" (List.length es)))

let test_prometheus_dump () =
  with_obs (fun () ->
      let c =
        Obs.Metrics.counter
          ~labels:[ ("op", "meet") ]
          ~help:"Test counter" "test_obs_dump_total"
      in
      let h = Obs.Metrics.histogram ~help:"Test sizes" "test_obs_dump_sizes" in
      Obs.Metrics.add c 3;
      Obs.Metrics.observe h 6;
      Obs.Metrics.observe h 7;
      let dump = Obs.Metrics.dump_prometheus () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("dump contains " ^ needle) true
            (contains dump needle))
        [
          "# HELP test_obs_dump_total Test counter";
          "# TYPE test_obs_dump_total counter";
          "test_obs_dump_total{op=\"meet\"} 3";
          "# TYPE test_obs_dump_sizes histogram";
          (* 6 and 7 both have 3 significant bits: bucket le = 2^3-1 *)
          "test_obs_dump_sizes_bucket{le=\"7\"} 2";
          "test_obs_dump_sizes_bucket{le=\"+Inf\"} 2";
          "test_obs_dump_sizes_sum 13";
          "test_obs_dump_sizes_count 2";
        ])

(* Prometheus escaping: a label value escapes backslash, double-quote
   and newline — and nothing else (no OCaml-style decimal or \t
   escapes); HELP text escapes backslash and newline only. *)
let test_prometheus_escaping () =
  Alcotest.(check string)
    "label escaping"
    "a\\\\b\\\"c\\nd\te"
    (Obs.Metrics.escape_label_value "a\\b\"c\nd\te");
  with_obs (fun () ->
      let c =
        Obs.Metrics.counter
          ~labels:[ ("path", "C:\\tmp\"x\"\nend") ]
          ~help:"multi\nline \\ help" "test_obs_escape_total"
      in
      Obs.Metrics.inc c;
      let dump = Obs.Metrics.dump_prometheus () in
      Alcotest.(check bool) "label line escaped" true
        (contains dump
           "test_obs_escape_total{path=\"C:\\\\tmp\\\"x\\\"\\nend\"} 1");
      Alcotest.(check bool) "help line escaped" true
        (contains dump "# HELP test_obs_escape_total multi\\nline \\\\ help");
      (* the raw newline must not survive into the exposition text *)
      Alcotest.(check bool) "no raw newline in label" false
        (contains dump "x\"\nend"))

let test_snapshot_and_quantiles () =
  with_obs (fun () ->
      let h = Obs.Metrics.histogram ~help:"t" "test_obs_snap_sizes" in
      Obs.Metrics.observe h 1;
      Obs.Metrics.observe h 2;
      Obs.Metrics.observe h 1000;
      let info =
        List.find
          (fun (i : Obs.Metrics.info) ->
            i.Obs.Metrics.i_name = "test_obs_snap_sizes")
          (Obs.Metrics.snapshot ())
      in
      (match info.Obs.Metrics.i_value with
      | Obs.Metrics.Histogram_v { sum; count; counts } ->
          Alcotest.(check int) "sum" 1003 sum;
          Alcotest.(check int) "count" 3 count;
          (* p50 lands in the bucket of 2, p99 in the bucket of 1000 *)
          (match Obs.Metrics.quantile_of_counts counts 0.5 with
          | Some q -> Alcotest.(check bool) "p50 small" true (q <= 3.)
          | None -> Alcotest.fail "p50 missing");
          (match Obs.Metrics.quantile_of_counts counts 0.99 with
          | Some q -> Alcotest.(check bool) "p99 large" true (q >= 1000.)
          | None -> Alcotest.fail "p99 missing")
      | _ -> Alcotest.fail "expected a histogram snapshot");
      Alcotest.(check (option (float 0.)))
        "empty histogram has no quantiles" None
        (Obs.Metrics.quantile_of_counts (Array.make Obs.Metrics.buckets 0) 0.5))

let test_explain_analyze_shape () =
  with_obs (fun () ->
      let path = Filename.temp_file "nullrel_obs" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let out = open_out path in
          output_string out "S#,P#\ns1,p1\ns2,p1\ns3,p2\n";
          close_out out;
          let st, _ =
            Shell.exec Shell.initial (Printf.sprintf ".load PS %s" path)
          in
          let _, out =
            Shell.exec st
              ".explain analyze range of p is PS retrieve (p.S#) where \
               p.P# = \"p1\""
          in
          let lines = String.split_on_char '\n' out in
          (match lines with
          | sem_line :: header :: _ ->
              Alcotest.(check bool) "semantics line" true
                (contains sem_line "semantics: ni");
              Alcotest.(check bool) "header row" true
                (contains header "operator" && contains header "est"
                && contains header "actual" && contains header "ticks"
                && contains header "ms")
          | _ -> Alcotest.fail "expected semantics line and header");
          List.iter
            (fun op ->
              Alcotest.(check bool) ("plan shows " ^ op) true
                (contains out op))
            [ "project"; "select"; "PS" ];
          (* The scan leaf: est from live catalog stats, actual from the
             run -- both are the 3 loaded tuples. *)
          let leaf =
            List.find_opt (fun l -> contains l "PS") lines
            |> Option.value ~default:""
          in
          Alcotest.(check bool) "leaf est=3 actual=3 from live stats" true
            (contains leaf "3");
          (* Pinned clock: every per-node wall time renders as 0.0. *)
          Alcotest.(check bool) "no nonzero ms under the pinned clock" true
            (not (contains out "0.1"))))

(* The index demo's data: with DEPT hash-indexed on DDEPT the EMP-DEPT
   retrieve runs as a probe-equijoin, and [.explain analyze] must
   measure that plan -- the executed retrieve's ticks at the root, and
   no product anywhere in the tree. *)
let test_explain_analyze_measures_the_indexed_plan () =
  with_obs (fun () ->
      let csv rows =
        let path = Filename.temp_file "nullrel_obs" ".csv" in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc rows);
        path
      in
      let emp =
        csv
          "ENAME,EDEPT\nanne,toys\nbert,toys\ncarl,candy\ndora,-\n\
           erik,candy\nfred,toys\ngina,books\n"
      and dept = csv "DDEPT,LOC\ntoys,london\ncandy,paris\nbooks,oslo\n" in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ emp; dept ])
        (fun () ->
          let st =
            List.fold_left
              (fun st cmd -> fst (Shell.exec st cmd))
              Shell.initial
              [
                ".load EMP " ^ emp;
                ".load DEPT " ^ dept;
                ".index DEPT hash DDEPT";
              ]
          in
          let q =
            "range of e is EMP range of d is DEPT retrieve (e.ENAME, d.LOC) \
             where e.EDEPT = d.DDEPT"
          in
          let _, ran = Obs.Span.timed "retrieve" (fun () -> Shell.exec st q) in
          let _, out = Shell.exec st (".explain analyze " ^ q) in
          let rows =
            List.map
              (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
              (String.split_on_char '\n' out)
          in
          (match rows with
          | _semantics :: _header :: (_ :: _ :: _ :: _ :: ticks :: _) :: _ ->
              Alcotest.(check int) "root ticks = the executed retrieve's"
                ran.Obs.Span.ticks (int_of_string ticks)
          | _ -> Alcotest.failf "unexpected explain output:\n%s" out);
          Alcotest.(check bool) "no product row" false
            (List.exists (function "product" :: _ -> true | _ -> false) rows)))

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "disabled updates are inert" `Quick
      test_disabled_is_inert;
    Alcotest.test_case "registry updates and reset" `Quick
      test_registry_updates_and_reset;
    Alcotest.test_case "span closes under Exec_error" `Quick
      test_span_closes_on_exec_error;
    Alcotest.test_case "span ticks are inclusive" `Quick
      test_span_inclusive_ticks;
    Alcotest.test_case "prometheus dump is well-formed" `Quick
      test_prometheus_dump;
    Alcotest.test_case "prometheus escaping" `Quick test_prometheus_escaping;
    Alcotest.test_case "snapshot and quantiles" `Quick
      test_snapshot_and_quantiles;
    Alcotest.test_case "explain analyze shape" `Quick
      test_explain_analyze_shape;
    Alcotest.test_case "explain analyze measures the indexed plan" `Quick
      test_explain_analyze_measures_the_indexed_plan;
  ]
