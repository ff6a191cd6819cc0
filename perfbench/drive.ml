(* The shape every workload shares: repeated set-up, an untraced timed
   window, and, in a traced run, a second window plus the verification
   with spans and engine counters on. *)

open Common

let environment cfg =
  env "workload" cfg.workload;
  env "seed" (string_of_int cfg.seed);
  env "seconds" (Printf.sprintf "%g" cfg.seconds);
  env "trace" (string_of_bool cfg.trace);
  env "nproc" (string_of_int (Domain.recommended_domain_count ()));
  env "session_domains" "1";
  env "sessions" (string_of_int sessions);
  env "par_pool" (string_of_int (Par.Pool.domains ()));
  env "ocaml" Sys.ocaml_version;
  env "filesystem" cfg.fs;
  let c = Session.default_config in
  env "session_config"
    (Printf.sprintf "flush_window_s=%g max_queue=%d checkpoint_every=%d group=%b"
       c.flush_window_s c.max_queue c.checkpoint_every c.group);
  env "setups" (string_of_int setups)

let drive cfg ~setup ~drop ~window ~verify =
  let st, setup_s = repeated_setup ~drop setup in
  (* A traced run splits its time between an untraced window, whose
     medians the overhead is measured against, and a traced one. *)
  let secs = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let w = window st secs in
  let json = not cfg.trace in
  metric ~json "setup_s" setup_s "s";
  metric ~json "op_p50_ms" (1e3 *. w.p50) "ms";
  metric ~json "op_p90_ms" (1e3 *. w.p90) "ms";
  metric ~json "ops_per_s" w.ops_per_s "1/s";
  metric "op_samples" (float w.samples) "count";
  metric "blocks" (float w.nblocks) "count";
  List.iter (fun (n, v, u) -> metric n v u) w.extra;
  if cfg.trace then begin
    Atomic.set examined_rows 0;
    Atomic.set answer_rows 0;
    let m0 = Layers.start () in
    let w' = window st secs in
    verify st;
    let m1 = Layers.stop () in
    let spans = Trace.all () in
    Layers.report ~m0 ~m1
      ~overhead_ms:(1e3 *. (w'.p50 -. w.p50))
      spans;
    let per_layer =
      List.rev_map
        (fun (n, v, u) ->
          Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Trace.json_string n) v
            (Trace.json_string u))
        !json_metrics
    in
    let path = Filename.concat cfg.out ("trace-" ^ cfg.workload ^ ".jsonl") in
    let origin = match spans with s :: _ -> s.Trace.t0 | [] -> 0. in
    Trace.write_jsonl ~path ~origin spans
      ~extra:
        [
          Printf.sprintf "{\"workload\": %s, \"seed\": %d, \"per_layer\": {%s}}"
            (Trace.json_string cfg.workload) cfg.seed (String.concat ", " per_layer);
        ];
    Printf.printf "trace written to %s (%d spans)\n" path (List.length spans)
  end
  else verify st;
  metric ~json "live_heap_mb" w.live_mb "MB";
  metric "peak_heap_mb" (peak_heap_mb ()) "MB";
  finish ()
