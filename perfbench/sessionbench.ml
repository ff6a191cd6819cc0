(* Session-level benchmark: Quel statements sent as text through
   [Session] over a durable directory on the real filesystem.

     sessionbench.exe --workload session_read|session_write|restart
       --seed N --seconds S --trace 0|1 [--out DIR] [--fs NAME]
     sessionbench.exe --roundtrip N --seed N

   Prints one "metric NAME VALUE UNIT" line per metric and, last, one
   JSON object with the metrics BENCHMARK.json names. *)

open Common

let usage () =
  prerr_endline
    "usage: sessionbench.exe --workload session_read|session_write|restart --seed N \
     --seconds S --trace 0|1 [--out DIR] [--fs NAME] | --roundtrip N --seed N";
  exit 2

(* Generated queries must survive printing and re-parsing: the
   benchmark sends them as text. *)
let roundtrip ~seed n =
  let g = Workload.Prng.create seed in
  let db = Workload.Gen.db g Read_wl.spec Read_wl.relations in
  let ok = ref 0 in
  for _ = 1 to n do
    let q = Workload.Diff.gen_query g db in
    match Quel.Parser.parse (text_of_query q) with
    | q' when q' = q -> incr ok
    | _ | (exception _) -> ()
  done;
  Printf.printf "roundtrip %d/%d\n" !ok n;
  if !ok <> n then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = List.assoc_opt k o in
  let int k d = match get k with None -> d | Some v -> ( try int_of_string v with _ -> usage ()) in
  let seed = int "seed" 1 in
  match get "roundtrip" with
  | Some n -> roundtrip ~seed (try int_of_string n with _ -> usage ())
  | None ->
      let cfg =
        {
          workload = Option.value ~default:"" (get "workload");
          seed;
          seconds = (match get "seconds" with None -> 10. | Some v -> ( try float_of_string v with _ -> usage ()));
          trace = int "trace" 0 = 1;
          out = Option.value ~default:".perfbench-run" (get "out");
          fs = Option.value ~default:"unknown" (get "fs");
        }
      in
      let run =
        match cfg.workload with
        | "session_read" -> Read_wl.run
        | "session_write" -> Write_wl.run
        | "restart" -> Restart_wl.run
        | _ -> usage ()
      in
      if not (Sys.file_exists cfg.out) then Sys.mkdir cfg.out 0o755;
      Par.Pool.set_domains 1;
      Obs.Metrics.set_enabled false;
      Drive.environment cfg;
      run cfg
