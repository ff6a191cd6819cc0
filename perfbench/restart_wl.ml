(* restart: set-up runs the session_write schema and transaction mix
   through one writer until a checkpoint has been cut and [tail] more
   records sit in the journal past it. Midway one transaction is aborted
   by a conflict; the commit path rejects it before the journal, so it
   never reaches the directory. Set-up copies the directory's files as a
   template, as a writer that never called [shutdown] left them. Each
   iteration restores the template (untimed) and times
   [Session.open_engine] until the first snapshot can be read; the
   recovered catalog must equal the writer's acknowledged state, without
   the aborted transaction, with a clean journal. *)

open Nullrel
open Common

let tail = 200
let records = Session.default_config.checkpoint_every + tail

type state = {
  io : Storage.Io.t;
  dir : string;
  template : (string * string) list;  (** File name, contents. *)
  expected : Storage.Catalog.t;
}

let marker = "append to PARENT (K = -2, G = 0)"

(* Puts the template back, durably, so that recovery's own fsyncs do
   not pay for flushing the restored bytes. *)
let restore st =
  let sync_write path data =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.write_substring fd data 0 (String.length data));
        Unix.fsync fd)
  in
  Array.iter (fun f -> Sys.remove (Filename.concat st.dir f)) (Sys.readdir st.dir);
  List.iter (fun (f, data) -> sync_write (Filename.concat st.dir f) data) st.template;
  let fd = Unix.openfile st.dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* Builds the template. Session 1 stages a replace of one of session
   0's children plus the [marker] parent; session 0 then deletes that
   child and commits first, so session 1's commit must conflict. *)
let setup cfg rep =
  let w = Write_wl.setup ~name:"restart" cfg rep in
  let io = w.Write_wl.io and dir = w.Write_wl.dir and eng = w.Write_wl.eng in
  let writer = Session.attach eng in
  let loser = Session.attach eng in
  let aborted = ref false in
  while (Session.stats eng).records < records do
    if (not !aborted) && (Session.stats eng).records >= records - (tail / 2) then begin
      aborted := true;
      let m = w.Write_wl.models.(0) in
      let c, _ = Write_wl.pick w.Write_wl.gens.(0) m.children in
      ignore (Session.exec_string loser (Printf.sprintf "range of c is CHILD replace c (W = 424242) where c.C = %d" c));
      ignore (Session.exec_string loser marker);
      ignore (Session.exec_string writer (Printf.sprintf "range of c is CHILD delete c where c.C = %d" c));
      ignore (Session.commit writer);
      Hashtbl.remove m.children c;
      check "conflicting commit aborts"
        (match Session.commit loser with
        | _ -> false
        | exception Session.Session_error.Error (Session.Session_error.Conflict _) -> true)
    end
    else Write_wl.round w [| writer |] (fun _ _ -> ())
  done;
  let template =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
  in
  let expected = (Session.engine_snapshot eng).catalog in
  (* The files are copied; restoring them overwrites whatever the
     writer's shutdown leaves behind. *)
  Session.shutdown eng;
  let st = { io; dir; template; expected } in
  restore st;
  st

let check_recovered st (report : Storage.Persist.report) cat =
  check "restart journal clean" (report.journal_note = None);
  check "restart keeps acknowledged, aborted absent"
    (List.for_all
       (fun rel ->
         Storage.Catalog.mem cat rel
         && Xrel.equal (Storage.Catalog.relation st.expected rel) (Storage.Catalog.relation cat rel))
       (Storage.Catalog.names st.expected))

let window st secs =
  let lat = samples () and events = ref [] and heap = heap () in
  let t0 = now () in
  let deadline = t0 +. secs in
  let n = ref 0 in
  let rec go () =
    restore st;
    let eng, report, dt =
      Trace.stmt ~name:"restart" ~tag:"restart" (fun () ->
          if !Trace.on then ignore (load_report ~io:st.io ~dir:st.dir);
          let t = now () in
          let eng, report = open_engine ~io:st.io ~dir:st.dir in
          let snap = Session.engine_snapshot eng in
          let dt = now () -. t in
          (eng, { report with catalog = snap.catalog }, dt))
    in
    push lat dt;
    slice_event events ~t0 ~deadline ~t_end:(now ()) dt;
    incr n;
    check_recovered st report report.catalog;
    sample_heap heap (int_of_float (now () -. t0)) eng;
    Session.shutdown eng;
    if now () < deadline then go ()
  in
  go ();
  let wall = now () -. t0 in
  let lat = sorted [ lat ] in
  sliced ~t0 !events heap
    ~extra:
      [
        ("restart_p50_ms", 1e3 *. pct lat 50., "ms");
        ("restart_p90_ms", 1e3 *. pct lat 90., "ms");
        ("restarts_per_s", float !n /. wall, "1/s");
      ]

let verify st =
  restore st;
  let eng, report = Session.open_engine ~io:st.io ~dir:st.dir () in
  check_recovered st report report.catalog;
  Common.verify ~io:st.io ~dir:st.dir eng
    ~expected:(List.map (fun (n, (_, x)) -> (n, x)) (Storage.Catalog.to_db st.expected))
    ~join:"range of p is PARENT range of c is CHILD retrieve (p.G, c.C) where p.K = c.K"
    ~probe:"append to PARENT (K = -3, G = 1)"

let run cfg =
  env "journal_tail" (Printf.sprintf "%d records past a checkpoint at %d" tail
    Session.default_config.checkpoint_every);
  Drive.drive cfg
    ~setup:(fun rep ->
      let st = setup cfg rep in
      (* Warm-up: the first restarts. *)
      ignore (window st 0.);
      st)
    ~drop:(fun _ -> ())
    ~window ~verify
