(* The headline robustness tests: the fault-injection matrix (crash the
   injected filesystem after its Nth operation, for every N, and verify
   recovery lands on a committed state — never a torn intermediate),
   plus deliberate corruption of every durable artifact. *)

open Nullrel

let temp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) (Random.int 1_000_000))
  in
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_temp_dir f =
  let dir = temp_dir "nullrel_durability" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------ the workload ------------------------ *)

let seed_catalog () =
  let r_schema =
    Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints) ]
  in
  let s_schema =
    Schema.make "S" [ ("K", Domain.Ints); ("V", Domain.Strings) ]
  in
  Storage.Catalog.add
    (Storage.Catalog.add Storage.Catalog.empty r_schema Xrel.bottom)
    s_schema Xrel.bottom

let workload =
  [
    "append to R (A = 1, B = 10)";
    "append to R (A = 2)";
    "append to S (K = 1, V = \"one\")";
    "range of r is R replace r (B = 99) where r.A = 1";
    "range of r is R delete r where r.A = 2";
    "append to S (K = 2)";
    "append to R (A = 3, B = 7)";
    "range of s is S delete s where s.K = 1";
    "range of r is R replace r (A = 4) where r.B = 99";
    "append to R (A = 5, B = 1)";
  ]

let checkpoint_every = 3

let catalogs_equal c1 c2 =
  List.equal String.equal (Storage.Catalog.names c1) (Storage.Catalog.names c2)
  && List.for_all
       (fun name ->
         Xrel.equal
           (Storage.Catalog.relation c1 name)
           (Storage.Catalog.relation c2 name)
         && String.equal
              (Storage.Persist.schema_to_string (Storage.Catalog.schema c1 name))
              (Storage.Persist.schema_to_string (Storage.Catalog.schema c2 name)))
       (Storage.Catalog.names c1)

(* The drills' single writer, as the CLI's [dml] runs it: a one-session
   engine that commits every statement as its own transaction. The
   engine is shut down however [f] leaves, so a poisoned one never
   lingers in the registry [sys_sessions] reads. *)
let with_writer ?io ?(checkpoint_every = checkpoint_every) ~dir f =
  let eng, _ =
    Session.open_engine ?io
      ~config:{ Session.default_config with Session.checkpoint_every }
      ~dir ()
  in
  Fun.protect
    ~finally:(fun () -> Session.shutdown eng)
    (fun () -> f eng (Session.attach eng))

let commit_stmt sess stmt =
  ignore (Session.exec_string sess stmt);
  ignore (Session.commit sess)

let committed eng = (Session.engine_snapshot eng).Session.catalog

(* Commits [stmts] in order, counting each one that fully committed. *)
let commit_all ?(completed = ref 0) sess stmts =
  List.iter
    (fun stmt ->
      commit_stmt sess stmt;
      incr completed)
    stmts

(* Every state a committed run passes through: the seed, then the state
   after each statement. *)
let committed_states () =
  with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (seed_catalog ());
      with_writer ~dir (fun eng sess ->
          let states =
            List.fold_left
              (fun states stmt ->
                commit_stmt sess stmt;
                committed eng :: states)
              [ committed eng ] workload
          in
          Array.of_list (List.rev states)))

(* One faulted run: seed, open, execute until the injected crash, count
   fully completed statements. *)
let faulted_run ~fault ~after dir =
  Storage.Persist.save ~dir (seed_catalog ());
  let io = Storage.Io.faulty ~fault ~after Storage.Io.real in
  let completed = ref 0 in
  (try with_writer ~io ~dir (fun _ sess -> commit_all ~completed sess workload)
   with Storage.Io.Injected_fault _ -> ());
  !completed

let count_fs_ops () =
  with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (seed_catalog ());
      let io, ops = Storage.Io.counting Storage.Io.real in
      with_writer ~io ~dir (fun _ sess -> commit_all sess workload);
      ops ())

let no_corruption report =
  List.iter
    (fun (name, status) ->
      match status with
      | Storage.Persist.Corrupt reason ->
          Alcotest.failf "relation %s quarantined after crash: %s" name reason
      | _ -> ())
    report.Storage.Persist.statuses

let test_fault_matrix fault () =
  let states = committed_states () in
  let total = count_fs_ops () in
  Alcotest.(check bool)
    "the workload performs filesystem operations" true (total > 10);
  for after = 0 to total - 1 do
    with_temp_dir (fun dir ->
        let completed = faulted_run ~fault ~after dir in
        let report = Storage.Persist.recover ~dir () in
        no_corruption report;
        let recovered = report.Storage.Persist.catalog in
        (* The crash happened during statement [completed] (0-based): its
           journal append either committed or it did not, so recovery must
           land exactly on the state after [completed] or [completed+1]
           statements — anything else is a torn or lost update. *)
        let candidates =
          states.(completed)
          :: (if completed + 1 < Array.length states then
                [ states.(completed + 1) ]
              else [])
        in
        if not (List.exists (catalogs_equal recovered) candidates) then
          Alcotest.failf
            "crash at fs-op %d (after %d statements): recovered catalog \
             matches no committed state"
            after completed;
        (* And the repaired directory must now load cleanly. *)
        let clean = Storage.Persist.load_report ~dir () in
        no_corruption clean;
        (match clean.Storage.Persist.journal_note with
        | Some note -> Alcotest.failf "journal note after repair: %s" note
        | None -> ());
        if not (catalogs_equal clean.Storage.Persist.catalog recovered) then
          Alcotest.failf "crash at fs-op %d: repaired directory reloads \
                          differently" after)
  done

(* --------------------- deliberate corruption ------------------ *)

let clobber path f =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (f data))

let flip_last_byte data =
  let n = String.length data in
  String.mapi
    (fun i c -> if i = n - 2 then Char.chr (Char.code c lxor 0x01) else c)
    data

let populated_dir dir =
  Storage.Persist.save ~dir (seed_catalog ());
  with_writer ~checkpoint_every:1000 ~dir (fun _ sess -> commit_all sess workload)

let test_corrupt_csv_quarantined () =
  with_temp_dir (fun dir ->
      populated_dir dir;
      (* checkpoint so the csv files reflect the workload *)
      let _ = Storage.Persist.recover ~dir () in
      clobber (Filename.concat dir "R.csv") flip_last_byte;
      let report = Storage.Persist.load_report ~dir () in
      (match List.assoc "R" report.Storage.Persist.statuses with
      | Storage.Persist.Corrupt reason ->
          Alcotest.(check bool)
            "reason mentions the checksum" true
            (String.length reason > 0)
      | _ -> Alcotest.fail "R should be quarantined");
      (match List.assoc "S" report.Storage.Persist.statuses with
      | Storage.Persist.Ok -> ()
      | _ -> Alcotest.fail "S should be untouched");
      Alcotest.(check (list string))
        "catalog holds only the healthy relation" [ "S" ]
        (Storage.Catalog.names report.Storage.Persist.catalog);
      (* load (the strict variant) refuses *)
      (match Storage.Persist.load ~dir () with
      | _ -> Alcotest.fail "strict load should raise"
      | exception Storage.Persist.Error _ -> ());
      (* repair: the quarantined relation is dropped from the manifest *)
      let repaired = Storage.Persist.recover ~dir () in
      ignore repaired;
      let clean = Storage.Persist.load_report ~dir () in
      Alcotest.(check (list string))
        "after fsck only the healthy relation is listed" [ "S" ]
        (List.map fst clean.Storage.Persist.statuses);
      no_corruption clean)

let test_missing_csv_quarantined () =
  with_temp_dir (fun dir ->
      Storage.Persist.save ~dir (seed_catalog ());
      Sys.remove (Filename.concat dir "S.csv");
      let report = Storage.Persist.load_report ~dir () in
      match List.assoc "S" report.Storage.Persist.statuses with
      | Storage.Persist.Corrupt _ -> ()
      | _ -> Alcotest.fail "S should be quarantined")

let test_garbage_journal_tail () =
  with_temp_dir (fun dir ->
      populated_dir dir;
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644
          (Filename.concat dir "wal")
      in
      output_string oc "garbage tail bytes";
      close_out oc;
      let report = Storage.Persist.load_report ~dir () in
      (match report.Storage.Persist.journal_note with
      | Some _ -> ()
      | None -> Alcotest.fail "torn journal tail should be reported");
      no_corruption report;
      (* the committed prefix still replays *)
      let states = committed_states () in
      Alcotest.(check bool)
        "catalog is the fully committed state" true
        (catalogs_equal report.Storage.Persist.catalog
           states.(Array.length states - 1)))

let test_torn_manifest_degrades () =
  with_temp_dir (fun dir ->
      populated_dir dir;
      let _ = Storage.Persist.recover ~dir () in
      clobber (Filename.concat dir "MANIFEST") (fun data ->
          String.sub data 0 (String.length data / 2));
      (* a torn manifest degrades to the legacy (checksum-free) loader
         rather than refusing the directory *)
      let report = Storage.Persist.load_report ~dir () in
      no_corruption report;
      Alcotest.(check (list string))
        "both relations still load" [ "R"; "S" ]
        (List.map fst report.Storage.Persist.statuses))

let test_wal_replay_exactness () =
  (* the delta of two states replays the exact minimal representation *)
  let states = committed_states () in
  let last = states.(Array.length states - 1) in
  with_temp_dir (fun dir ->
      populated_dir dir;
      (* no checkpoint since open: the journal alone must rebuild it *)
      let report = Storage.Persist.load_report ~dir () in
      Alcotest.(check bool)
        "journal replay reproduces the final catalog exactly" true
        (catalogs_equal report.Storage.Persist.catalog last);
      List.iter
        (fun (name, status) ->
          match status with
          | Storage.Persist.Recovered n ->
              Alcotest.(check bool)
                (name ^ " replayed at least one record") true (n > 0)
          | Storage.Persist.Ok -> ()
          | Storage.Persist.Corrupt reason ->
              Alcotest.failf "%s quarantined: %s" name reason)
        report.Storage.Persist.statuses)

(* A checksum-valid record whose delta leaves a duplicate key cannot be
   folded into the composed tail: recovery replays that relation op by
   op, skips the offending record with a note naming its LSN, and still
   applies the valid record after it. *)
let test_duplicate_key_record_noted () =
  with_temp_dir (fun dir ->
      let schema =
        Schema.make ~key:[ "K" ] "T" [ ("K", Domain.Ints); ("V", Domain.Ints) ]
      in
      let row k v = Tuple.of_strings [ ("K", Value.Int k); ("V", Value.Int v) ] in
      let cat =
        Storage.Catalog.add Storage.Catalog.empty schema (Xrel.of_list [ row 1 1 ])
      in
      Storage.Persist.save ~dir cat;
      let append lsn t =
        Storage.Wal.append ~io:Storage.Io.real ~dir
          {
            Storage.Wal.lsn;
            ops =
              [
                Storage.Wal.Change
                  { rel = "T"; added = Xrel.of_list [ t ]; removed = Xrel.bottom };
              ];
          }
      in
      append 1 (row 1 2);
      append 2 (row 2 5);
      let report = Storage.Persist.load_report ~dir () in
      Alcotest.(check (option string))
        "the note names the offending record"
        (Some "replaying lsn 1 left T violating its schema")
        report.Storage.Persist.journal_note;
      Alcotest.(check int) "recovered up to the valid record" 2
        report.Storage.Persist.lsn;
      Alcotest.(check bool) "only the valid record counts" true
        (report.Storage.Persist.statuses = [ ("T", Storage.Persist.Recovered 1) ]);
      Alcotest.(check bool) "the duplicate is absent, the valid row present"
        true
        (Xrel.equal
           (Storage.Catalog.relation report.Storage.Persist.catalog "T")
           (Xrel.of_list [ row 1 1; row 2 5 ])))

(* Two sessions append to T from one snapshot: (K = 1), then the more
   informative (K = 1, V = 2). The second commit merges onto the first,
   and the insert discipline evicts (K = 1) although its journal record,
   cut against the older snapshot, names no removal. A later delete of
   (K = 1, V = 2) must not let recovery resurrect (K = 1): that tail is
   not a chain of exact net deltas, so it replays op by op. *)
let test_merged_eviction_not_resurrected () =
  with_temp_dir (fun dir ->
      let schema = Schema.make "T" [ ("K", Domain.Ints); ("V", Domain.Ints) ] in
      Storage.Persist.save ~dir
        (Storage.Catalog.add Storage.Catalog.empty schema Xrel.bottom);
      let eng, _ = Session.open_engine ~dir () in
      let s1 = Session.attach eng and s2 = Session.attach eng in
      ignore (Session.exec_string s1 "append to T (K = 1)");
      ignore (Session.exec_string s2 "append to T (K = 1, V = 2)");
      Session.submit s1;
      Session.submit s2;
      ignore (Session.await s1);
      ignore (Session.await s2);
      ignore (Session.exec_string s1 "range of t is T delete t where t.V = 2");
      ignore (Session.commit s1);
      let committed = (Session.engine_snapshot eng).Session.catalog in
      let report = Storage.Persist.load_report ~dir () in
      Session.shutdown eng;
      Alcotest.(check bool) "nothing committed survives in T" true
        (Xrel.is_empty (Storage.Catalog.relation committed "T"));
      Alcotest.(check bool) "recovery lands on the committed state" true
        (Xrel.equal
           (Storage.Catalog.relation report.Storage.Persist.catalog "T")
           (Storage.Catalog.relation committed "T"));
      Alcotest.(check bool) "every record replayed" true
        (report.Storage.Persist.statuses = [ ("T", Storage.Persist.Recovered 3) ]))

(* [test/journal_golden/] is a directory the statement-per-record
   journal writer that preceded the session engine left mid-run, with
   p.csv = {(1, 10), (2, 20), (3, 30)}, c.csv = {(1, 5), (2, 6), (3, 7)}
   and d.csv = {(2, 8), (3, 9)}:

     nullrel dml --dir db --load P=p.csv --load C=c.csv --load D=d.csv \
       --key P=K 'constrain fk C (F) to P (K) on delete cascade as fkc' \
       'append to P (K = 4, V = 40)'
     nullrel dml --dir db \
       'constrain fk D (G) to P (K) on delete setnull as fkd' \
       'append to C (F = 4, W = 8)' \
       'range of v is P delete v where v.K = 1' \
       'range of v is P delete v where v.K = 2' \
       'constrain unique C (W) as uw' 'constrain notnull D (X) as nx' \
       'unconstrain uw' 'append to C (F = 9, W = 7)'

   The first run checkpointed at LSN 2 on exit. The second journaled
   one record per statement, LSNs 3 to 9, each delete's cascade and
   set-null ops in firing order after its own, and exited 10 on the
   dangling append, leaving that tail. A session engine must still
   recover it, and carry on numbering from it. *)
let golden_dir = "journal_golden"

let copy_dir ~src ~dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data =
        In_channel.with_open_bin (Filename.concat src f) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          output_string oc data))
    (Sys.readdir src)

let test_golden_journal_recovers () =
  let records, note = Storage.Wal.read ~io:Storage.Io.real ~dir:golden_dir in
  Alcotest.(check (option string)) "the golden tail is clean" None note;
  Alcotest.(check (list (pair int (list string))))
    "one record per statement, cascades in firing order"
    [
      (3, []); (4, [ "C" ]); (5, [ "P"; "C" ]); (6, [ "P"; "C"; "D" ]);
      (7, []); (8, []); (9, []);
    ]
    (List.map
       (fun (r : Storage.Wal.record) ->
         ( r.Storage.Wal.lsn,
           List.filter_map
             (function
               | Storage.Wal.Change c -> Some c.Storage.Wal.rel
               | Storage.Wal.Add_constraint _ | Storage.Wal.Drop_constraint _ ->
                   None)
             r.Storage.Wal.ops ))
       records);
  let row pairs =
    Tuple.of_strings (List.map (fun (a, v) -> (a, Value.Int v)) pairs)
  in
  with_temp_dir (fun dir ->
      copy_dir ~src:golden_dir ~dst:dir;
      let eng, report = Session.open_engine ~dir () in
      Fun.protect
        ~finally:(fun () -> Session.shutdown eng)
        (fun () ->
          Alcotest.(check int) "recovered lsn" 9 report.Storage.Persist.lsn;
          Alcotest.(check (option string)) "no journal note" None
            report.Storage.Persist.journal_note;
          Alcotest.(check bool) "Recovered n counts each relation's records"
            true
            (report.Storage.Persist.statuses
            = Storage.Persist.
                [ ("C", Recovered 3); ("D", Recovered 1); ("P", Recovered 2) ]);
          let cat = committed eng in
          let check name rows =
            Alcotest.check Helpers.xrel name (Xrel.of_list (List.map row rows))
              (Storage.Catalog.relation cat name)
          in
          check "P" [ [ ("K", 3); ("V", 30) ]; [ ("K", 4); ("V", 40) ] ];
          check "C" [ [ ("F", 3); ("W", 7) ]; [ ("F", 4); ("W", 8) ] ];
          check "D" [ [ ("X", 8) ]; [ ("G", 3); ("X", 9) ] ];
          Alcotest.(check (list string))
            "declarations, uw dropped"
            [
              "fk\tfkc\tC\tP\tcascade\tF\tK";
              "fk\tfkd\tD\tP\tsetnull\tG\tK";
              "notnull\tnx\tD\tX";
            ]
            (List.map Constr.def_to_line (Storage.Catalog.constraints cat));
          Alcotest.(check bool) "references intact" true
            (Storage.Catalog.check_references cat = []);
          let sess = Session.attach eng in
          ignore (Session.exec_string sess "append to P (K = 5, V = 50)");
          Alcotest.(check int) "the next commit continues the numbering" 10
            (Session.commit sess)))

let suite =
  [
    Alcotest.test_case "fault matrix: fail-stop" `Slow
      (test_fault_matrix Storage.Io.Fail);
    Alcotest.test_case "fault matrix: truncating crash" `Slow
      (test_fault_matrix Storage.Io.Truncate);
    Alcotest.test_case "fault matrix: torn writes" `Slow
      (test_fault_matrix Storage.Io.Short_write);
    Alcotest.test_case "corrupt csv is quarantined, not fatal" `Quick
      test_corrupt_csv_quarantined;
    Alcotest.test_case "missing data file is quarantined" `Quick
      test_missing_csv_quarantined;
    Alcotest.test_case "garbage journal tail is dropped and reported" `Quick
      test_garbage_journal_tail;
    Alcotest.test_case "torn manifest degrades to legacy load" `Quick
      test_torn_manifest_degrades;
    Alcotest.test_case "journal replay is exact" `Quick
      test_wal_replay_exactness;
    Alcotest.test_case "duplicate-key record is noted with its LSN" `Quick
      test_duplicate_key_record_noted;
    Alcotest.test_case "a merged commit's eviction is not resurrected" `Quick
      test_merged_eviction_not_resurrected;
    Alcotest.test_case "journals of the statement-per-record writer recover"
      `Quick test_golden_journal_recovers;
  ]
