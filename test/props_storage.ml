(* Property tests: the storage substrate — serialization roundtrips and
   index/operator agreement on random data. *)

open Nullrel
open Qgen

let count = 200

let test name arb prop = QCheck.Test.make ~count ~name arb prop

let attrs = List.map Attr.make universe_attrs

let csv_roundtrip =
  test "CSV write . read = id" arbitrary_xrel (fun x1 ->
      let _, back = Storage.Csv.read_string (Storage.Csv.write_string attrs x1) in
      Xrel.equal x1 back)

let binary_roundtrip =
  test "binary encode . decode = id" arbitrary_xrel (fun x1 ->
      Xrel.equal x1 (Storage.Binary.decode (Storage.Binary.encode x1)))

(* Strings that stress the CSV quoting rules. *)
let tricky_string_gen =
  QCheck.Gen.(
    oneofl
      [ "plain"; "a,b"; "say \"hi\""; "line\nbreak"; "-"; ""; "trailing,";
        "\"quoted\""; "semi;colon"; "sp ace"; "car\rriage"; "crlf\r\nend" ])

let tricky_xrel_gen =
  QCheck.Gen.(
    map
      (fun cells ->
        Xrel.of_list
          (List.map
             (fun (a, b) ->
               Tuple.of_strings [ ("A", Value.Str a); ("B", Value.Str b) ])
             cells))
      (list_size (int_range 0 6) (pair tricky_string_gen tricky_string_gen)))

let arbitrary_tricky =
  QCheck.make ~print:(Pp.to_string Xrel.pp) tricky_xrel_gen

let csv_quoting_roundtrip =
  test "CSV roundtrips hostile strings" arbitrary_tricky (fun x1 ->
      let cols = [ Attr.make "A"; Attr.make "B" ] in
      let _, back = Storage.Csv.read_string (Storage.Csv.write_string cols x1) in
      Xrel.equal x1 back)

let binary_tricky_roundtrip =
  test "binary roundtrips hostile strings" arbitrary_tricky (fun x1 ->
      Xrel.equal x1 (Storage.Binary.decode (Storage.Binary.encode x1)))

let int_extremes_gen =
  QCheck.Gen.(
    map
      (fun ns ->
        Xrel.of_list
          (List.mapi
             (fun k n ->
               Tuple.of_strings [ ("K", Value.Int k); ("N", Value.Int n) ])
             ns))
      (list_size (int_range 0 5)
         (oneofl [ 0; 1; -1; max_int; min_int; 0x7fffffff; -0x80000000 ])))

let binary_int_extremes =
  test "binary roundtrips integer extremes"
    (QCheck.make ~print:(Pp.to_string Xrel.pp) int_extremes_gen) (fun x1 ->
      Xrel.equal x1 (Storage.Binary.decode (Storage.Binary.encode x1)))

let hash_index_diff_agrees =
  test "indexed diff = naive diff" pair_xrel (fun (x1, x2) ->
      Relation.equal
        (Subsume_index.diff (Xrel.rep x1) (Xrel.rep x2))
        (Xrel.rep (Xrel.diff x1 x2)))

let hash_index_minimize_agrees =
  test "indexed minimize = naive minimize" arbitrary_relation (fun r ->
      Relation.equal (Subsume_index.minimize r) (Relation.minimize r))

let hash_index_x_mem_agrees =
  test "indexed x_mem = naive x_mem"
    (QCheck.pair arbitrary_tuple arbitrary_relation) (fun (t, r) ->
      Subsume_index.subsuming_exists (Subsume_index.build r) t
      = Relation.x_mem t r)

let persist_schema_roundtrip =
  (* schemas drawn from a few shapes *)
  let schema_gen =
    QCheck.Gen.(
      map2
        (fun pick_key cols ->
          let cols =
            List.mapi
              (fun k d -> (Printf.sprintf "C%d" k, d))
              (List.filteri (fun k _ -> k < 4) cols)
          in
          match cols with
          | [] -> Schema.make "R" [ ("C0", Domain.Ints) ]
          | (first, _) :: _ ->
              Schema.make "R" ~key:(if pick_key then [ first ] else []) cols)
        bool
        (list_size (int_range 1 4)
           (oneofl
              [
                Domain.Ints; Domain.Floats; Domain.Strings; Domain.Bools;
                Domain.Int_range (-5, 17); Domain.Enum [ "x"; "y z" ];
              ])))
  in
  test "schema serialization roundtrips"
    (QCheck.make ~print:Storage.Persist.schema_to_string schema_gen)
    (fun schema ->
      let text = Storage.Persist.schema_to_string schema in
      String.equal text
        (Storage.Persist.schema_to_string (Storage.Persist.schema_of_string text)))

(* The probe-equijoin fast path: with hits disjoint from the probe
   side's scope (the compiled cross-scope join) the output skips
   minimization; with a shared join column it is minimized. Both equal
   the minimizing logical operator. *)
let probe_equijoin_fast_path =
  let relabel mapping x =
    Xrel.of_list (List.map (Tuple.rename mapping) (Xrel.to_list x))
  in
  let a = Attr.make "A" and c = Attr.make "C" in
  let probe_on key_in key_out r2 t1 =
    match Tuple.get t1 key_in with
    | Value.Null -> []
    | v -> List.filter (fun t2 -> Value.equal (Tuple.get t2 key_out) v) (Xrel.to_list r2)
  in
  test "probe-equijoin = minimized join" pair_xrel (fun (x1, x2) ->
      (* r1 over A, B; r2 over C, D, E *)
      let r2 =
        relabel
          (List.map (fun (o, n) -> (Attr.make o, Attr.make n))
             [ ("A", "C"); ("B", "D"); ("C", "E") ])
          x2
      in
      let r1 = Algebra.project (Attr.set_of_list [ "A"; "B" ]) x1 in
      let cross =
        Storage.Join.probe_equijoin ~probe:(probe_on a c r2) r1
      in
      let shared = Storage.Join.probe_equijoin ~probe:(probe_on a a x2) x1 in
      Xrel.equal cross
        (Algebra.select (Predicate.Cmp_attrs (a, Predicate.Eq, c))
           (Algebra.product r1 r2))
      && Relation.is_minimal (Xrel.rep cross)
      && Xrel.equal shared (Algebra.equijoin (Attr.Set.singleton a) x1 x2))

(* ---------------- crash-recovery round-trips ------------------ *)

(* A randomized version of the durability matrix: a random catalog, a
   random workload, a random crash point, then recovery must land on a
   committed state. Driven by the workload generator's PRNG so failures
   reproduce from the printed seed. *)

let durability_spec =
  { Workload.Gen.arity = 3; rows = 5; domain_size = 4; null_density = 0.25 }

let temp_counter = ref 0

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nullrel_props_%d_%d" (Unix.getpid ()) !temp_counter)
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let random_statement g =
  let spec = durability_spec in
  let render_tuple t =
    let cells =
      List.filter_map
        (fun a ->
          match Tuple.get t a with
          | Value.Null -> None
          | v -> Some (Printf.sprintf "%s = %s" (Attr.name a) (Value.to_string v)))
        (Workload.Gen.attrs spec)
    in
    if cells = [] then "A1 = 0" else String.concat ", " cells
  in
  match Workload.Prng.int g 4 with
  | 0 | 1 -> Printf.sprintf "append to R (%s)" (render_tuple (Workload.Gen.tuple g spec))
  | 2 ->
      Printf.sprintf "range of v is R delete v where v.A1 = %d"
        (Workload.Prng.int g spec.Workload.Gen.domain_size)
  | _ ->
      Printf.sprintf "range of v is R replace v (A2 = %d) where v.A1 = %d"
        (Workload.Prng.int g spec.Workload.Gen.domain_size)
        (Workload.Prng.int g spec.Workload.Gen.domain_size)

let random_scenario seed =
  let g = Workload.Prng.create seed in
  let schema =
    Schema.make "R"
      (List.map
         (fun a -> (Attr.name a, Domain.Ints))
         (Workload.Gen.attrs durability_spec))
  in
  let cat =
    Storage.Catalog.add Storage.Catalog.empty schema
      (Workload.Gen.xrel g durability_spec)
  in
  let stmts = List.init (1 + Workload.Prng.int g 6) (fun _ -> random_statement g) in
  let fault =
    Workload.Prng.choose g Storage.Io.[ Fail; Truncate; Short_write ]
  in
  (g, cat, stmts, fault)

let with_writer = Test_durability.with_writer
let commit_stmt = Test_durability.commit_stmt
let commit_all = Test_durability.commit_all
let committed = Test_durability.committed

let catalogs_equal c1 c2 =
  List.equal String.equal (Storage.Catalog.names c1) (Storage.Catalog.names c2)
  && List.for_all
       (fun name ->
         Xrel.equal
           (Storage.Catalog.relation c1 name)
           (Storage.Catalog.relation c2 name))
       (Storage.Catalog.names c1)

let save_fault_recover_roundtrips =
  QCheck.Test.make ~count:30 ~name:"save . fault . recover lands on a commit"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, cat, stmts, fault = random_scenario seed in
      let checkpoint_every = 1 + Workload.Prng.int g 4 in
      (* committed states, with the real filesystem *)
      let states =
        with_temp_dir (fun dir ->
            Storage.Persist.save ~dir cat;
            with_writer ~checkpoint_every ~dir (fun eng sess ->
                let states =
                  List.fold_left
                    (fun states stmt ->
                      commit_stmt sess stmt;
                      committed eng :: states)
                    [ committed eng ] stmts
                in
                Array.of_list (List.rev states)))
      in
      let total =
        with_temp_dir (fun dir ->
            Storage.Persist.save ~dir cat;
            let io, ops = Storage.Io.counting Storage.Io.real in
            with_writer ~io ~checkpoint_every ~dir (fun _ sess ->
                commit_all sess stmts);
            ops ())
      in
      (* A schedule with no effective write performs no operation. *)
      let after = if total = 0 then 0 else Workload.Prng.int g total in
      with_temp_dir (fun dir ->
          Storage.Persist.save ~dir cat;
          let io = Storage.Io.faulty ~fault ~after Storage.Io.real in
          let completed = ref 0 in
          (try
             with_writer ~io ~checkpoint_every ~dir (fun _ sess ->
                 commit_all ~completed sess stmts)
           with Storage.Io.Injected_fault _ -> ());
          let report = Storage.Persist.recover ~dir () in
          let clean =
            List.for_all
              (fun (_, status) ->
                match status with
                | Storage.Persist.Corrupt _ -> false
                | _ -> true)
              report.Storage.Persist.statuses
          in
          clean
          && (catalogs_equal report.Storage.Persist.catalog states.(!completed)
             || !completed + 1 < Array.length states
                && catalogs_equal report.Storage.Persist.catalog
                     states.(!completed + 1))))

let wal_delta_apply_exact =
  QCheck.Test.make ~count:100 ~name:"wal delta . apply = update"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Workload.Prng.create seed in
      let spec = durability_spec in
      let schema =
        Schema.make "R"
          (List.map (fun a -> (Attr.name a, Domain.Ints)) (Workload.Gen.attrs spec))
      in
      let before = Workload.Gen.xrel g spec in
      let after = Workload.Gen.xrel g spec in
      let cat = Storage.Catalog.add Storage.Catalog.empty schema before in
      let record = Storage.Wal.delta ~lsn:1 ~rel:"R" ~before ~after in
      let cat' = Storage.Wal.apply cat record in
      Xrel.equal (Storage.Catalog.relation cat' "R") after)

(* A WAL record torn mid-append must be dropped whole on recovery —
   even when it carries a multi-relation cascade — and replaying the
   journal a second time must be a no-op. *)
let torn_cascade_replay_idempotent =
  QCheck.Test.make ~count:25 ~name:"torn mid-cascade record drops whole"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Workload.Prng.create seed in
      with_temp_dir (fun dir ->
          let ints name cols =
            Schema.make name (List.map (fun c -> (c, Domain.Ints)) cols)
          in
          let cat =
            Storage.Catalog.add Storage.Catalog.empty (ints "T" [ "K" ])
              Xrel.bottom
          in
          let cat =
            Storage.Catalog.add cat (ints "R" [ "F"; "W" ]) Xrel.bottom
          in
          Storage.Persist.save ~dir cat;
          let rows = 1 + Workload.Prng.int g 3 in
          with_writer ~checkpoint_every:1000 ~dir (fun _ sess ->
              commit_all sess
                ("constrain fk R (F) to T (K) on delete cascade as fk_rt"
                :: List.concat_map
                     (fun k ->
                       [
                         Printf.sprintf "append to T (K = %d)" k;
                         Printf.sprintf "append to R (F = %d, W = %d)" k (k + 10);
                       ])
                     (List.init rows Fun.id)));
          let pre = (Storage.Persist.recover ~dir ()).Storage.Persist.catalog in
          (* tear the cascade's journal append in half *)
          let armed = ref false in
          let base = Storage.Io.real in
          let io =
            {
              base with
              Storage.Io.note =
                (fun p ->
                  if String.equal p "group-commit:validated" then armed := true);
              append_file =
                (fun path contents ->
                  if !armed then begin
                    armed := false;
                    base.Storage.Io.append_file path
                      (String.sub contents 0 (String.length contents / 2));
                    raise (Storage.Io.Injected_fault "torn cascade append")
                  end
                  else base.Storage.Io.append_file path contents);
            }
          in
          (try
             with_writer ~io ~checkpoint_every:1000 ~dir (fun _ sess ->
                 commit_stmt sess
                   (Printf.sprintf "range of v is T delete v where v.K = %d"
                      (Workload.Prng.int g rows)))
           with Storage.Io.Injected_fault _ -> ());
          let r1 = Storage.Persist.recover ~dir () in
          let r2 = Storage.Persist.recover ~dir () in
          (* the torn record is invisible: full pre-crash state, no
             partial cascade, and a clean idempotent second replay *)
          catalogs_equal r1.Storage.Persist.catalog pre
          && catalogs_equal r2.Storage.Persist.catalog pre
          && Storage.Catalog.check_references r1.Storage.Persist.catalog = []))

(* ---------- composed replay against the per-record loop ---------- *)

(* Random durable schedules over T(K key, V), R(F, W) and S(G, X), with
   R(F) -> T(K) cascading and S(G) -> T(K) set to null on delete, are
   recovered by [Persist.load_report] and by a test-local oracle: the
   checkpoint loaded with an empty journal, then [Wal.apply_op] folded
   over the records [Wal.read] returns, one operation at a time behind
   the same gates (a change past its relation's checkpoint LSN, DDL past
   the CONSTRAINTS checkpoint). Both must agree on the catalog, every
   status, the journal note, the recovered LSN and the replay counter. *)

let replay_schemas =
  [
    Schema.make ~key:[ "K" ] "T" [ ("K", Domain.Ints); ("V", Domain.Ints) ];
    Schema.make "R" [ ("F", Domain.Ints); ("W", Domain.Ints) ];
    Schema.make "S" [ ("G", Domain.Ints); ("X", Domain.Ints) ];
  ]

let replay_statement g =
  let pick n = Workload.Prng.int g n in
  match pick 14 with
  | 0 | 1 -> Printf.sprintf "append to T (K = %d)" (pick 6)
  | 2 | 3 -> (* refines (K = k) when that is stored *)
      Printf.sprintf "append to T (K = %d, V = %d)" (pick 6) (pick 3)
  | 4 | 5 -> Printf.sprintf "append to R (F = %d, W = %d)" (pick 4) (pick 3)
  | 6 -> Printf.sprintf "append to R (F = %d)" (pick 4)
  | 7 | 8 -> Printf.sprintf "append to S (G = %d, X = %d)" (pick 4) (pick 3)
  | 9 | 10 -> (* cascades into R, sets S(G) to null *)
      Printf.sprintf "range of t is T delete t where t.K = %d" (pick 4)
  | 11 ->
      Printf.sprintf "range of r is R replace r (W = %d) where r.F = %d" (pick 3)
        (pick 4)
  | 12 -> Printf.sprintf "range of s is S delete s where s.X = %d" (pick 3)
  | _ ->
      Workload.Prng.choose g
        [
          "constrain unique R (W) as uq_w"; "unconstrain uq_w";
          "constrain notnull S (X) as nn_x"; "unconstrain nn_x";
        ]

let replay_seed =
  let t k v =
    Tuple.of_strings
      ((("K", Value.Int k) :: Option.to_list (Option.map (fun v -> ("V", Value.Int v)) v)))
  and r f w =
    Tuple.of_strings
      ((("F", Value.Int f) :: Option.to_list (Option.map (fun w -> ("W", Value.Int w)) w)))
  and s g x = Tuple.of_strings [ ("G", Value.Int g); ("X", Value.Int x) ] in
  [
    ("T", [ t 0 None; t 1 (Some 1); t 2 None; t 3 (Some 0) ]);
    ("R", [ r 0 (Some 0); r 1 (Some 1); r 2 None; r 3 (Some 2) ]);
    ("S", [ s 0 0; s 1 1; s 3 2; s 2 1 ]);
  ]

let replay_counter =
  Obs.Metrics.counter ~help:"Journal records replayed during recovery"
    "storage_wal_replayed_total"

(* The report plus how far it moved the replay counter. *)
let counted_load dir =
  let was = Obs.Metrics.is_enabled () in
  Obs.Metrics.set_enabled true;
  let before = Obs.Metrics.counter_value replay_counter in
  let report =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled was)
      (fun () -> Storage.Persist.load_report ~dir ())
  in
  (report, Obs.Metrics.counter_value replay_counter - before)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* The directory's checkpoint, journal emptied, loaded in a copy. *)
let checkpoint_of dir =
  with_temp_dir (fun copy ->
      Sys.mkdir copy 0o755;
      Array.iter
        (fun f ->
          if not (String.equal f "wal") then
            write_file (Filename.concat copy f)
              (read_file (Filename.concat dir f)))
        (Sys.readdir dir);
      write_file (Filename.concat copy "wal") "";
      Storage.Persist.load_report ~dir:copy ())

let oracle ~(base : Storage.Persist.report) ~base_lsn ~ddl_lsn
    (records, tail_note) =
  let open Storage in
  let cat, counts, top, notes, applied =
    List.fold_left
      (fun acc (r : Wal.record) ->
        List.fold_left
          (fun ((cat, counts, top, notes, applied) as acc) op ->
            match op with
            | Wal.Change c when r.Wal.lsn > base_lsn c.Wal.rel -> (
                match Wal.apply_op cat op with
                | cat ->
                    let n = Option.value ~default:0 (List.assoc_opt c.Wal.rel counts) in
                    ( cat,
                      (c.Wal.rel, n + 1) :: List.remove_assoc c.Wal.rel counts,
                      max top r.Wal.lsn,
                      notes,
                      applied + 1 )
                | exception Catalog.Violation _ ->
                    ( cat,
                      counts,
                      top,
                      notes
                      @ [
                          Printf.sprintf
                            "replaying lsn %d left %s violating its schema"
                            r.Wal.lsn c.Wal.rel;
                        ],
                      applied ))
            | Wal.Change _ -> acc
            | (Wal.Add_constraint _ | Wal.Drop_constraint _)
              when r.Wal.lsn > ddl_lsn ->
                (Wal.apply_op cat op, counts, max top r.Wal.lsn, notes, applied + 1)
            | Wal.Add_constraint _ | Wal.Drop_constraint _ -> acc)
          acc r.Wal.ops)
      (base.Persist.catalog, [], base.Persist.lsn, [], 0)
      records
  in
  let statuses =
    List.map
      (fun (name, _) ->
        ( name,
          match List.assoc_opt name counts with
          | Some n -> Persist.Recovered n
          | None -> Persist.Ok ))
      base.Persist.statuses
  in
  let note =
    match Option.to_list tail_note @ notes with
    | [] -> None
    | all -> Some (String.concat "; " all)
  in
  (cat, statuses, top, note, applied)

let same_catalog c1 c2 =
  let open Storage.Catalog in
  catalogs_equal c1 c2
  && List.equal String.equal
       (List.map Constr.def_to_line (constraints c1))
       (List.map Constr.def_to_line (constraints c2))
  && List.equal String.equal (unverified_constraints c1) (unverified_constraints c2)
  && List.for_all
       (fun name -> indexes c1 name = indexes c2 name)
       (names c1)

let agrees_with_oracle ~base ~base_lsn ~ddl_lsn dir =
  let report, replayed = counted_load dir in
  let cat, statuses, lsn, note, applied =
    oracle ~base ~base_lsn ~ddl_lsn (Storage.Wal.read ~io:Storage.Io.real ~dir)
  in
  same_catalog report.Storage.Persist.catalog cat
  && report.Storage.Persist.statuses = statuses
  && report.Storage.Persist.lsn = lsn
  && report.Storage.Persist.journal_note = note
  && replayed = applied

(* Runs a random schedule in [dir]: checkpoints every few commits, then
   optionally a last checkpoint that crashes between its data renames
   and its manifest rename. Returns the gates the oracle needs: each
   relation's checkpoint LSN (a data file the crash left renamed sits
   at the new checkpoint, one it did not at the old) and the
   CONSTRAINTS checkpoint's. *)
let durable_schedule g dir =
  let cat =
    List.fold_left
      (fun cat schema ->
        Storage.Catalog.add cat schema
          (Xrel.of_list (List.assoc (Schema.name schema) replay_seed)))
      Storage.Catalog.empty replay_schemas
  in
  Storage.Persist.save ~dir cat;
  let checkpointed = ref false in
  let base = Storage.Io.real in
  let io =
    {
      base with
      Storage.Io.rename =
        (fun src dst ->
          base.Storage.Io.rename src dst;
          if String.equal (Filename.basename dst) "MANIFEST" then
            checkpointed := true);
    }
  in
  let every = 4 + Workload.Prng.int g 12 in
  let stmts =
    [
      "constrain fk R (F) to T (K) on delete cascade as fk_r";
      "constrain fk S (G) to T (K) on delete setnull as fk_s";
    ]
    @ List.init (8 + Workload.Prng.int g 20) (fun _ -> replay_statement g)
  in
  let (cat_j, j), (cat_k, k) =
    with_writer ~io ~checkpoint_every:every ~dir (fun eng sess ->
        let snap () =
          let s = Session.engine_snapshot eng in
          (s.Session.catalog, s.Session.lsn)
        in
        checkpointed := false;
        let last = ref (snap ()) in
        List.iter
          (fun stmt ->
            (try commit_stmt sess stmt with _ -> ());
            if !checkpointed then begin
              checkpointed := false;
              last := snap ()
            end)
          stmts;
        (!last, snap ()))
  in
  let ddl_lsn =
    if Workload.Prng.bool g 0.5 then j
    else begin
      (* Renames: two per relation, then STATS, CONSTRAINTS, INDEX,
         MANIFEST; the crash lands before the [stop]-th. *)
      let stop = 1 + Workload.Prng.int g 10 in
      let seen = ref 0 and constraints_renamed = ref false in
      let crashing =
        {
          base with
          Storage.Io.rename =
            (fun src dst ->
              incr seen;
              if !seen >= stop then
                raise (Storage.Io.Injected_fault "crash before a rename");
              base.Storage.Io.rename src dst;
              if String.equal (Filename.basename dst) "CONSTRAINTS" then
                constraints_renamed := true);
        }
      in
      (try Storage.Persist.save ~io:crashing ~lsn:k ~dir cat_k
       with Storage.Io.Injected_fault _ -> ());
      if !constraints_renamed then k else j
    end
  in
  let base_lsn rel =
    let schema, x = Storage.Catalog.get cat_j rel in
    if
      String.equal
        (read_file (Filename.concat dir (rel ^ ".csv")))
        (Storage.Csv.write_string (Schema.attrs schema) x)
    then j
    else k
  in
  (base_lsn, ddl_lsn)

let composed_replay_matches_oracle =
  QCheck.Test.make ~count:60 ~name:"composed replay = per-record replay"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Workload.Prng.create seed in
      with_temp_dir (fun dir ->
          let base_lsn, ddl_lsn = durable_schedule g dir in
          agrees_with_oracle ~base:(checkpoint_of dir) ~base_lsn ~ddl_lsn dir))

let torn_replay_matches_oracle =
  QCheck.Test.make ~count:4 ~name:"composed replay = per-record replay, torn at every byte"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Workload.Prng.create seed in
      with_temp_dir (fun dir ->
          let base_lsn, ddl_lsn = durable_schedule g dir in
          let base = checkpoint_of dir in
          let wal = Filename.concat dir "wal" in
          let data = read_file wal in
          List.for_all
            (fun n ->
              write_file wal (String.sub data 0 n);
              agrees_with_oracle ~base ~base_lsn ~ddl_lsn dir)
            (List.init (String.length data + 1) Fun.id)))

(* ------------- live row counts against the relations ------------- *)

type count_op =
  | Delta of string * Tuple.t list * int list
  | Replay of string * Tuple.t list * int list
  | Add of string * Xrel.t
  | Set of string * Xrel.t
  | Remove of string

let count_op_gen =
  let open QCheck.Gen in
  let name = oneofl [ "R"; "S" ] in
  let added = list_size (int_range 0 4) tuple_gen in
  let picks = list_size (int_range 0 3) nat in
  frequency
    [
      (4, map3 (fun n a r -> Delta (n, a, r)) name added picks);
      (2, map3 (fun n a r -> Replay (n, a, r)) name added picks);
      (1, map2 (fun n x -> Add (n, x)) name xrel_gen);
      (1, map2 (fun n x -> Set (n, x)) name xrel_gen);
      (1, map (fun n -> Remove n) name);
    ]

let count_op_print = function
  | Delta (n, a, r) | Replay (n, a, r) ->
      Printf.sprintf "delta %s +%s -#%s" n
        (String.concat " " (List.map tuple_print a))
        (String.concat "," (List.map string_of_int r))
  | Add (n, x) -> Printf.sprintf "add %s %s" n (xrel_print x)
  | Set (n, x) -> Printf.sprintf "set %s %s" n (xrel_print x)
  | Remove n -> "remove " ^ n

(* Every write keeps [Catalog.cardinal] equal to the relation's
   [Xrel.cardinal]. A replayed delta is the net delta an [apply_delta]
   reported, as recovery replays it; removals pick among the stored
   tuples and the added ones, so some are absent and some re-added. *)
let catalog_counts_agree =
  test "catalog row counts = Xrel.cardinal over write schedules"
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map count_op_print ops))
       QCheck.Gen.(list_size (int_range 1 12) count_op_gen))
    (fun ops ->
      let schema name =
        Schema.make name
          (List.map (fun a -> (a, Domain.Int_range (0, 3))) universe_attrs)
      in
      let delta cat name added picks =
        let pool = Xrel.to_list (Storage.Catalog.relation cat name) @ added in
        let removed =
          if pool = [] then []
          else List.map (fun i -> List.nth pool (i mod List.length pool)) picks
        in
        Storage.Catalog.apply_delta cat name ~added ~removed
      in
      let step cat = function
        | (Delta (n, _, _) | Replay (n, _, _) | Set (n, _))
          when not (Storage.Catalog.mem cat n) ->
            Storage.Catalog.add cat (schema n) (Xrel.of_list [])
        | Delta (n, a, r) -> fst (delta cat n a r)
        | Replay (n, a, r) ->
            let _, (added, removed) = delta cat n a r in
            Storage.Catalog.replay_delta cat n
              ~added:(Tuple.Set.elements added)
              ~removed:(Tuple.Set.elements removed)
        | Add (n, x) -> Storage.Catalog.add cat (schema n) x
        | Set (n, x) -> Storage.Catalog.set_relation cat n x
        | Remove n -> Storage.Catalog.remove cat n
      in
      let agree cat =
        List.for_all
          (fun n ->
            Storage.Catalog.cardinal cat n
            = Option.map
                (fun (_, x) -> Xrel.cardinal x)
                (Storage.Catalog.find cat n))
          [ "R"; "S" ]
      in
      let rec go cat = function
        | [] -> true
        | op :: ops ->
            let cat = step cat op in
            agree cat && go cat ops
      in
      go Storage.Catalog.empty ops)

let suite =
  List.map to_alcotest
    [
      csv_roundtrip;
      binary_roundtrip;
      csv_quoting_roundtrip;
      binary_tricky_roundtrip;
      binary_int_extremes;
      hash_index_diff_agrees;
      hash_index_minimize_agrees;
      hash_index_x_mem_agrees;
      probe_equijoin_fast_path;
      persist_schema_roundtrip;
      save_fault_recover_roundtrips;
      wal_delta_apply_exact;
      torn_cascade_replay_idempotent;
      composed_replay_matches_oracle;
      torn_replay_matches_oracle;
      catalog_counts_agree;
    ]
