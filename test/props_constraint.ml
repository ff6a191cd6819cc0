(* Property tests: the constraint subsystem as a random-schedule model
   check — the TLA+ MQDBConstraints actions (AddUniqueConstraint,
   AddNotNull, AddFK*, CascadeSet) driven by seeded schedules. After
   every committed transaction — including crash-recovery replays and
   concurrent-session schedules — the declared unique / not-null
   invariants hold and check_references is empty; an interrupted
   cascade leaves no partial effects. *)

open Nullrel
open Qgen

let seed_arb = QCheck.int_bound 1_000_000

let temp_counter = ref 0

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nullrel_pconstr_%d_%d" (Unix.getpid ()) !temp_counter)
  in
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------ the invariants ----------------------- *)

let tuples_of cat name =
  Tuple.Set.elements (Relation.tuples (Xrel.rep (Storage.Catalog.relation cat name)))

let total_on t attrs = List.for_all (fun a -> Tuple.get t a <> Value.Null) attrs

(* No two tuples of the minimal representation total on the unique
   attributes carry the same values — UniqueOk with NullVal vacuous. *)
let unique_invariant cat =
  List.for_all
    (function
      | Constr.Unique { rel; attrs; _ } when Storage.Catalog.mem cat rel ->
          let keys =
            List.filter_map
              (fun t ->
                if total_on t attrs then
                  Some (List.map (fun a -> Tuple.get t a) attrs)
                else None)
              (tuples_of cat rel)
          in
          List.length keys = List.length (List.sort_uniq Stdlib.compare keys)
      | _ -> true)
    (Storage.Catalog.constraints cat)

let not_null_invariant cat =
  List.for_all
    (function
      | Constr.Not_null { rel; attr; _ } when Storage.Catalog.mem cat rel ->
          List.for_all (fun t -> Tuple.get t attr <> Value.Null) (tuples_of cat rel)
      | _ -> true)
    (Storage.Catalog.constraints cat)

let invariants_hold cat =
  Storage.Catalog.check_references cat = []
  && unique_invariant cat && not_null_invariant cat

let catalogs_equal c1 c2 =
  List.equal String.equal (Storage.Catalog.names c1) (Storage.Catalog.names c2)
  && List.for_all
       (fun name ->
         Xrel.equal
           (Storage.Catalog.relation c1 name)
           (Storage.Catalog.relation c2 name))
       (Storage.Catalog.names c1)

(* ------------------- random schedules (in-memory) -------------- *)

(* T(K, V) referenced by R(F, W) referenced by S(G): a two-level
   cascade chain. The FK action on R -> T is drawn per scenario. *)

let ints name cols = Schema.make name (List.map (fun c -> (c, Domain.Ints)) cols)

let base_catalog () =
  let cat =
    Storage.Catalog.add Storage.Catalog.empty (ints "T" [ "K"; "V" ]) Xrel.bottom
  in
  let cat = Storage.Catalog.add cat (ints "R" [ "F"; "W" ]) Xrel.bottom in
  Storage.Catalog.add cat (ints "S" [ "G" ]) Xrel.bottom

let declare cat stmts =
  List.fold_left (fun cat s -> (Dml.exec_string cat s).Dml.catalog) cat stmts

let declarations g =
  let action = Workload.Prng.choose g [ "restrict"; "cascade"; "setnull" ] in
  let always =
    [
      "constrain unique T (K) as uq_t";
      Printf.sprintf "constrain fk R (F) to T (K) on delete %s as fk_rt" action;
    ]
  in
  let chain =
    if Workload.Prng.bool g 0.6 then
      [
        "constrain unique R (W) as uq_r";
        "constrain fk S (G) to R (W) on delete cascade as fk_sr";
      ]
    else []
  in
  let nn = if Workload.Prng.bool g 0.3 then [ "constrain notnull R (W) as nn_r" ] else [] in
  always @ chain @ nn

let domain = 5

let random_statement g =
  let k () = Workload.Prng.int g domain in
  match Workload.Prng.int g 10 with
  | 0 | 1 ->
      if Workload.Prng.bool g 0.2 then Printf.sprintf "append to T (V = %d)" (k ())
      else Printf.sprintf "append to T (K = %d, V = %d)" (k ()) (k ())
  | 2 | 3 ->
      if Workload.Prng.bool g 0.3 then Printf.sprintf "append to R (W = %d)" (k ())
      else Printf.sprintf "append to R (F = %d, W = %d)" (k ()) (k ())
  | 4 -> Printf.sprintf "append to S (G = %d)" (k ())
  | 5 | 6 -> Printf.sprintf "range of v is T delete v where v.K = %d" (k ())
  | 7 -> Printf.sprintf "range of v is R delete v where v.W = %d" (k ())
  | 8 -> Printf.sprintf "range of v is R replace v (F = %d) where v.W = %d" (k ()) (k ())
  | _ -> Printf.sprintf "range of v is T replace v (V = %d) where v.K = %d" (k ()) (k ())

let schedules_preserve_invariants =
  QCheck.Test.make ~count:60
    ~name:"random schedules keep every constraint satisfied" seed_arb
    (fun seed ->
      let g = Workload.Prng.create seed in
      let cat = declare (base_catalog ()) (declarations g) in
      let steps = 4 + Workload.Prng.int g 16 in
      let cat = ref cat in
      let ok = ref (invariants_hold !cat) in
      for _ = 1 to steps do
        let stmt = random_statement g in
        (match Dml.exec_string !cat stmt with
        | out -> cat := out.Dml.catalog
        | exception Constr.Error _ -> () (* aborted: catalog untouched *)
        | exception Storage.Catalog.Violation _ -> ());
        ok := !ok && invariants_hold !cat
      done;
      !ok)

(* ------------- probe-served delete actions = the scan ----------- *)

(* The same random schedule runs twice: once with declared indexes on
   every foreign key's local attributes, so delete actions find the
   references a removal broke by probing them, and once without, so
   they scan. Q(F, H) carries a set-null key to T and a cascading key
   to S, and its set-null key is declared first: deleting T(K = k)
   rewrites Q(F = k, H = k) to Q(H = k) before the cascade T -> R -> S
   reaches S(G = k) and orphans that rewrite within the same closure —
   a tuple only the closure itself added, which no index holds. *)
let q_declarations g =
  [
    "constrain fk Q (F) to T (K) on delete setnull as fk_qt";
    "constrain unique T (K) as uq_t";
    Printf.sprintf "constrain fk R (F) to T (K) on delete %s as fk_rt"
      (Workload.Prng.choose g [ "restrict"; "cascade"; "setnull" ]);
    "constrain unique R (W) as uq_r";
    "constrain fk S (G) to R (W) on delete cascade as fk_sr";
    "constrain fk Q (H) to S (G) on delete cascade as fk_qs";
  ]

let q_population =
  List.concat_map
    (fun k ->
      [
        Printf.sprintf "append to T (K = %d, V = %d)" k k;
        Printf.sprintf "append to R (F = %d, W = %d)" k k;
        Printf.sprintf "append to S (G = %d)" k;
        Printf.sprintf "append to Q (F = %d, H = %d)" k k;
      ])
    [ 0; 1; 2; 3 ]

let q_statement g =
  let k () = Workload.Prng.int g domain in
  match Workload.Prng.int g 8 with
  | 0 -> Printf.sprintf "append to Q (F = %d, H = %d)" (k ()) (k ())
  | 1 -> Printf.sprintf "range of v is Q delete v where v.H = %d" (k ())
  | 2 | 3 -> Printf.sprintf "range of v is T delete v where v.V = %d" (k ())
  | _ -> random_statement g

(* What a statement did, as far as a user or the journal can tell: its
   message and applied deltas, or the refusal (a [restrict] names its
   tuple in the text). *)
let observe cat stmt =
  match Dml.exec_string cat stmt with
  | out -> (out.Dml.catalog, Ok (out.Dml.message, out.Dml.deltas))
  | exception Constr.Error v -> (cat, Error (Constr.to_string v))
  | exception Storage.Catalog.Violation _ -> (cat, Error "schema violation")

let same_outcome o1 o2 =
  match (o1, o2) with
  | Ok (m1, ds1), Ok (m2, ds2) ->
      String.equal m1 m2
      && List.equal
           (fun (d1 : Constr.delta) (d2 : Constr.delta) ->
             String.equal d1.d_rel d2.d_rel
             && Tuple.Set.equal d1.d_added d2.d_added
             && Tuple.Set.equal d1.d_removed d2.d_removed)
           ds1 ds2
  | Error e1, Error e2 -> String.equal e1 e2
  | Ok _, Error _ | Error _, Ok _ -> false

(* A seed's schedule: the index kind, the catalog without indexes and
   with one on every foreign key's local attributes, the set-up
   statements and the statements under test. *)
let q_schedule seed =
  let g = Workload.Prng.create seed in
  let kind = Workload.Prng.choose g [ "hash"; "range" ] in
  let scanned =
    Storage.Catalog.add (base_catalog ()) (ints "Q" [ "F"; "H" ]) Xrel.bottom
  in
  let probed =
    List.fold_left
      (fun cat (rel, a) ->
        Storage.Catalog.create_index cat rel ~kind
          (Attr.Set.singleton (Attr.make a)))
      scanned
      [ ("R", "F"); ("S", "G"); ("Q", "F"); ("Q", "H") ]
  in
  let setup = q_declarations g @ q_population in
  let stmts = List.init (4 + Workload.Prng.int g 12) (fun _ -> q_statement g) in
  (kind, scanned, probed, setup, stmts)

let probe_served_equals_scan =
  QCheck.Test.make ~count:80
    ~name:"probe-served delete actions = the scan" seed_arb
    (fun seed ->
      let _, scanned, probed, setup, stmts = q_schedule seed in
      let step (c1, c2, ok) stmt =
        let c1, o1 = observe c1 stmt and c2, o2 = observe c2 stmt in
        (c1, c2, ok && same_outcome o1 o2 && catalogs_equal c1 c2)
      in
      let c1 = declare scanned setup and c2 = declare probed setup in
      let _, _, ok = List.fold_left step (c1, c2, catalogs_equal c1 c2) stmts in
      ok)

(* ------------- statement outcomes pinned byte for byte ---------- *)

(* Every statement of the schedules of seeds 1-40, set-up included, as
   its message and net deltas or its refusal, one block per seed. The
   rendering must match [constraint_golden/outcomes.txt] both with the
   indexes and without them. *)
let render_outcomes ~probed_side =
  let b = Buffer.create 65_536 in
  let tuples sign set =
    Tuple.Set.iter
      (fun t -> Printf.bprintf b "  %s %s\n" sign (Pp.to_string Tuple.pp t))
      set
  in
  for seed = 1 to 40 do
    let kind, scanned, probed, setup, stmts = q_schedule seed in
    Printf.bprintf b "seed %d (%s)\n" seed kind;
    let cat = if probed_side then probed else scanned in
    ignore
      (List.fold_left
         (fun cat stmt ->
           Printf.bprintf b "> %s\n" stmt;
           let cat, outcome = observe cat stmt in
           (match outcome with
           | Ok (message, deltas) ->
               Printf.bprintf b "ok %s\n" message;
               List.iter
                 (fun (d : Constr.delta) ->
                   Printf.bprintf b " %s\n" d.d_rel;
                   tuples "-" d.d_removed;
                   tuples "+" d.d_added)
                 deltas
           | Error e -> Printf.bprintf b "error %s\n" e);
           cat)
         cat (setup @ stmts))
  done;
  Buffer.contents b

let golden_outcomes =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "constraint_golden")
    "outcomes.txt"

let test_outcome_golden () =
  let golden = In_channel.with_open_bin golden_outcomes In_channel.input_all in
  List.iter
    (fun (side, probed_side) ->
      Alcotest.(check string)
        ("outcomes " ^ side ^ " match the golden")
        golden
        (render_outcomes ~probed_side))
    [ ("with indexes", true); ("without indexes", false) ]

(* Declaring over violating data must be refused — the Add*Constraint
   precondition — and refuse without attaching anything. *)
let declaration_precondition =
  QCheck.Test.make ~count:40 ~name:"constraint DDL verifies existing data"
    seed_arb
    (fun seed ->
      let g = Workload.Prng.create seed in
      let k = Workload.Prng.int g domain in
      let dup =
        Xrel.of_list
          [
            Tuple.of_strings [ ("K", Value.Int k); ("V", Value.Int 1) ];
            Tuple.of_strings [ ("K", Value.Int k); ("V", Value.Int 2) ];
          ]
      in
      let dangling =
        Xrel.of_list [ Tuple.of_strings [ ("F", Value.Int (k + 100)); ("W", Value.Int 0) ] ]
      in
      let cat = Storage.Catalog.add (base_catalog ()) (ints "T" [ "K"; "V" ]) dup in
      let cat = Storage.Catalog.add cat (ints "R" [ "F"; "W" ]) dangling in
      let refused stmt =
        match Dml.exec_string cat stmt with
        | _ -> false
        | exception Constr.Error _ -> true
      in
      refused "constrain unique T (K)"
      && refused "constrain fk R (F) to T (K) on delete cascade"
      && (match Dml.exec_string cat "constrain notnull T (K)" with
         (* the duplicate rows are total on K, so notnull is fine *)
         | out -> List.length (Storage.Catalog.constraints out.Dml.catalog) = 1
         | exception Constr.Error _ -> false)
      && Storage.Catalog.constraints cat = [])

(* ---------------- crash drills: interrupted cascades ----------- *)

(* An io that tears the statement's journal append in half once the
   group commit announces it has validated the batch and is about to
   journal it — a torn multi-op cascade record, which recovery must
   drop whole. *)
let tearing base =
  let armed = ref false in
  {
    base with
    Storage.Io.note =
      (fun p ->
        base.Storage.Io.note p;
        if String.equal p "group-commit:validated" then armed := true);
    append_file =
      (fun path contents ->
        if !armed then begin
          armed := false;
          base.Storage.Io.append_file path
            (String.sub contents 0 (String.length contents / 2));
          raise (Storage.Io.Injected_fault "torn mid-cascade append")
        end
        else base.Storage.Io.append_file path contents);
  }

let crash_io mode base =
  match mode with
  | `Before_append -> Storage.Io.crash_at ~point:"group-commit:validated" base
  | `Torn_append -> tearing base
  | `After_append -> Storage.Io.crash_at ~point:"group-commit:fsynced" base

(* Seed a durable directory with the chain schema, constraints and a
   population whose keys all exist, so a delete from T fires a real
   multi-relation cascade. *)
let seed_durable g dir =
  Storage.Persist.save ~dir (base_catalog ());
  Test_durability.with_writer ~checkpoint_every:1000 ~dir (fun _ sess ->
      Test_durability.commit_all sess
        ([
           "constrain unique T (K) as uq_t";
           Printf.sprintf "constrain fk R (F) to T (K) on delete %s as fk_rt"
             (Workload.Prng.choose g [ "cascade"; "setnull" ]);
           "constrain unique R (W) as uq_r";
           "constrain fk S (G) to R (W) on delete cascade as fk_sr";
         ]
        @ List.concat_map
            (fun k ->
              [
                Printf.sprintf "append to T (K = %d, V = %d)" k (k * 10);
                Printf.sprintf "append to R (F = %d, W = %d)" k k;
                Printf.sprintf "append to S (G = %d)" k;
              ])
            [ 0; 1; 2 ]));
  (Storage.Persist.recover ~dir ()).Storage.Persist.catalog

let crash_mid_cascade_invisible =
  QCheck.Test.make ~count:30
    ~name:"a crash mid-cascade is invisible after recovery" seed_arb
    (fun seed ->
      let g = Workload.Prng.create seed in
      let mode =
        Workload.Prng.choose g [ `Before_append; `Torn_append; `After_append ]
      in
      let stmt =
        Printf.sprintf "range of v is T delete v where v.K = %d"
          (Workload.Prng.int g 3)
      in
      with_temp_dir (fun dir ->
          let pre = seed_durable g dir in
          let post =
            match Dml.exec_string pre stmt with
            | out -> out.Dml.catalog
            | exception Constr.Error _ -> pre
          in
          (* run the statement into a modelled crash *)
          (try
             let io = crash_io mode Storage.Io.real in
             Test_durability.with_writer ~io ~checkpoint_every:1000 ~dir
               (fun _ sess -> Test_durability.commit_stmt sess stmt)
           with Storage.Io.Injected_fault _ -> ());
          let report = Storage.Persist.recover ~dir () in
          let recovered = report.Storage.Persist.catalog in
          let landed_on_commit =
            catalogs_equal recovered pre || catalogs_equal recovered post
          in
          (* replaying a second time must change nothing (idempotence) *)
          let again = (Storage.Persist.recover ~dir ()).Storage.Persist.catalog in
          landed_on_commit
          && invariants_hold recovered
          && List.length (Storage.Catalog.constraints recovered) = 4
          && catalogs_equal recovered again))

(* -------------------- concurrent schedules --------------------- *)

(* Two sessions race an insert-into-R against a delete-from-T over a
   shared snapshot; whatever the commit order and FK action, every
   published snapshot satisfies the constraints. *)
let concurrent_schedules_stay_clean =
  QCheck.Test.make ~count:30
    ~name:"concurrent sessions never publish a violating snapshot" seed_arb
    (fun seed ->
      let g = Workload.Prng.create seed in
      let action = Workload.Prng.choose g [ "restrict"; "cascade"; "setnull" ] in
      with_temp_dir (fun dir ->
          let cat =
            declare (base_catalog ())
              [
                "constrain unique T (K) as uq_t";
                Printf.sprintf "constrain fk R (F) to T (K) on delete %s as fk_rt"
                  action;
                "append to T (K = 1, V = 1)";
                "append to T (K = 2, V = 2)";
              ]
          in
          Storage.Persist.save ~dir cat;
          let eng, _ = Session.open_engine ~dir () in
          let a = Session.attach eng in
          let b = Session.attach eng in
          Session.begin_ a;
          Session.begin_ b;
          let stage s stmt =
            match Session.exec_string s stmt with
            | _ -> ()
            | exception Constr.Error _ -> ()
          in
          stage a
            (Printf.sprintf "append to R (F = %d, W = %d)"
               (1 + Workload.Prng.int g 2)
               (Workload.Prng.int g domain));
          stage b
            (Printf.sprintf "range of v is T delete v where v.K = %d"
               (1 + Workload.Prng.int g 2));
          if Workload.Prng.bool g 0.5 then
            stage b
              (Printf.sprintf "append to T (K = %d, V = 9)"
                 (3 + Workload.Prng.int g 2));
          let order = if Workload.Prng.bool g 0.5 then [ a; b ] else [ b; a ] in
          let commit s =
            match Session.commit s with
            | _ -> true
            | exception Session.Session_error.Error _ -> false
          in
          let outcomes = List.map commit order in
          let snap = (Session.engine_snapshot eng).Session.catalog in
          let clean_now = invariants_hold snap in
          Session.shutdown eng;
          (* recovery after the fact sees the same clean state *)
          let re = Storage.Persist.recover ~dir () in
          ignore outcomes;
          clean_now
          && invariants_hold re.Storage.Persist.catalog
          && catalogs_equal re.Storage.Persist.catalog snap))

let suite =
  List.map to_alcotest
    [
      schedules_preserve_invariants;
      declaration_precondition;
      crash_mid_cascade_invisible;
      concurrent_schedules_stay_clean;
      probe_served_equals_scan;
    ]
  @ [
      Alcotest.test_case "statement outcomes match their golden" `Quick
        test_outcome_golden;
    ]
