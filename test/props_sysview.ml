(* Property tests for the system catalog.

   Two claims from the snapshot-consistency rule (DESIGN §10):

   - Reading [sys_metrics] from another domain while the main domain
     runs parallel hash joins never observes a torn counter: within one
     materialization every cell is read exactly once, so successive
     materializations of any counter series are monotone.

   - [sys_relations] freshness is not its own bookkeeping: under a
     random schedule of loads, appends, analyzes and stat-drops, the
     STATS / STATS_ROWS / ROWS columns agree exactly with
     {!Storage.Catalog.stats_status} and the live cardinality — also
     once the schedule's catalog is checkpointed, more appends are
     journaled, and the directory is reopened without repair, so that
     the counts come from a replayed tail. *)

open Nullrel
open Qgen

let a_ name = Attr.make name

(* ------------- counters monotone under parallel joins ---------- *)

(* Extract every counter series from one fresh materialization. *)
let counter_values () =
  let _, (_, x) = Sysview.sys_metrics () in
  List.filter_map
    (fun t ->
      match
        (Tuple.get t (a_ "NAME"), Tuple.get t (a_ "KIND"),
         Tuple.get t (a_ "VALUE"))
      with
      | Value.Str name, Value.Str "counter", Value.Float v -> Some (name, v)
      | _ -> None)
    (Xrel.to_list x)

let join_input n seed =
  let tup k =
    Tuple.of_strings
      [
        ("ID", Value.Int (k mod (n / 2 + 1)));
        ("PAYLOAD", Value.Int ((k * seed) land 0xffff));
      ]
  in
  Xrel.of_list (List.init n tup)

let monotone_counters =
  QCheck.Test.make ~count:6
    ~name:"sys_metrics counters monotone while parallel joins run"
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 64 256) (int_range 1 1000)))
    (fun (n, seed) ->
      Obs.Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.set_enabled false;
          Obs.Metrics.reset ())
      @@ fun () ->
      let left = join_input n seed and right = join_input n (seed + 1) in
      let stop = Atomic.make false in
      (* The reader samples from a second domain — the materializations
         race against live updates from the join kernels. *)
      let reader =
        Stdlib.Domain.spawn (fun () ->
            let failure = ref None in
            let prev = Hashtbl.create 64 in
            while not (Atomic.get stop) do
              List.iter
                (fun (name, v) ->
                  (match Hashtbl.find_opt prev name with
                  | Some v0 when v < v0 ->
                      failure :=
                        Some
                          (Printf.sprintf "%s went backwards: %g -> %g" name v0
                             v)
                  | _ -> ());
                  Hashtbl.replace prev name v)
                (counter_values ())
            done;
            !failure)
      in
      for _ = 1 to 12 do
        ignore (Algebra.equijoin (Attr.set_of_list [ "ID" ]) left right)
      done;
      Atomic.set stop true;
      match Stdlib.Domain.join reader with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* ------------- freshness agrees with the catalog --------------- *)

type op = Load of int | Append of int | Analyze of int | Drop_stats of int

let rel_name k = Printf.sprintf "PR%d" k

let op_gen =
  QCheck.Gen.(
    map2
      (fun which k ->
        match which with
        | 0 -> Load k
        | 1 -> Append k
        | 2 -> Analyze k
        | _ -> Drop_stats k)
      (int_range 0 3) (int_range 0 2))

let print_op = function
  | Load k -> Printf.sprintf "L%d" k
  | Append k -> Printf.sprintf "+%d" k
  | Analyze k -> Printf.sprintf "A%d" k
  | Drop_stats k -> Printf.sprintf "D%d" k

let arbitrary_schedule =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 1 30) op_gen)

let apply cat step op =
  match op with
  | Load k ->
      let name = rel_name k in
      if Storage.Catalog.mem cat name then cat
      else
        Storage.Catalog.add cat
          (Schema.make name [ ("A", Domain.Ints) ])
          (Xrel.of_list [ Tuple.of_strings [ ("A", Value.Int step) ] ])
  | Append k ->
      let name = rel_name k in
      if not (Storage.Catalog.mem cat name) then cat
      else
        (* through the real write path: marks stats stale *)
        (Dml.exec_string cat (Printf.sprintf "append to %s (A = %d)" name step))
          .Dml.catalog
  | Analyze k ->
      let name = rel_name k in
      if not (Storage.Catalog.mem cat name) then cat
      else
        Storage.Catalog.set_stats cat name
          (Stats.collect ~attrs:[ a_ "A" ]
             (Storage.Catalog.relation cat name))
  | Drop_stats k ->
      let name = rel_name k in
      if Storage.Catalog.mem cat name then Storage.Catalog.clear_stats cat name
      else cat

let agrees cat =
  let _, (_, sys) = Sysview.sys_relations cat in
  let rows = Xrel.to_list sys in
  List.length rows = List.length (Storage.Catalog.names cat)
  && List.for_all
       (fun name ->
         match
           List.find_opt
             (fun t -> Tuple.get t (a_ "NAME") = Value.Str name)
             rows
         with
         | None -> false
         | Some t ->
             let expect_status, expect_srows =
               match Storage.Catalog.stats_status cat name with
               | Storage.Catalog.Fresh tab ->
                   ("fresh", Value.Int tab.Stats.rows)
               | Storage.Catalog.Stale tab ->
                   ("stale", Value.Int tab.Stats.rows)
               | Storage.Catalog.Missing -> ("missing", Value.Null)
             in
             Tuple.get t (a_ "STATS") = Value.Str expect_status
             && Tuple.get t (a_ "STATS_ROWS") = expect_srows
             && Tuple.get t (a_ "ROWS")
                = Value.Int (Xrel.cardinal (Storage.Catalog.relation cat name)))
       (Storage.Catalog.names cat)

(* Checkpoints [cat], journals one append per [Append] of the schedule
   through a session engine (shutting it down does not checkpoint), and
   reopens the directory: the catalog the reopened engine serves, its
   counts replayed from the journal, provided the open needed no repair
   and counts what the writer had. *)
let reopened cat ops =
  Test_durability.with_temp_dir (fun dir ->
      Storage.Persist.save ~dir cat;
      let live =
        Test_durability.with_writer ~checkpoint_every:0 ~dir (fun eng sess ->
            List.iteri
              (fun step op ->
                match op with
                | Append k when Storage.Catalog.mem cat (rel_name k) ->
                    Test_durability.commit_stmt sess
                      (Printf.sprintf "append to %s (A = %d)" (rel_name k)
                         (1000 + step))
                | _ -> ())
              ops;
            Test_durability.committed eng)
      in
      let eng, report = Session.open_engine ~dir () in
      Session.shutdown eng;
      let cat = Test_durability.committed eng in
      if
        report.Storage.Persist.needs_repair
        || List.exists
             (fun name ->
               Storage.Catalog.cardinal cat name
               <> Storage.Catalog.cardinal live name)
             (Storage.Catalog.names live)
      then None
      else Some cat)

let freshness_agrees =
  QCheck.Test.make ~count:100
    ~name:"sys_relations freshness agrees with catalog stamps"
    arbitrary_schedule
    (fun ops ->
      let cat, _ =
        List.fold_left
          (fun (cat, step) op -> (apply cat step op, step + 1))
          (Storage.Catalog.empty, 0)
          ops
      in
      agrees cat
      && match reopened cat ops with Some cat -> agrees cat | None -> false)

let suite = List.map to_alcotest [ monotone_counters; freshness_agrees ]
