(* Property tests for incremental maintenance: random DML schedules
   executed incrementally must land on exactly the catalog the
   full-rewrite reference (the oracle, {!Workload.Full_rewrite})
   produces, and the equi-index
   [advance] must be indistinguishable from a fresh [build]. *)

open Nullrel
open Qgen

let count = 100

let test name arb prop = QCheck.Test.make ~count ~name arb prop

(* --------------- incremental DML = full-rewrite oracle ----------- *)

let seed_catalog () =
  let r = Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints) ] in
  let s =
    Schema.make "S" ~key:[ "K" ]
      [ ("K", Domain.Ints); ("V", Domain.Strings) ]
  in
  Storage.Catalog.add
    (Storage.Catalog.add Storage.Catalog.empty r Xrel.bottom)
    s Xrel.bottom

let stmt_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun a b -> Printf.sprintf "append to R (A = %d, B = %d)" a b)
            (int_range 0 3) (int_range 0 3) );
        (2, map (fun a -> Printf.sprintf "append to R (A = %d)" a) (int_range 0 3));
        (1, map (fun b -> Printf.sprintf "append to R (B = %d)" b) (int_range 0 3));
        ( 2,
          map2
            (fun k v -> Printf.sprintf "append to S (K = %d, V = \"v%d\")" k v)
            (int_range 0 2) (int_range 0 3) );
        ( 2,
          map
            (fun a -> Printf.sprintf "range of r is R delete r where r.A = %d" a)
            (int_range 0 3) );
        ( 2,
          map2
            (fun b a ->
              Printf.sprintf "range of r is R replace r (B = %d) where r.A = %d"
                b a)
            (int_range 0 3) (int_range 0 3) );
        ( 1,
          map
            (fun k -> Printf.sprintf "range of s is S delete s where s.K = %d" k)
            (int_range 0 2) );
      ])

let schedule_gen = QCheck.Gen.(list_size (int_range 1 25) stmt_gen)

let arbitrary_schedule =
  QCheck.make ~print:(String.concat "\n") schedule_gen

(* Execute a whole schedule on one pipeline. Statements that violate a
   constraint leave the catalog unchanged on both pipelines; the exact
   violation lists may differ (the oracle re-checks whole relations,
   the incremental path checks the delta), so outcomes compare
   coarsely: per-statement tag plus the success messages. *)
let run_schedule exec stmts =
  List.fold_left
    (fun (cat, log) stmt ->
      match exec cat (Quel.Parser.parse_statement stmt) with
      | cat, message -> (cat, ("ok: " ^ message) :: log)
      | exception Storage.Catalog.Violation _ -> (cat, "violation" :: log))
    (seed_catalog (), [])
    stmts

let incremental_matches_oracle =
  test "incremental DML schedule = full-rewrite oracle" arbitrary_schedule
    (fun stmts ->
      let cat_inc, log_inc =
        run_schedule
          (fun cat stmt ->
            let o = Dml.exec cat stmt in
            (o.Dml.catalog, o.Dml.message))
          stmts
      in
      let cat_ora, log_ora = run_schedule Workload.Full_rewrite.exec stmts in
      Test_durability.catalogs_equal cat_inc cat_ora
      && List.equal String.equal log_inc log_ora)

(* ---------------- equi-index advance = fresh build --------------- *)

let x_attr = Attr.Set.singleton (Attr.make "A")

let delta_between l1 l2 =
  let removed = List.filter (fun t -> not (List.exists (Tuple.equal t) l2)) l1 in
  let added = List.filter (fun t -> not (List.exists (Tuple.equal t) l1)) l2 in
  (added, removed)

let advance_parity (module I : Storage.Index_intf.S) name =
  let probes_agree i1 i2 probes =
    List.for_all
      (fun t ->
        List.sort Tuple.compare (I.probe i1 t)
        = List.sort Tuple.compare (I.probe i2 t))
      probes
  in
  test name triple_xrel (fun (x1, x2, x3) ->
      (* Two chained statement deltas, so the overlay (and possibly its
         compaction) is exercised, then compare against building from
         the final relation alone. *)
      let l1 = Xrel.to_list x1
      and l2 = Xrel.to_list x2
      and l3 = Xrel.to_list x3 in
      let a12, r12 = delta_between l1 l2 in
      let a23, r23 = delta_between l2 l3 in
      let advanced =
        I.advance
          (I.advance (I.build x_attr x1) ~added:a12 ~removed:r12)
          ~added:a23 ~removed:r23
      in
      let fresh = I.build x_attr x3 in
      I.cardinal advanced = I.cardinal fresh
      && probes_agree advanced fresh (l1 @ l2 @ l3))

let hash_advance_parity =
  advance_parity (module Storage.Hash_index.Equi) "hash advance = fresh build"

let range_advance_parity =
  advance_parity (module Storage.Range_index.Equi) "range advance = fresh build"

(* ---------------- dump . restore = identity --------------------- *)

let dump_restore_parity (module I : Storage.Index_intf.S) name =
  let probes_agree i1 i2 probes =
    List.for_all
      (fun t ->
        List.sort Tuple.compare (I.probe i1 t)
        = List.sort Tuple.compare (I.probe i2 t))
      probes
  in
  test name arbitrary_xrel (fun x ->
      let idx = I.build x_attr x in
      let arr = Array.of_list (Xrel.to_list x) in
      let pos t =
        let rec go i =
          if i >= Array.length arr then None
          else if Tuple.equal arr.(i) t then Some i
          else go (i + 1)
        in
        go 0
      in
      match I.dump idx ~pos with
      | None -> false (* [pos] is total here, so dump must succeed *)
      | Some lines -> (
          match I.restore x_attr arr lines with
          | None -> false
          | Some restored ->
              I.cardinal restored = I.cardinal idx
              && probes_agree restored idx (Array.to_list arr)))

let hash_dump_restore =
  dump_restore_parity (module Storage.Hash_index.Equi)
    "hash dump . restore = id"

let range_dump_restore =
  dump_restore_parity (module Storage.Range_index.Equi)
    "range dump . restore = id"

let suite =
  List.map to_alcotest
    [
      incremental_matches_oracle;
      hash_advance_parity;
      range_advance_parity;
      hash_dump_restore;
      range_dump_restore;
    ]
