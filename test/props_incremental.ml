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

(* R(A, B) and S(K, V) with nullable columns; F(K, X) adds a Floats
   column that holds 0.0, -0.0 and nan (no statement can write a nan,
   so the seed does). [indexed] declares a hash index on a non-key
   column of each. *)
let seed_catalog ?(indexed = false) () =
  let r = Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints) ] in
  let s =
    Schema.make "S" ~key:[ "K" ]
      [ ("K", Domain.Ints); ("V", Domain.Strings) ]
  in
  let f =
    Schema.make "F" ~key:[ "K" ] [ ("K", Domain.Ints); ("X", Domain.Floats) ]
  in
  let floats =
    Xrel.of_list
      (List.map
         (fun (k, x) ->
           Tuple.of_strings
             (("K", Value.Int k)
             :: (match x with Some x -> [ ("X", Value.Float x) ] | None -> [])))
         [ (0, Some 0.); (1, Some (-0.)); (2, Some Float.nan); (3, None); (4, Some 1.5) ])
  in
  let cat =
    Storage.Catalog.add
      (Storage.Catalog.add
         (Storage.Catalog.add Storage.Catalog.empty r Xrel.bottom)
         s Xrel.bottom)
      f floats
  in
  if not indexed then cat
  else
    List.fold_left
      (fun cat (rel, a) ->
        Storage.Catalog.create_index cat rel ~kind:"hash"
          (Attr.Set.singleton (Attr.make a)))
      cat
      [ ("R", "A"); ("S", "V"); ("F", "X") ]

(* A qualification over one variable: equalities (most of them), other
   comparisons and comparisons with a constant of another kind, joined
   by [and] chains that may repeat an attribute with the same or a
   different constant, and by [or] and [not]. *)
let qualification eq other =
  QCheck.Gen.(
    let atom = frequency [ (3, eq); (1, other) ] in
    let rec expr d =
      if d = 0 then atom
      else
        frequency
          [
            (3, atom);
            (1, map2 (Printf.sprintf "(%s or %s)") (expr (d - 1)) (expr (d - 1)));
            (1, map (Printf.sprintf "not %s") (expr (d - 1)));
            (1, map2 (Printf.sprintf "(%s and %s)") (expr (d - 1)) (expr (d - 1)));
          ]
    in
    frequency
      [
        (2, eq);
        ( 3,
          map (String.concat " and ")
            (list_size (int_range 2 3) (frequency [ (3, eq); (1, expr 1) ])) );
        (1, expr 2);
      ])

let r_qual =
  QCheck.Gen.(
    qualification
      (oneof
         [
           map (Printf.sprintf "r.A = %d") (int_range 0 3);
           map (Printf.sprintf "r.B = %d") (int_range 0 3);
         ])
      (oneof
         [
           map (Printf.sprintf "r.A < %d") (int_range 0 3);
           map (Printf.sprintf "r.B <> %d") (int_range 0 3);
           return "r.A = r.B";
           return "r.B = \"x\"";
         ]))

let s_qual =
  QCheck.Gen.(
    qualification
      (oneof
         [
           map (Printf.sprintf "s.K = %d") (int_range 0 2);
           map (Printf.sprintf "s.V = \"v%d\"") (int_range 0 3);
         ])
      (oneof
         [
           map (Printf.sprintf "s.K < %d") (int_range 0 3);
           map (Printf.sprintf "s.V = %d") (int_range 0 3);
           return "s.K = 999 and s.V = 3";
         ]))

let float_lit = QCheck.Gen.oneofl [ "0.0"; "-0.0"; "1.5" ]

let f_qual =
  QCheck.Gen.(
    qualification
      (oneof
         [
           map (Printf.sprintf "f.K = %d") (int_range 0 5);
           map (Printf.sprintf "f.X = %s") float_lit;
         ])
      (oneof
         [
           map (Printf.sprintf "f.X < %s") float_lit;
           map (Printf.sprintf "f.X = %d") (int_range 0 1);
         ]))

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
        (1, map (fun k -> Printf.sprintf "append to S (K = %d)" k) (int_range 0 2));
        ( 1,
          map2
            (fun k x -> Printf.sprintf "append to F (K = %d, X = %s)" k x)
            (int_range 0 6) float_lit );
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
        (2, map (Printf.sprintf "range of r is R delete r where %s") r_qual);
        ( 2,
          map2 (Printf.sprintf "range of r is R replace r (B = %d) where %s")
            (int_range 0 3) r_qual );
        (2, map (Printf.sprintf "range of s is S delete s where %s") s_qual);
        ( 1,
          map2 (Printf.sprintf "range of s is S replace s (V = \"v%d\") where %s")
            (int_range 0 3) s_qual );
        (1, map (Printf.sprintf "range of f is F delete f where %s") f_qual);
        ( 1,
          map2 (Printf.sprintf "range of f is F replace f (X = %s) where %s")
            float_lit f_qual );
      ])

let schedule_gen = QCheck.Gen.(list_size (int_range 1 25) stmt_gen)

let arbitrary_schedule =
  QCheck.make ~print:(String.concat "\n") schedule_gen

(* Execute a whole schedule on one pipeline. Statements that violate a
   constraint leave the catalog unchanged on both pipelines; the exact
   violation lists may differ (the oracle re-checks whole relations,
   the incremental path checks the delta), so outcomes compare
   coarsely: per-statement tag plus the success messages. A statement
   whose qualification compares two kinds of value must raise the same
   [Value.Type_error] on both; any other exception fails the
   property. *)
let run_schedule ~indexed exec stmts =
  List.fold_left
    (fun (cat, log) stmt ->
      let statement = Quel.Parser.parse_statement stmt in
      match exec cat statement with
      | cat, message -> (cat, ("ok: " ^ message) :: log)
      | exception Storage.Catalog.Violation _ -> (cat, "violation" :: log)
      | exception (Value.Type_error _ as e) ->
          (cat, ("type error: " ^ Printexc.to_string e) :: log))
    (seed_catalog ~indexed (), [])
    stmts

let index_cardinalities cat =
  List.map (fun rel -> Storage.Catalog.indexes cat rel) (Storage.Catalog.names cat)
  |> List.map (List.map (fun (kind, _, n) -> (kind, n)))

(* Each schedule runs without and with declared hash indexes. *)
let incremental_matches_oracle =
  test "incremental DML schedule = full-rewrite oracle" arbitrary_schedule
    (fun stmts ->
      List.for_all
        (fun indexed ->
          let cat_inc, log_inc =
            run_schedule ~indexed
              (fun cat stmt ->
                let o = Dml.exec cat stmt in
                (o.Dml.catalog, o.Dml.message))
              stmts
          in
          let cat_ora, log_ora =
            run_schedule ~indexed Workload.Full_rewrite.exec stmts
          in
          Test_durability.catalogs_equal cat_inc cat_ora
          && List.equal String.equal log_inc log_ora
          && index_cardinalities cat_inc = index_cardinalities cat_ora)
        [ false; true ])

(* ------------- probed update targets = the scanned ones ------------ *)

(* T(K, V, X, S) over all four kinds but Bools, every column nullable;
   floats among 0.0, -0.0 and nan. *)
let t_schema =
  Schema.make "T"
    [ ("K", Domain.Ints); ("V", Domain.Ints); ("X", Domain.Floats); ("S", Domain.Strings) ]

let t_value col g =
  let open QCheck.Gen in
  match col with
  | "K" | "V" -> Value.Int (int_range 0 3 g)
  | "X" -> Value.Float (oneofl [ 0.; -0.; Float.nan; 1.5 ] g)
  | _ -> Value.Str (oneofl [ "a"; "b" ] g)

let t_tuple =
  QCheck.Gen.(
    fun g ->
      Tuple.of_strings
        (List.filter_map
           (fun col ->
             if int_bound 3 g = 0 then None else Some (col, t_value col g))
           [ "K"; "V"; "X"; "S" ]))

(* A constant for [col]: mostly of its own kind, sometimes of another. *)
let t_const col g =
  let open QCheck.Gen in
  if int_bound 5 g = 0 then
    t_value (oneofl [ "K"; "X"; "S" ] g) g
  else t_value col g

let t_predicate =
  QCheck.Gen.(
    let col = oneofl [ "K"; "V"; "X"; "S" ] in
    let atom g =
      let c = col g in
      match int_bound 5 g with
      | 0 -> Predicate.Cmp_const (Attr.make c, Predicate.Lt, t_const c g)
      | 1 -> Predicate.Cmp_attrs (Attr.make c, Predicate.Eq, Attr.make (col g))
      | _ -> Predicate.Cmp_const (Attr.make c, Predicate.Eq, t_const c g)
    in
    let rec expr d g =
      if d = 0 then atom g
      else
        match int_bound 5 g with
        | 0 -> Predicate.Or (expr (d - 1) g, expr (d - 1) g)
        | 1 -> Predicate.Not (expr (d - 1) g)
        | _ -> Predicate.And (expr (d - 1) g, expr (d - 1) g)
    in
    fun g ->
      (* Mostly an [and] chain with equalities in it, the shape a keyed
         update takes. *)
      if int_bound 3 g = 0 then expr 2 g
      else
        List.fold_left
          (fun p q -> Predicate.And (p, q))
          (atom g)
          (list_size (int_range 0 3) (expr 1) g))

(* One column compared for equality twice, with the same constant or
   another (0.0 and -0.0 are one value, and so is nan with itself),
   before the rest of a predicate. *)
let t_repeated =
  QCheck.Gen.(
    fun g ->
      let c = oneofl [ "K"; "X" ] g in
      let eq () = Predicate.Cmp_const (Attr.make c, Predicate.Eq, t_value c g) in
      let first = eq () in
      let second = eq () in
      Predicate.And (first, Predicate.And (second, t_predicate g)))

(* A keyed delete that also compares an Ints column with a string: a
   probe would answer it without ever meeting the mismatch. *)
let key_and_mistyped =
  Predicate.And
    ( Predicate.Cmp_const (Attr.make "K", Predicate.Eq, Value.Int 999),
      Predicate.Cmp_const (Attr.make "V", Predicate.Eq, Value.Str "x") )

let qualifying_case =
  QCheck.Gen.(
    quad (list_size (int_range 0 12) t_tuple)
      (list_size (int_range 0 6) t_tuple)
      (list_size (int_range 0 4) t_tuple)
      (frequency
         [ (7, t_predicate); (2, t_repeated); (1, return key_and_mistyped) ]))

(* A comparison of two kinds of value is the one exception expected;
   any other fails the property. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception (Value.Type_error _ as e) -> Error (Printexc.to_string e)

(* The relation is loaded, then moved by a delta, so the probe meets
   both a built listing table and an overlay. *)
let qualifying_matches_filter =
  QCheck.Test.make ~count:3000
    ~name:"Catalog.qualifying = Xrel.filter, or the same type error"
    (QCheck.make qualifying_case)
    (fun (rows, added, removed, p) ->
      let cat =
        Storage.Catalog.add Storage.Catalog.empty t_schema (Xrel.of_list rows)
      in
      let agree cat =
        let x = Storage.Catalog.relation cat "T" in
        let expected =
          outcome (fun () -> Xrel.to_list (Xrel.filter (Predicate.holds p) x))
        in
        match (expected, outcome (fun () -> Storage.Catalog.qualifying cat "T" p)) with
        | Ok l, Ok l' -> List.equal Tuple.equal l l'
        | Error e, Error e' -> String.equal e e'
        | _ -> false
      in
      agree cat
      &&
      let removed = removed @ List.filteri (fun i _ -> i mod 3 = 0) rows in
      let cat, _ = Storage.Catalog.apply_delta cat "T" ~added ~removed in
      agree cat)

(* ------- subsumption-index advance = fresh build, compacted ------- *)

(* A relation moved by a run of deltas, each probed before the next, so
   that the tables its probes build are carried through the overlay
   compactions a run this long forces. After every delta each probe
   must answer as an index built from scratch over the same tuples. *)
let subsume_advance_case =
  QCheck.Gen.(
    (* Probes with one or two attributes meet buckets of several
       tuples, and some of them are stored tuples themselves. *)
    let probe =
      map
        (fun t ->
          Tuple.of_list
            (match Tuple.to_list t with
            | b :: c :: _ :: _ -> [ b; c ]
            | bs -> bs))
        t_tuple
    in
    triple (list_size (int_range 0 12) t_tuple)
      (list_size (int_range 1 12)
         (pair (list_size (int_range 0 6) (oneof [ t_tuple; probe ])) (int_range 0 5)))
      (list_size (int_range 1 8) (oneof [ t_tuple; probe ])))

let subsume_advance_matches_build =
  QCheck.Test.make ~count:1000
    ~name:"subsumption advance = fresh build, across compactions"
    (QCheck.make subsume_advance_case)
    (fun (rows, deltas, probes) ->
      let answers idx =
        List.map
          (fun r ->
            ( Subsume_index.count_at idx r,
              Subsume_index.strictly_subsuming_exists idx r,
              Subsume_index.matching idx r ))
          probes
      in
      let same idx =
        let fresh = Subsume_index.build (Relation.of_tuples (Subsume_index.tuples idx)) in
        List.equal
          (fun (c, s, m) (c', s', m') ->
            c = c' && Bool.equal s s' && List.equal Tuple.equal m m')
          (answers idx) (answers fresh)
      in
      let idx = Subsume_index.build (Relation.of_list rows) in
      ignore (answers idx);
      snd
        (List.fold_left
           (fun (idx, ok) (added, drop) ->
             let live = Subsume_index.to_list idx in
             let removed = List.filteri (fun i _ -> i mod (drop + 1) = 0) live in
             let idx = Subsume_index.advance idx ~added ~removed in
             (idx, ok && same idx))
           (idx, true) deltas))

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
      qualifying_matches_filter;
      subsume_advance_matches_build;
      hash_advance_parity;
      range_advance_parity;
      hash_dump_restore;
      range_dump_restore;
    ]
