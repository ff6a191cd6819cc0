(* session_read: two sessions cycle a fixed, seeded list of retrieves
   over a [Workload.Gen] database, with a trickle of committed appends
   to TRICKLE, which no retrieve ranges over. Every answer is compared
   with the planner's answer ([Plan.Compile.run]) for the same
   relations, computed during set-up.

   The sessions take turns on one domain (see {!Common.sessions}): list
   entry [i] goes to session [i mod 2], and each session sends its next
   statement only after its previous one returned. *)

open Nullrel
open Common
module Gen = Workload.Gen
module Prng = Workload.Prng

(* Each relation keeps exactly [rows] minimal tuples, a seeded sample of
   a larger minimized draw, so that every seed joins relations of the
   same size. *)
let rows = 100
let spec = { Gen.arity = 4; rows = rows + 20; domain_size = 8; null_density = 0.1 }
let relations = 3

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let sample g x =
  let a = Array.of_list (Xrel.to_list x) in
  shuffle g a;
  Xrel.of_list (Array.to_list (Array.sub a 0 (min rows (Array.length a))))

(* One cycle: [cycle] statements, of which [appends] committed appends
   (5%) and [joins] distinct two-variable retrieves; the rest are
   single-variable retrieves. Join cost varies from query to query
   (about 0.3 of its mean), so the join percentiles are taken over many
   distinct queries, or they would move with the seed; an odd count
   keeps the median inside one query's band. *)
let cycle = 400
let appends = 20
let joins = 199

type entry =
  | Read of {
      cls : string;  (** "scan" (one range variable) or "join" (two). *)
      text : string;
      q : Quel.Ast.query;
      want : Quel.Eval.result;
    }
  | Append

type state = {
  io : Storage.Io.t;
  dir : string;
  eng : Session.engine;
  sesss : Session.t array;
  entries : entry array;
  mutable seq : int;  (** Appends issued so far. *)
  mutable trickle : Tuple.t list;  (** Acknowledged appends. *)
}

let trickle_schema =
  Schema.make "TRICKLE" [ ("SID", Domain.Ints); ("SEQ", Domain.Ints); ("V", Domain.Ints) ]

let a = Attr.make

(* A two-variable equi-join on A1, which every relation indexes. *)
let equi_join g db =
  let rel () = fst (Prng.choose g db) in
  let col () = Printf.sprintf "A%d" (1 + Prng.int g spec.Gen.arity) in
  let x = rel () and y = rel () in
  let on = Quel.Ast.Cmp (Quel.Ast.Attr ("x", col ()), Predicate.Eq, Quel.Ast.Attr ("y", "A1")) in
  let where =
    if Prng.bool g 0.5 then on
    else
      Quel.Ast.And
        (on, Quel.Ast.Cmp (Quel.Ast.Attr ("y", col ()), Predicate.Lt, Quel.Ast.Const (Value.Int (Prng.int g 8))))
  in
  let tx = col () and ty = col () in
  { Quel.Ast.ranges = [ ("x", x); ("y", y) ]; targets = [ ("x", tx); ("y", ty) ]; where = Some where }

(* The fixed list: an append closes every twentieth slot; the
   two-variable retrieves, half of them equi-joins, take seeded places
   among the rest; single-variable ones fill the others. *)
let make_entries g db cat =
  let rec draw want_ranges =
    let q = Workload.Diff.gen_query g db in
    if List.length q.ranges = want_ranges then q else draw want_ranges
  in
  let resolved = Storage.Catalog.to_db cat in
  let read cls q = Read { cls; text = text_of_query q; q; want = Plan.Compile.run resolved q } in
  let is_append i = (i + 1) mod (cycle / appends) = 0 in
  let slots = Array.of_list (List.filter (fun i -> not (is_append i)) (List.init cycle Fun.id)) in
  shuffle g slots;
  let rank = Array.make cycle (-1) in
  Array.iteri (fun r i -> rank.(i) <- r) slots;
  Array.init cycle (fun i ->
      if is_append i then Append
      else if rank.(i) < joins then read "join" (if rank.(i) mod 2 = 0 then draw 2 else equi_join g db)
      else read "scan" (draw 1))

let setup cfg rep =
  let io = Bench_io.default () in
  let g = Prng.create cfg.seed in
  let db = List.map (fun (n, (s, x)) -> (n, (s, sample g x))) (Gen.db g spec relations) in
  let cat =
    List.fold_left (fun c (_, (s, x)) -> Storage.Catalog.add c s x) Storage.Catalog.empty db
  in
  let cat = Storage.Catalog.add cat trickle_schema (Xrel.of_list []) in
  let cat =
    List.fold_left
      (fun c (n, _) -> Storage.Catalog.create_index c n ~kind:"hash" (Attr.Set.singleton (a "A1")))
      cat db
  in
  let dir = fresh_dir cfg (Printf.sprintf "session_read-%d" rep) in
  Storage.Persist.save ~io ~dir cat;
  let eng, _ = Session.open_engine ~io ~dir () in
  let entries = make_entries g db (Session.engine_snapshot eng).catalog in
  let sesss = Array.init sessions (fun _ -> Session.attach eng) in
  { io; dir; eng; sesss; entries; seq = 0; trickle = [] }

(* [best.(j)]: the fastest run of list entry [j] in the window. Each
   entry runs once per cycle, so its fastest run is the one the host
   slowed least (see {!Common.event}). The latency figures are
   percentiles of the two-variable retrieves' fastest runs, and the
   throughput is that of a cycle in which every entry ran at its
   fastest. *)
type acc = {
  scan : samples;
  join : samples;
  commit : samples;
  best : float array;
}

(* Runs list entry [i] on session [i mod 2]. *)
let run_entry st acc i =
  let n = Array.length st.entries in
  let sess = st.sesss.(i mod sessions) in
  match st.entries.(i mod n) with
  | Read r ->
      let t0 = now () in
      (match Trace.stmt ~name:"retrieve" ~tag:r.cls (fun () -> exec sess ~tag:r.cls r.text) with
      | out ->
          let dt = now () -. t0 in
          let join = String.equal r.cls "join" in
          push (if join then acc.join else acc.scan) dt;
          acc.best.(i mod n) <- Float.min acc.best.(i mod n) dt;
          let got = answer out in
          note_rows (Session.snapshot sess).catalog r.q got;
          check ("retrieve answer: " ^ r.text) (same_result got r.want)
      | exception e ->
          attempt ();
          fail ("retrieve: " ^ Printexc.to_string e))
  | Append ->
      let k = i mod sessions in
      st.seq <- st.seq + 1;
      let seq = st.seq in
      let v = if seq mod 2 = 0 then [ (a "V", Value.Int (seq mod 7)) ] else [] in
      let t = Tuple.of_list ([ (a "SID", Value.Int k); (a "SEQ", Value.Int seq) ] @ v) in
      let text =
        Printf.sprintf "append to TRICKLE (SID = %d, SEQ = %d%s)" k seq
          (match v with [] -> "" | _ -> Printf.sprintf ", V = %d" (seq mod 7))
      in
      let t0 = now () in
      guard "trickle append" (fun () ->
          Trace.stmt ~name:"append" ~tag:"append" (fun () ->
              ignore (exec sess ~tag:"append" text);
              ignore (commit sess));
          let dt = now () -. t0 in
          push acc.commit dt;
          acc.best.(i mod n) <- Float.min acc.best.(i mod n) dt;
          st.trickle <- t :: st.trickle;
          check "trickle append" true)

(* Whole cycles of the list, until the first cycle boundary after
   [secs]; [~warm] runs exactly one cycle. *)
let window ?(warm = false) st secs =
  let n = Array.length st.entries in
  let acc = { scan = samples (); join = samples (); commit = samples (); best = Array.make n infinity } in
  let t0 = now () in
  let deadline = t0 +. secs in
  let i = ref 0 and heap = heap () in
  while not (!i > 0 && !i mod n = 0 && (warm || now () >= deadline)) do
    run_entry st acc !i;
    incr i;
    if !i mod n = 0 then sample_heap heap (!i / n) st.eng
  done;
  let wall = now () -. t0 in
  let scan = sorted [ acc.scan ] and join = sorted [ acc.join ] in
  let commit = sorted [ acc.commit ] in
  let reads = Array.length scan + Array.length join in
  let is_join j = match st.entries.(j) with Read r -> String.equal r.cls "join" | Append -> false in
  let best_join = Array.of_list (List.filter is_join (List.init n Fun.id)) |> Array.map (fun j -> acc.best.(j)) in
  Array.sort compare best_join;
  {
    p50 = pct best_join 50.;
    p90 = pct best_join 90.;
    ops_per_s = float (n - appends) /. Array.fold_left ( +. ) 0. acc.best;
    live_mb = heap_mb heap;
    samples = Array.length join;
    nblocks = !i / n;
    extra =
      [
        ("scan_p50_ms", 1e3 *. pct scan 50., "ms");
        ("scan_p99_ms", 1e3 *. pct scan 99., "ms");
        ("join_p50_ms", 1e3 *. pct join 50., "ms");
        ("join_p90_ms", 1e3 *. pct join 90., "ms");
        ("reads_per_s", float reads /. wall, "1/s");
        ("commit_p50_ms", 1e3 *. pct commit 50., "ms");
        ("scan_samples", float (Array.length scan), "count");
        ("join_samples", float (Array.length join), "count");
        ("commit_samples", float (Array.length commit), "count");
      ];
  }

let verify st =
  let cat = (Session.engine_snapshot st.eng).catalog in
  let expected =
    List.map
      (fun (n, (_, x)) -> (n, if String.equal n "TRICKLE" then Xrel.of_list st.trickle else x))
      (Storage.Catalog.to_db cat)
  in
  Common.verify ~io:st.io ~dir:st.dir st.eng ~expected
    ~join:"range of x is R1 range of y is R2 retrieve (x.A2, y.A3) where x.A1 = y.A1"
    ~probe:"append to TRICKLE (SID = 9, SEQ = 1)"

let run cfg =
  env "relations" (Printf.sprintf "%dx%d" relations rows);
  env "arity" (string_of_int spec.Gen.arity);
  env "domain_size" (string_of_int spec.Gen.domain_size);
  env "null_density" (Printf.sprintf "%g" spec.Gen.null_density);
  env "cycle" (Printf.sprintf "%d statements: %d appends, %d two-variable retrieves" cycle appends joins);
  Drive.drive cfg
    ~setup:(fun rep ->
      let st = setup cfg rep in
      (* Warm-up: one cycle of the list, checked like the window. *)
      ignore (window ~warm:true st 0.);
      st)
    ~drop:(fun st -> Session.shutdown st.eng)
    ~window ~verify
