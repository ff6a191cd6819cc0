(* session_write: two sessions commit small transactions (1-4
   statements) over keys each session owns. PARENT(K, G, V) has the
   primary key K; CHILD(C, K, W) has the primary key C, a hash index on
   K, and a foreign key CHILD(K) -> PARENT(K) that cascades deletes.
   Every transaction is generated against a model of what the session
   has committed; the model is what verification expects back. *)

open Nullrel
open Common
module Prng = Workload.Prng

let a = Attr.make
let i n = Value.Int n

let parent_schema =
  Schema.make ~key:[ "K" ] "PARENT" [ ("K", Domain.Ints); ("G", Domain.Ints); ("V", Domain.Ints) ]

let child_schema =
  Schema.make ~key:[ "C" ] "CHILD" [ ("C", Domain.Ints); ("K", Domain.Ints); ("W", Domain.Ints) ]

let fk =
  Constr.Foreign_key
    { name = "child_parent"; rel = "CHILD"; target = "PARENT"; pairs = [ (a "K", a "K") ]; on_delete = Constr.Cascade }

(* Parents per session start at [band_mid] and are kept between
   [band_lo] and [band_hi]: deletes balance appends. *)
let band_lo = 140
let band_mid = 150
let band_hi = 160

(* What one session has committed. Session [s] owns the keys K and C
   congruent to [s] modulo the number of sessions. *)
type model = {
  mutable parents : (int, int * int option) Hashtbl.t;  (** K -> G, V *)
  mutable children : (int, int * int option) Hashtbl.t;  (** C -> K, W *)
  mutable next_k : int;
  mutable next_c : int;
}

let fresh_key s n = s + (sessions * n)

let parent_tuple k (g, v) =
  Tuple.of_list ([ (a "K", i k); (a "G", i g) ] @ Option.fold ~none:[] ~some:(fun v -> [ (a "V", i v) ]) v)

let child_tuple c (k, w) =
  Tuple.of_list ([ (a "C", i c); (a "K", i k) ] @ Option.fold ~none:[] ~some:(fun w -> [ (a "W", i w) ]) w)

let tuples f tbl = Hashtbl.fold (fun k v acc -> f k v :: acc) tbl []

let expected models =
  let all f pick = Xrel.of_list (List.concat_map (fun m -> tuples f (pick m)) models) in
  [ ("CHILD", all child_tuple (fun m -> m.children)); ("PARENT", all parent_tuple (fun m -> m.parents)) ]

let pick g tbl =
  let n = Hashtbl.length tbl in
  let target = Prng.int g n in
  let r = ref None and j = ref 0 in
  Hashtbl.iter (fun k v -> if !j = target then r := Some (k, v); incr j) tbl;
  Option.get !r

let opt_assign name = function None -> "" | Some v -> Printf.sprintf ", %s = %d" name v

let append_parent g s m =
  let k = fresh_key s m.next_k in
  m.next_k <- m.next_k + 1;
  let pv = (Prng.int g 10, if Prng.bool g 0.5 then Some (Prng.int g 100) else None) in
  Hashtbl.replace m.parents k pv;
  Printf.sprintf "append to PARENT (K = %d, G = %d%s)" k (fst pv) (opt_assign "V" (snd pv))

let append_child g s m =
  let k, _ = pick g m.parents in
  let c = fresh_key s m.next_c in
  m.next_c <- m.next_c + 1;
  let w = if Prng.bool g 0.5 then Some (Prng.int g 100) else None in
  Hashtbl.replace m.children c (k, w);
  Printf.sprintf "append to CHILD (C = %d, K = %d%s)" c k (opt_assign "W" w)

(* One statement against the staged model [m]. *)
let statement g s m =
  let n = Hashtbl.length m.parents in
  let r = Prng.float g in
  if n < band_lo then append_parent g s m
  else if n > band_hi || r < 0.2 then begin
    (* Delete a parent; the foreign key cascades to its children. *)
    let k, _ = pick g m.parents in
    Hashtbl.remove m.parents k;
    Hashtbl.filter_map_inplace (fun _ (k', w) -> if k' = k then None else Some (k', w)) m.children;
    Printf.sprintf "range of p is PARENT delete p where p.K = %d" k
  end
  else if r < 0.4 then append_parent g s m
  else if r < 0.55 then begin
    (* Section 7 refinement: a more informative row for a parent whose
       V is ni evicts the less informative one. *)
    let unrefined = Hashtbl.fold (fun k (g', v) acc -> if v = None then (k, g') :: acc else acc) m.parents [] in
    match unrefined with
    | [] -> append_parent g s m
    | l ->
        let k, g' = List.nth l (Prng.int g (List.length l)) in
        let v = Prng.int g 100 in
        Hashtbl.replace m.parents k (g', Some v);
        Printf.sprintf "append to PARENT (K = %d, G = %d, V = %d)" k g' v
  end
  else if r < 0.75 then append_child g s m
  else if Hashtbl.length m.children = 0 then append_child g s m
  else if r < 0.9 then begin
    let c, (k, w) = pick g m.children in
    let w' = 100 + Prng.int g 100 + Option.value ~default:0 w in
    Hashtbl.replace m.children c (k, Some w');
    Printf.sprintf "range of c is CHILD replace c (W = %d) where c.C = %d" w' c
  end
  else begin
    let c, _ = pick g m.children in
    Hashtbl.remove m.children c;
    Printf.sprintf "range of c is CHILD delete c where c.C = %d" c
  end

(* A transaction of 1-4 statements, staged on a copy of the model: the
   copy replaces the model only once the commit is acknowledged. *)
let transaction g s m =
  let m' = { m with parents = Hashtbl.copy m.parents; children = Hashtbl.copy m.children } in
  let texts = List.init (1 + Prng.int g 4) (fun _ -> statement g s m') in
  (texts, m')

let seed_model g s =
  let m = { parents = Hashtbl.create 256; children = Hashtbl.create 256; next_k = 0; next_c = 0 } in
  for _ = 1 to band_mid do
    ignore (append_parent g s m);
    for _ = 1 to Prng.int g 3 do
      ignore (append_child g s m)
    done
  done;
  m

let seed_catalog models =
  let cat = Storage.Catalog.add Storage.Catalog.empty parent_schema (List.assoc "PARENT" (expected models)) in
  let cat = Storage.Catalog.add cat child_schema (List.assoc "CHILD" (expected models)) in
  let cat = Storage.Catalog.create_index cat "CHILD" ~kind:"hash" (Attr.Set.singleton (a "K")) in
  Storage.Catalog.add_constraint cat fk

type state = {
  io : Storage.Io.t;
  dir : string;
  eng : Session.engine;
  models : model array;
  gens : Prng.t array;
}

(* Stages session [s]'s next transaction and submits it. *)
let stage st sess s =
  let texts, m' = transaction st.gens.(s) s st.models.(s) in
  let id = Trace.new_stmt () in
  let t0 = now () in
  match
    Trace.stmt ~id ~name:"transaction" ~tag:"txn" (fun () ->
        List.iter (fun t -> ignore (exec sess ~tag:"write" t)) texts;
        submit sess)
  with
  | () -> Some (id, t0, m', List.length texts)
  | exception e ->
      Session.rollback sess;
      attempt ();
      fail ("transaction: " ^ Printexc.to_string e);
      None

(* Collects a submitted transaction's outcome: its latency from the
   first statement to the acknowledged commit, and its length. *)
let collect st sess s (id, t0, m', n) =
  match Trace.stmt ~id ~name:"transaction" ~tag:"txn" (fun () -> await sess) with
  | _ ->
      let dt = now () -. t0 in
      st.models.(s) <- m';
      check "transaction" true;
      Some (dt, n)
  | exception e ->
      attempt ();
      fail ("commit: " ^ Printexc.to_string e);
      None

(* One round: session [s] = 0, 1, ... stages and submits its next
   transaction, then each awaits its outcome, so the first await leads
   one group flush for all of them (see {!Common.sessions}). *)
let round st sesss f =
  let staged = Array.mapi (fun s sess -> stage st sess s) sesss in
  Array.iteri
    (fun s p ->
      Option.iter (fun p -> Option.iter (f s) (collect st sesss.(s) s p)) p)
    staged

let setup ?(name = "session_write") cfg rep =
  let io = Bench_io.default () in
  let g = Prng.create cfg.seed in
  let models = Array.init sessions (seed_model g) in
  let dir = fresh_dir cfg (Printf.sprintf "%s-%d" name rep) in
  Storage.Persist.save ~io ~dir (seed_catalog (Array.to_list models));
  let eng, _ = Session.open_engine ~io ~dir () in
  { io; dir; eng; models; gens = Array.init sessions (fun _ -> Prng.split g) }

let window st secs =
  let lat = samples () and stmts = ref 0 and events = ref [] and heap = heap () in
  let sesss = Array.init sessions (fun _ -> Session.attach st.eng) in
  let w0 = Atomic.get Bench_io.written in
  let t0 = now () in
  let deadline = t0 +. secs in
  let rec go () =
    round st sesss (fun _ (dt, n) ->
        push lat dt;
        slice_event events ~t0 ~deadline ~t_end:(now ()) dt;
        stmts := !stmts + n);
    sample_heap heap (int_of_float (now () -. t0)) st.eng;
    if now () < deadline then go ()
  in
  go ();
  let wall = now () -. t0 in
  let lat = sorted [ lat ] in
  let commits = Array.length lat in
  let bytes = Atomic.get Bench_io.written - w0 in
  sliced ~t0 !events heap
    ~extra:
      [
        ("commit_p50_ms", 1e3 *. pct lat 50., "ms");
        ("commit_p99_ms", 1e3 *. pct lat 99., "ms");
        ("commits_per_s", float commits /. wall, "1/s");
        ("write_bytes_per_commit", ratio (float bytes) (float commits), "B");
        ("statements_per_txn", ratio (float !stmts) (float commits), "count");
      ]

let verify st =
  let snap = (Session.engine_snapshot st.eng).catalog in
  check "no conflicts on disjoint keys" ((Session.stats st.eng).conflicts = 0);
  check "committed references intact" (Storage.Catalog.check_references snap = []);
  Array.iteri
    (fun s m -> env (Printf.sprintf "session%d_rows" s)
        (Printf.sprintf "parents=%d children=%d" (Hashtbl.length m.parents) (Hashtbl.length m.children)))
    st.models;
  Common.verify ~io:st.io ~dir:st.dir st.eng
    ~expected:(expected (Array.to_list st.models))
    ~join:"range of p is PARENT range of c is CHILD retrieve (p.G, c.C) where p.K = c.K"
    ~probe:"append to PARENT (K = -1, G = 0)"

let warmup_rounds = 50

let run cfg =
  env "parents_per_session" (Printf.sprintf "%d (kept in %d..%d)" band_mid band_lo band_hi);
  env "transaction" "1-4 statements: appends with and without ni, refining appends, replaces, cascading deletes";
  Drive.drive cfg
    ~setup:(fun rep ->
      let st = setup cfg rep in
      let sesss = Array.init sessions (fun _ -> Session.attach st.eng) in
      for _ = 1 to warmup_rounds do
        round st sesss (fun _ _ -> ())
      done;
      st)
    ~drop:(fun st -> Session.shutdown st.eng)
    ~window ~verify
