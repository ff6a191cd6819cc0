(* Probe tables are keyed by the probe's non-null attribute set [pi]
   and map a [pi]-restriction (as a canonical binding list) to:
   - [count]: how many indexed tuples agree with it on [pi];
   - [exact]: whether one of them is that restriction itself
     (i.e. its non-null attribute set is exactly [pi]).

   The index is persistent under DML: an immutable [base] of probe
   tables plus a small functional overlay ([added]/[removed]) that
   {!advance} extends without touching the base, so snapshots pinned
   by older catalog entries keep probing their own view. The overlay
   is folded into a fresh base once it outgrows ~sqrt(n); a probe pays
   O(overlay) on top of the hash lookup, which keeps the per-statement
   cost sublinear in the relation size. *)

module Sigmap = Map.Make (Attr.Set)

(* A bucket is mutated only while its table is being built, before the
   table is published; afterwards every probe is a pure read. *)
type bucket = { mutable count : int; mutable exact : bool }

type table = ((Attr.t * Value.t) list, bucket) Hashtbl.t

type base = {
  tuples : Tuple.t list;
  tables : table Sigmap.t Atomic.t;
      (* Published probe tables, keyed by signature. A domain that
         misses builds the table privately and publishes it by
         compare-and-set, so probing is safe from any domain. *)
  (* Built only for DML-style callers ({!advance}, {!mem},
     {!subsumed_within}); pure probe workloads never pay for them.
     [Once] cells, not [Lazy.t]: a catalog shares its indexes with
     every session domain. *)
  set : Tuple.Set.t Once.t;
  size : int Once.t;
}

type t = {
  base : base;
  added : Tuple.t list; (* live, not in base *)
  removed : Tuple.Set.t; (* in base, not live *)
  overlay : int; (* |added| + |removed| *)
  live : Tuple.Set.t Once.t; (* base.set minus removed plus added *)
  sigs : int Sigmap.t Once.t; (* live tuples per non-null signature *)
  size : int Once.t; (* |live| *)
}

let m_builds =
  Obs.Metrics.counter
    ~help:"Subsumption indexes built from scratch (bulk load / oracle path)"
    "nullrel_subsume_index_builds_total"

let m_advances =
  Obs.Metrics.counter
    ~help:"Subsumption indexes advanced by a statement delta"
    "nullrel_subsume_index_advances_total"

let m_compactions =
  Obs.Metrics.counter
    ~help:"Subsumption-index overlay compactions (overlay folded into base)"
    "nullrel_subsume_index_compactions_total"

let sigs_of tuples =
  List.fold_left
    (fun m t ->
      Sigmap.update (Tuple.attrs t)
        (function None -> Some 1 | Some c -> Some (c + 1))
        m)
    Sigmap.empty tuples

let of_base base =
  {
    base;
    added = [];
    removed = Tuple.Set.empty;
    overlay = 0;
    live = base.set;
    sigs = Once.make (fun () -> sigs_of base.tuples);
    size = base.size;
  }

let build rel =
  if !Obs.Metrics.enabled then Obs.Metrics.inc m_builds;
  let tuples = Relation.to_list rel in
  of_base
    {
      tuples;
      tables = Atomic.make Sigmap.empty;
      (* A relation is already the tuple set. *)
      set = Once.of_val (Relation.tuples rel);
      size = Once.make (fun () -> List.length tuples);
    }

let build_table tuples pi : table =
  let tbl = Hashtbl.create (List.length tuples) in
  List.iter
    (fun t ->
      if Tuple.is_total_on pi t then begin
        let r = Tuple.restrict t pi in
        let k = Tuple.to_list r in
        let bucket =
          match Hashtbl.find_opt tbl k with
          | Some b -> b
          | None ->
              let b = { count = 0; exact = false } in
              Hashtbl.add tbl k b;
              b
        in
        bucket.count <- bucket.count + 1;
        if Tuple.equal r t then bucket.exact <- true
      end)
    tuples;
  tbl

let table idx pi =
  let tables = idx.base.tables in
  match Sigmap.find_opt pi (Atomic.get tables) with
  | Some tbl -> tbl
  | None ->
      let tbl = build_table idx.base.tuples pi in
      let rec publish () =
        let seen = Atomic.get tables in
        match Sigmap.find_opt pi seen with
        | Some winner -> winner
        | None ->
            if Atomic.compare_and_set tables seen (Sigmap.add pi tbl seen)
            then tbl
            else publish ()
      in
      publish ()

let prepare idx probes =
  List.iter (fun t -> ignore (table idx (Tuple.attrs t))) probes;
  (* With an overlay the strict probe consults [live]: build it too. *)
  if idx.overlay > 0 then ignore (Once.get idx.live)

let bucket_at idx r =
  let pi = Tuple.attrs r in
  Hashtbl.find_opt (table idx pi) (Tuple.to_list r)

let base_count idx r =
  match bucket_at idx r with Some b -> b.count | None -> 0

(* How the overlay changes the number of indexed tuples subsuming [r]. *)
let overlay_count idx r =
  let plus =
    List.fold_left
      (fun acc t -> if Tuple.more_informative t r then acc + 1 else acc)
      0 idx.added
  in
  Tuple.Set.fold
    (fun t acc -> if Tuple.more_informative t r then acc - 1 else acc)
    idx.removed plus

let count_at idx r =
  if idx.overlay = 0 then base_count idx r
  else base_count idx r + overlay_count idx r

let subsuming_exists idx r = count_at idx r > 0

let strictly_subsuming_exists idx r =
  if idx.overlay = 0 then
    match bucket_at idx r with
    | None -> false
    | Some b -> b.count - (if b.exact then 1 else 0) > 0
  else
    let self = if Tuple.Set.mem r (Once.get idx.live) then 1 else 0 in
    count_at idx r - self > 0

let mem idx t = Tuple.Set.mem t (Once.get idx.live)
let cardinal idx = Once.get idx.size

let subsumed_within idx u =
  let live = Once.get idx.live in
  let au = Tuple.attrs u in
  Sigmap.fold
    (fun pi _count acc ->
      (* A live tuple with signature [pi] strictly below [u] can only
         be [u]'s own [pi]-restriction (canonical forms), so one set
         lookup per distinct signature decides eviction. *)
      if Attr.Set.subset pi au && not (Attr.Set.equal pi au) then begin
        let c = Tuple.restrict u pi in
        if Tuple.Set.mem c live then c :: acc else acc
      end
      else acc)
    (Once.get idx.sigs) []

(* Compaction threshold: the slack keeps tiny relations from
   compacting on every other statement. *)
let compaction_slack = 16

let compact ~live ~sigs ~size =
  if !Obs.Metrics.enabled then Obs.Metrics.inc m_compactions;
  of_base
    {
      tuples = Tuple.Set.elements live;
      tables = Atomic.make Sigmap.empty;
      set = Once.of_val live;
      size = Once.of_val size;
    }
  |> fun idx -> { idx with sigs = Once.of_val sigs }

let advance idx ~added ~removed =
  if !Obs.Metrics.enabled then Obs.Metrics.inc m_advances;
  let live = Once.get idx.live in
  let sigs = Once.get idx.sigs in
  let size = Once.get idx.size in
  let bump delta pi m =
    Sigmap.update pi
      (function
        | None -> if delta > 0 then Some delta else None
        | Some c -> if c + delta <= 0 then None else Some (c + delta))
      m
  in
  (* Removals first, then additions, each gated on the live set, keep
     the invariants: [added] disjoint from base, [removed] inside it. *)
  let a, rm, live, sigs, size =
    List.fold_left
      (fun (a, rm, live, sigs, size) t ->
        if not (Tuple.Set.mem t live) then (a, rm, live, sigs, size)
        else
          let live = Tuple.Set.remove t live
          and sigs = bump (-1) (Tuple.attrs t) sigs
          and size = size - 1 in
          if List.exists (Tuple.equal t) a then
            (List.filter (fun u -> not (Tuple.equal u t)) a, rm, live, sigs, size)
          else (a, Tuple.Set.add t rm, live, sigs, size))
      (idx.added, idx.removed, live, sigs, size)
      removed
  in
  let a, rm, live, sigs, size =
    List.fold_left
      (fun (a, rm, live, sigs, size) t ->
        if Tuple.Set.mem t live then (a, rm, live, sigs, size)
        else
          let live = Tuple.Set.add t live
          and sigs = bump 1 (Tuple.attrs t) sigs
          and size = size + 1 in
          if Tuple.Set.mem t rm then (a, Tuple.Set.remove t rm, live, sigs, size)
          else (t :: a, rm, live, sigs, size))
      (a, rm, live, sigs, size) added
  in
  let overlay = List.length a + Tuple.Set.cardinal rm in
  if overlay > compaction_slack + int_of_float (sqrt (float_of_int size)) then
    compact ~live ~sigs ~size
  else
    {
      idx with
      added = a;
      removed = rm;
      overlay;
      live = Once.of_val live;
      sigs = Once.of_val sigs;
      size = Once.of_val size;
    }

let admit idx t =
  if Tuple.is_null_tuple t || subsuming_exists idx t then None
  else
    let dead = subsumed_within idx t in
    Some (advance idx ~added:[ t ] ~removed:dead, dead)

let to_list idx =
  if idx.overlay = 0 then idx.base.tuples
  else Tuple.Set.elements (Once.get idx.live)

let diff r1 r2 =
  let idx = build r2 in
  Relation.filter (fun r -> not (subsuming_exists idx r)) r1

let minimize rel =
  let idx = build rel in
  Relation.filter
    (fun r ->
      (not (Tuple.is_null_tuple r)) && not (strictly_subsuming_exists idx r))
    rel
