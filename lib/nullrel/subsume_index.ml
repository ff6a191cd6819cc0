(* Probe tables are keyed by the probe's signature [pi] (its non-null
   attributes) and map a [pi]-restriction, itself a tuple, to:
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

module Sigmap = Tuple.Signature_map

(* Probed, never iterated: the hash order is unobservable. *)
module Probe = Hashtbl.Make (Tuple)

(* A bucket is one immediate int, [2 * count], plus 1 when [exact], so
   an entry costs no block of its own. Buckets change only while their
   table is being built, before it is published; afterwards every probe
   is a pure read. *)
type table = int Probe.t

let count_of bucket = bucket lsr 1
let exact_of bucket = bucket land 1

(* A listing table maps the hash of a [pi]-restriction
   ({!Tuple.hash_on_signature}) to the tuples total on [pi] whose
   restriction hashes to it, in {!Tuple.compare} order. Keyed by the
   hash, it builds and holds no restriction. The hashes whose bucket
   holds tuples of more than one restriction are marked [mixed]; a
   lookup filters only those, and answers any other bucket whole or
   not at all from its head. It is kept apart from the count table of
   the same signature: the key-uniqueness probes and journal replay
   read counts only and never pay for the lists. *)
module Hashes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

type listing = { lists : Tuple.t list Hashes.t; mixed : unit Hashes.t }

(* A published table, and whether a probe has read it since its base
   was made: a compaction carries only the tables read, so a signature
   probed once is dropped at the second compaction after. *)
type 'a slot = { tbl : 'a; read : bool Atomic.t }

type base = {
  set : Tuple.Set.t;
  tables : table slot Sigmap.t Atomic.t;
      (* Published probe tables, keyed by signature. A domain that
         misses builds the table privately and publishes it by
         compare-and-set, so probing is safe from any domain. *)
  listings : listing slot Sigmap.t Atomic.t;  (* The same, for listings. *)
  size : int Once.t;
      (* A [Once] cell, not a [Lazy.t]: a catalog shares its indexes
         with every session domain. *)
}

type t = {
  base : base;
  added : Tuple.t list; (* live, not in base *)
  removed : Tuple.Set.t; (* in base, not live *)
  overlay : int; (* |added| + |removed| *)
  live : Tuple.Set.t; (* base.set minus removed plus added *)
  sigs : int Sigmap.t Once.t;
      (* live tuples per non-null signature; built only for DML-style
         callers ({!advance}, {!subsumed_within}), so pure probe
         workloads never pay for it *)
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

let m_tables =
  Obs.Metrics.counter
    ~help:
      "Subsumption-index probe and listing tables built from a whole base \
       (carried tables are not counted)"
    "nullrel_subsume_index_tables_built_total"

(* Counted in place, then frozen: a persistent update per tuple would
   copy a map path for each. *)
let sigs_of set =
  let counts = ref Sigmap.empty in
  Tuple.Set.iter
    (fun t ->
      let s = Tuple.signature t in
      match Sigmap.find s !counts with
      | c -> incr c
      | exception Not_found -> counts := Sigmap.add s (ref 1) !counts)
    set;
  Sigmap.map ( ! ) !counts

let of_base base =
  {
    base;
    added = [];
    removed = Tuple.Set.empty;
    overlay = 0;
    live = base.set;
    sigs = Once.make (fun () -> sigs_of base.set);
    size = base.size;
  }

let build rel =
  if !Obs.Metrics.enabled then Obs.Metrics.inc m_builds;
  (* A relation is already the tuple set. *)
  let set = Relation.tuples rel in
  of_base
    {
      set;
      tables = Atomic.make Sigmap.empty;
      listings = Atomic.make Sigmap.empty;
      size = Once.make (fun () -> Tuple.Set.cardinal set);
    }

let build_table (base : base) pi : table =
  let tbl = Probe.create (Once.get base.size) in
  Tuple.Set.iter
    (fun t ->
      if Tuple.is_total_on_signature pi t then begin
        let r = Tuple.restrict_signature t pi in
        let bucket =
          match Probe.find tbl r with b -> b | exception Not_found -> 0
        in
        Probe.replace tbl r
          ((bucket + 2) lor (if Tuple.equal r t then 1 else 0))
      end)
    base.set;
  tbl

(* [t], total on [pi], goes into the bucket [l] at [h]: a tuple that
   disagrees with the bucket's head on [pi] marks the bucket mixed. *)
let mark tbl pi h t l =
  match l with
  | u :: _ when not (Tuple.agree_on_signature pi u t) ->
      Hashes.replace tbl.mixed h ()
  | _ -> ()

(* Walking the set from its largest tuple down and consing leaves each
   list in ascending order. *)
let build_listing (base : base) pi : listing =
  let tbl =
    { lists = Hashes.create (Once.get base.size); mixed = Hashes.create 1 }
  in
  Seq.iter
    (fun t ->
      if Tuple.is_total_on_signature pi t then begin
        let h = Tuple.hash_on_signature pi t in
        let l = Option.value (Hashes.find_opt tbl.lists h) ~default:[] in
        mark tbl pi h t l;
        Hashes.replace tbl.lists h (t :: l)
      end)
    (Tuple.Set.to_rev_seq base.set);
  tbl

(* The published table of signature [pi] in [slots], built by [build]
   on a miss, and marked read. *)
let published slots build (base : base) pi =
  match Sigmap.find_opt pi (Atomic.get slots) with
  | Some slot ->
      if not (Atomic.get slot.read) then Atomic.set slot.read true;
      slot.tbl
  | None ->
      if !Obs.Metrics.enabled then Obs.Metrics.inc m_tables;
      let slot = { tbl = build base pi; read = Atomic.make true } in
      let rec publish () =
        let seen = Atomic.get slots in
        match Sigmap.find_opt pi seen with
        | Some winner ->
            Atomic.set winner.read true;
            winner.tbl
        | None ->
            if Atomic.compare_and_set slots seen (Sigmap.add pi slot seen)
            then slot.tbl
            else publish ()
      in
      publish ()

let table idx pi = published idx.base.tables build_table idx.base pi

let prepare idx probes =
  List.iter (fun t -> ignore (table idx (Tuple.signature t))) probes

let bucket_at idx r = Probe.find_opt (table idx (Tuple.signature r)) r

let base_count idx r =
  match bucket_at idx r with Some b -> count_of b | None -> 0

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
    | Some b -> count_of b - exact_of b > 0
  else
    let self = if Tuple.Set.mem r idx.live then 1 else 0 in
    count_at idx r - self > 0

let listing idx pi = published idx.base.listings build_listing idx.base pi

(* The live tuples that agree with [t], total on [pi], on [pi], read
   from [pi]'s listing [tbl] and the overlay. *)
let listed idx tbl pi t =
  let agrees u = Tuple.agree_on_signature pi u t in
  let h = Tuple.hash_on_signature pi t in
  let base =
    match Hashes.find_opt tbl.lists h with
    | Some (u :: _ as l) ->
        if Hashes.mem tbl.mixed h then List.filter agrees l
        else if agrees u then l
        else []
    | Some [] | None -> []
  in
  if idx.overlay = 0 then base
  else
    let kept =
      if Tuple.Set.is_empty idx.removed then base
      else List.filter (fun u -> not (Tuple.Set.mem u idx.removed)) base
    in
    match List.filter agrees idx.added with
    | [] -> kept
    | added -> List.merge Tuple.compare kept (List.sort Tuple.compare added)

let matching idx r =
  let pi = Tuple.signature r in
  listed idx (listing idx pi) pi r

let equi_probe idx x =
  let pi = Tuple.signature_of_attrs x in
  let tbl = listing idx pi in
  fun t -> if Tuple.is_total_on_signature pi t then listed idx tbl pi t else []

let mem idx t = Tuple.Set.mem t idx.live
let tuples idx = idx.live
let cardinal idx = Once.get idx.size

let subsumed_within idx u =
  let live = idx.live in
  let au = Tuple.signature u in
  Sigmap.fold
    (fun pi _count acc ->
      (* A live tuple with signature [pi] strictly below [u] can only
         be [u]'s own [pi]-restriction (canonical forms), so one set
         lookup per distinct signature decides eviction. *)
      if Tuple.subset_signature pi au && Tuple.compare_signature pi au <> 0
      then begin
        let c = Tuple.restrict_signature u pi in
        if Tuple.Set.mem c live then c :: acc else acc
      end
      else acc)
    (Once.get idx.sigs) []

(* Compaction threshold: the slack keeps tiny relations from
   compacting on every other statement. *)
let compaction_slack = 16

(* A table of signature [pi] built over the old base, moved to the
   live set by the overlay: a copy of it, patched for the tuples
   [removed] and then those [added], is the table a rebuild over the
   live set would give. [move] patches the copy for one tuple total on
   [pi], by [-1] or [1]. *)
let carry copy move pi tbl ~added ~removed =
  let tbl = copy tbl in
  let step sign t = if Tuple.is_total_on_signature pi t then move tbl pi sign t in
  Tuple.Set.iter (step (-1)) removed;
  List.iter (step 1) added;
  tbl

let move_count tbl pi sign t =
  let r = Tuple.restrict_signature t pi in
  let b = Option.value (Probe.find_opt tbl r) ~default:0 in
  let exact = if Tuple.equal r t then 1 else 0 in
  let b = if sign > 0 then (b + 2) lor exact else (b - 2) land lnot exact in
  if count_of b = 0 then Probe.remove tbl r else Probe.replace tbl r b

let move_listing tbl pi sign t =
  let h = Tuple.hash_on_signature pi t in
  let l = Option.value (Hashes.find_opt tbl.lists h) ~default:[] in
  if sign > 0 then mark tbl pi h t l;
  match
    if sign > 0 then List.merge Tuple.compare [ t ] l
    else List.filter (fun u -> not (Tuple.equal u t)) l
  with
  | [] ->
      Hashes.remove tbl.lists h;
      Hashes.remove tbl.mixed h
  | l -> Hashes.replace tbl.lists h l

let copy_listing tbl =
  { lists = Hashes.copy tbl.lists; mixed = Hashes.copy tbl.mixed }

(* Folding the overlay into a fresh base carries along ({!carry}) every
   table of the old one that a probe read since that base was made: a
   compaction copies those tables and patches them by the overlay, so
   a probe after it finds its table built instead of rebuilding it from
   the whole relation. A carried table starts unread; one no probe
   reads before the next compaction is dropped there. *)
let compact idx ~added ~removed ~live ~sigs ~size =
  if !Obs.Metrics.enabled then Obs.Metrics.inc m_compactions;
  let carried slots copy move =
    Atomic.make
      (Sigmap.filter_map
         (fun pi slot ->
           if not (Atomic.get slot.read) then None
           else
             Some
               {
                 tbl = carry copy move pi slot.tbl ~added ~removed;
                 read = Atomic.make false;
               })
         (Atomic.get slots))
  in
  of_base
    {
      set = live;
      tables = carried idx.base.tables Probe.copy move_count;
      listings = carried idx.base.listings copy_listing move_listing;
      size = Once.of_val size;
    }
  |> fun idx -> { idx with sigs = Once.of_val sigs }

let advance idx ~added ~removed =
  if !Obs.Metrics.enabled then Obs.Metrics.inc m_advances;
  let live = idx.live in
  let sigs = Once.get idx.sigs in
  let size = Once.get idx.size in
  (* A count keeps the key array it was first stored under, the one
     {!share_signature} hands out: [Sigmap.update] would store [pi]
     instead, and a tuple a journal decoded carries its own array. *)
  let bump delta pi m =
    match
      Sigmap.find_first_opt (fun k -> Tuple.compare_signature k pi >= 0) m
    with
    | Some (k, c) when Tuple.compare_signature k pi = 0 ->
        if c + delta <= 0 then Sigmap.remove k m else Sigmap.add k (c + delta) m
    | Some _ | None -> if delta > 0 then Sigmap.add pi delta m else m
  in
  (* Removals first, then additions, each gated on the live set, keep
     the invariants: [added] disjoint from base, [removed] inside it. *)
  let a, rm, live, sigs, size =
    List.fold_left
      (fun (a, rm, live, sigs, size) t ->
        if not (Tuple.Set.mem t live) then (a, rm, live, sigs, size)
        else
          let live = Tuple.Set.remove t live
          and sigs = bump (-1) (Tuple.signature t) sigs
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
          and sigs = bump 1 (Tuple.signature t) sigs
          and size = size + 1 in
          if Tuple.Set.mem t rm then (a, Tuple.Set.remove t rm, live, sigs, size)
          else (t :: a, rm, live, sigs, size))
      (a, rm, live, sigs, size) added
  in
  let overlay = List.length a + Tuple.Set.cardinal rm in
  if overlay > compaction_slack + int_of_float (sqrt (float_of_int size)) then
    compact idx ~added:a ~removed:rm ~live ~sigs ~size
  else
    {
      idx with
      added = a;
      removed = rm;
      overlay;
      live;
      sigs = Once.of_val sigs;
      size = Once.of_val size;
    }

let admit idx t =
  if Tuple.is_null_tuple t || subsuming_exists idx t then None
  else
    let dead = subsumed_within idx t in
    Some (advance idx ~added:[ t ] ~removed:dead, dead)

let to_list idx = Tuple.Set.elements idx.live

(* [t] re-keyed onto the key array of a live tuple with its signature,
   so that the rows of one null pattern share one array. *)
let share_signature idx t =
  let s = Tuple.signature t in
  match
    Sigmap.find_first_opt
      (fun pi -> Tuple.compare_signature pi s >= 0)
      (Once.get idx.sigs)
  with
  | Some (pi, _) -> Tuple.with_signature pi t
  | None -> t

let diff r1 r2 =
  let idx = build r2 in
  Relation.filter (fun r -> not (subsuming_exists idx r)) r1

let minimize rel =
  let idx = build rel in
  Relation.filter
    (fun r ->
      (not (Tuple.is_null_tuple r)) && not (strictly_subsuming_exists idx r))
    rel
