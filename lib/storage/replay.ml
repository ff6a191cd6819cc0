open Nullrel
module Sigmap = Tuple.Signature_map

(* Probed in place, then read out sorted: the hash order never shows. *)
module Tbl = Hashtbl.Make (Tuple)

(* The added tuples of one signature: how many, and the key array they
   share. *)
type group = { shared : Tuple.signature; mutable count : int }

(* The composed state is [base] minus [removed] plus [added]; the tail
   side lives in hash tables that last one call. [above] holds, per
   probed signature [pi] and [pi]-restriction [u], the number of
   [added] tuples more informative than or equal to [u] minus the
   number of [removed] ones: added to the checkpoint index's count, it
   gives the count over the composed state. *)
type state = {
  schema : Schema.t;
  scope : Tuple.signature;
  key : Tuple.signature option;  (** [None] without a declared key. *)
  base : Relation.t;
  idx : Subsume_index.t;
  added : unit Tbl.t;  (** Present, not in [base]. *)
  removed : unit Tbl.t;  (** In [base], not present. *)
  mutable added_sigs : group Sigmap.t;  (** Signatures of [added]. *)
  mutable above : int Tbl.t Sigmap.t;
}

exception Inexact

(* Adds [d] to [u]'s count, dropping zeros. *)
let bump tbl u d =
  let c = (match Tbl.find tbl u with c -> c | exception Not_found -> 0) + d in
  if c = 0 then Tbl.remove tbl u else Tbl.replace tbl u c

(* Counts [t] with weight [d] in the table of signature [pi]. *)
let count_at pi d t tbl =
  if Tuple.is_total_on_signature pi t then
    bump tbl (Tuple.restrict_signature t pi) d

(* [t] joins ([d] = 1) or leaves ([d] = -1) the composed state. *)
let count_in st d t = Sigmap.iter (fun pi tbl -> count_at pi d t tbl) st.above

(* Present tuples more informative than or equal to [u]. *)
let above st u =
  let pi = Tuple.signature u in
  let tbl =
    match Sigmap.find_opt pi st.above with
    | Some tbl -> tbl
    | None ->
        let tbl = Tbl.create 16 in
        Tbl.iter (fun t () -> count_at pi 1 t tbl) st.added;
        Tbl.iter (fun t () -> count_at pi (-1) t tbl) st.removed;
        st.above <- Sigmap.add pi tbl st.above;
        tbl
  in
  Subsume_index.count_at st.idx u
  + match Tbl.find tbl u with c -> c | exception Not_found -> 0

(* Is some present tuple strictly less informative than [t]? With
   canonical tuples the only candidate per signature is [t]'s own
   restriction to it. *)
let below st t at =
  List.exists
    (fun s -> not (Tbl.mem st.removed s))
    (Subsume_index.subsumed_within st.idx t)
  || Sigmap.exists
       (fun pi _ ->
         Tuple.subset_signature pi at
         && Tuple.compare_signature pi at <> 0
         && Tbl.mem st.added (Tuple.restrict_signature t pi))
       st.added_sigs

let present st t =
  Tbl.mem st.added t || (Relation.mem t st.base && not (Tbl.mem st.removed t))

let remove st t =
  if Tbl.mem st.added t then begin
    Tbl.remove st.added t;
    let at = Tuple.signature t in
    let g = Sigmap.find at st.added_sigs in
    g.count <- g.count - 1;
    if g.count = 0 then st.added_sigs <- Sigmap.remove at st.added_sigs
  end
  else if Relation.mem t st.base && not (Tbl.mem st.removed t) then
    Tbl.replace st.removed t ()
  else raise Inexact;
  count_in st (-1) t

(* [t] on the key array the relation's rows of its signature already
   share, the checkpoint's or the added tuples': the spliced relation
   keeps one array per null pattern whichever side a row came from. *)
let rekey st t =
  let t = Subsume_index.share_signature st.idx t in
  match Sigmap.find_opt (Tuple.signature t) st.added_sigs with
  | Some g -> Tuple.with_signature g.shared t
  | None -> t

(* The insert discipline's probes, as checks: the change must admit [t]
   without rejecting it, evicting anything, or breaking the schema. A
   tuple total on the schema has nothing strictly above it, and a
   schema-valid tuple is total on the key. *)
let admit st t =
  let t = rekey st t in
  let at = Tuple.signature t in
  if
    Tuple.is_null_tuple t
    || Schema.check_tuple st.schema t <> []
    || present st t
    || ((not (Tuple.is_total_on_signature st.scope t)) && above st t > 0)
    || below st t at
    ||
    match st.key with
    | Some key -> above st (Tuple.restrict_signature t key) > 0
    | None -> false
  then raise Inexact;
  if Tbl.mem st.removed t then Tbl.remove st.removed t
  else begin
    Tbl.replace st.added t ();
    match Sigmap.find_opt at st.added_sigs with
    | Some g -> g.count <- g.count + 1
    | None ->
        st.added_sigs <- Sigmap.add at { shared = at; count = 1 } st.added_sigs
  end;
  count_in st 1 t

let sorted tbl =
  List.sort Tuple.compare (Tbl.fold (fun t () l -> t :: l) tbl [])

let compose schema x changes =
  let size = List.length changes in
  let st =
    {
      schema;
      scope = Tuple.signature_of_attrs (Schema.attr_set schema);
      key =
        (let key = Schema.key schema in
         if Attr.Set.is_empty key then None
         else Some (Tuple.signature_of_attrs key));
      base = Xrel.rep x;
      idx = Subsume_index.build (Xrel.rep x);
      added = Tbl.create size;
      removed = Tbl.create size;
      added_sigs = Sigmap.empty;
      above = Sigmap.empty;
    }
  in
  match
    List.iter
      (fun (c : Wal.change) ->
        List.iter (remove st) (Xrel.to_list c.Wal.removed);
        List.iter (admit st) (Xrel.to_list c.Wal.added))
      changes
  with
  | () -> Some (sorted st.added, sorted st.removed)
  | exception Inexact -> None
