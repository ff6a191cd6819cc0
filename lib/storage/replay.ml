open Nullrel
module Sigmap = Map.Make (Attr.Set)

(* The composed state is [base] minus [removed] plus [added]. [above]
   holds, per probed signature [pi] and [pi]-restriction [u], the
   number of [added] tuples more informative than or equal to [u] minus
   the number of [removed] ones: added to the checkpoint index's count,
   it gives the count over the composed state. *)
type state = {
  schema : Schema.t;
  scope : Attr.Set.t;
  base : Relation.t;
  idx : Subsume_index.t;
  mutable added : Tuple.Set.t;  (** Present, not in [base]. *)
  mutable removed : Tuple.Set.t;  (** In [base], not present. *)
  mutable added_sigs : int Sigmap.t;  (** Signatures of [added]. *)
  mutable above : int Tuple.Map.t Sigmap.t;
}

exception Inexact

(* Adds [d] to a count kept in a map ([Tuple.Map] or [Sigmap]), dropping
   zeros. *)
let bump update d k m =
  update k
    (fun c ->
      let c = Option.value ~default:0 c + d in
      if c = 0 then None else Some c)
    m

(* Counts [t] with weight [d] in the table of signature [pi]. *)
let count_at pi d t tbl =
  if Tuple.is_total_on pi t then
    bump Tuple.Map.update d (Tuple.restrict t pi) tbl
  else tbl

(* [t] joins ([d] = 1) or leaves ([d] = -1) the composed state. *)
let count_in st d t =
  st.above <- Sigmap.mapi (fun pi tbl -> count_at pi d t tbl) st.above

(* Present tuples more informative than or equal to [u]. *)
let above st u =
  let pi = Tuple.attrs u in
  let tbl =
    match Sigmap.find_opt pi st.above with
    | Some tbl -> tbl
    | None ->
        let tbl =
          Tuple.Set.fold (count_at pi (-1)) st.removed
            (Tuple.Set.fold (count_at pi 1) st.added Tuple.Map.empty)
        in
        st.above <- Sigmap.add pi tbl st.above;
        tbl
  in
  Subsume_index.count_at st.idx u
  + Option.value ~default:0 (Tuple.Map.find_opt u tbl)

(* Is some present tuple strictly less informative than [t]? With
   canonical tuples the only candidate per signature is [t]'s own
   restriction to it. *)
let below st t at =
  List.exists
    (fun s -> not (Tuple.Set.mem s st.removed))
    (Subsume_index.subsumed_within st.idx t)
  || Sigmap.exists
       (fun pi _ ->
         Attr.Set.subset pi at
         && (not (Attr.Set.equal pi at))
         && Tuple.Set.mem (Tuple.restrict t pi) st.added)
       st.added_sigs

let present st t =
  Tuple.Set.mem t st.added
  || (Relation.mem t st.base && not (Tuple.Set.mem t st.removed))

let remove st t =
  if Tuple.Set.mem t st.added then begin
    st.added <- Tuple.Set.remove t st.added;
    st.added_sigs <- bump Sigmap.update (-1) (Tuple.attrs t) st.added_sigs
  end
  else if Relation.mem t st.base && not (Tuple.Set.mem t st.removed) then
    st.removed <- Tuple.Set.add t st.removed
  else raise Inexact;
  count_in st (-1) t

(* The insert discipline's probes, as checks: the change must admit [t]
   without rejecting it, evicting anything, or breaking the schema. A
   tuple total on the schema has nothing strictly above it, and a
   schema-valid tuple is total on the key. *)
let admit st t =
  let at = Tuple.attrs t in
  let key = Schema.key st.schema in
  if
    Tuple.is_null_tuple t
    || Schema.check_tuple st.schema t <> []
    || present st t
    || ((not (Attr.Set.equal at st.scope)) && above st t > 0)
    || below st t at
    || (not (Attr.Set.is_empty key))
       && above st (Tuple.restrict t key) > 0
  then raise Inexact;
  if Tuple.Set.mem t st.removed then st.removed <- Tuple.Set.remove t st.removed
  else begin
    st.added <- Tuple.Set.add t st.added;
    st.added_sigs <- bump Sigmap.update 1 at st.added_sigs
  end;
  count_in st 1 t

let compose schema x changes =
  let st =
    {
      schema;
      scope = Schema.attr_set schema;
      base = Xrel.rep x;
      idx = Subsume_index.build (Xrel.rep x);
      added = Tuple.Set.empty;
      removed = Tuple.Set.empty;
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
  | () -> Some (Tuple.Set.elements st.added, Tuple.Set.elements st.removed)
  | exception Inexact -> None
