(* The map-based tuple the engine used before its array layout, kept
   only as the reference model that [Props_tuple] checks [Tuple]
   against. Canonical form: the map binds only non-null values, so
   information-wise equivalence is structural equality and
   [more_informative] is submap inclusion. *)

open Nullrel

type t = Value.t Attr.Map.t

let empty = Attr.Map.empty

let set r a v =
  if Value.is_null v then Attr.Map.remove a r else Attr.Map.add a v r

let of_list bindings =
  List.fold_left (fun r (a, v) -> set r a v) Attr.Map.empty bindings

let of_strings bindings =
  of_list (List.map (fun (name, v) -> (Attr.make name, v)) bindings)

let to_list r = Attr.Map.bindings r

let get r a =
  match Attr.Map.find_opt a r with Some v -> v | None -> Value.Null

let attrs r = Attr.Map.fold (fun a _ acc -> Attr.Set.add a acc) r Attr.Set.empty
let is_null_tuple r = Attr.Map.is_empty r
let is_total_on x r = Attr.Set.for_all (fun a -> Attr.Map.mem a r) x
let equal r t = Attr.Map.equal Value.equal r t
let compare r t = Attr.Map.compare Value.compare r t
let hash r = Hashtbl.hash (Attr.Map.bindings r)

let more_informative r t =
  Attr.Map.for_all (fun a v -> Value.equal (get r a) v) t

let strictly_more_informative r t = more_informative r t && not (equal r t)

let meet r1 r2 =
  Attr.Map.merge
    (fun _ v1 v2 ->
      match (v1, v2) with
      | Some v1, Some v2 when Value.equal v1 v2 -> Some v1
      | _ -> None)
    r1 r2

let joinable r1 r2 =
  Attr.Map.for_all
    (fun a v1 ->
      match Attr.Map.find_opt a r2 with
      | None -> true
      | Some v2 -> Value.equal v1 v2)
    r1

exception Conflict

let join r1 r2 =
  let merge _ v1 v2 =
    match (v1, v2) with
    | (Some _ as v), None | None, (Some _ as v) -> v
    | Some v1, Some v2 -> if Value.equal v1 v2 then Some v1 else raise Conflict
    | None, None -> None
  in
  match Attr.Map.merge merge r1 r2 with
  | joined -> Some joined
  | exception Conflict -> None

let restrict r x = Attr.Map.filter (fun a _ -> Attr.Set.mem a x) r
let remove r x = Attr.Map.filter (fun a _ -> not (Attr.Set.mem a x)) r

let rename mapping r =
  let target a =
    match List.find_opt (fun (old, _) -> Attr.equal old a) mapping with
    | Some (_, fresh) -> fresh
    | None -> a
  in
  Attr.Map.fold
    (fun a v acc ->
      let a' = target a in
      match Attr.Map.find_opt a' acc with
      | Some v' when not (Value.equal v v') ->
          Exec_error.bad_inputf "Tuple.rename: collision on attribute %s"
            (Attr.name a')
      | _ -> Attr.Map.add a' v acc)
    r Attr.Map.empty

let fold f r init = Attr.Map.fold f r init

let pp ppf r =
  let pp_binding ppf (a, v) = Format.fprintf ppf "%a=%a" Attr.pp a Value.pp v in
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_binding)
    (to_list r)

module Ordered = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ordered)
module Map = Map.Make (Ordered)
