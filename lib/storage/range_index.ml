open Nullrel

type t = { attr : Attr.t; sorted : Tuple.t array }

let value_cmp v w =
  match Value.compare3 v w with
  | Some c -> c
  | None -> Exec_error.bad_input "Range_index: null value in index"

let build attr x =
  let total =
    List.filter
      (fun r -> not (Value.is_null (Tuple.get r attr)))
      (Xrel.to_list x)
  in
  let sorted = Array.of_list total in
  Array.sort
    (fun r1 r2 -> value_cmp (Tuple.get r1 attr) (Tuple.get r2 attr))
    sorted;
  { attr; sorted }

let attr idx = idx.attr

(* First position whose value is >= k (with [strict], > k). *)
let bound idx ~strict k =
  let matches v =
    let c = value_cmp v k in
    if strict then c > 0 else c >= 0
  in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if matches (Tuple.get idx.sorted.(mid) idx.attr) then go lo mid
      else go (mid + 1) hi
  in
  go 0 (Array.length idx.sorted)

let slice idx lo hi =
  let rec collect i acc =
    if i < lo then acc else collect (i - 1) (idx.sorted.(i) :: acc)
  in
  (* A subset of a minimal representation is minimal. *)
  Xrel.unsafe_of_minimal (Relation.of_list (collect (hi - 1) []))

let select idx cmp k =
  if Value.is_null k then
    Exec_error.bad_input "Range_index.select: the constant must not be ni";
  let n = Array.length idx.sorted in
  let lb = bound idx ~strict:false k in
  let ub = bound idx ~strict:true k in
  match cmp with
  | Predicate.Eq -> slice idx lb ub
  | Predicate.Lt -> slice idx 0 lb
  | Predicate.Le -> slice idx 0 ub
  | Predicate.Gt -> slice idx ub n
  | Predicate.Ge -> slice idx lb n
  | Predicate.Neq -> Xrel.union (slice idx 0 lb) (slice idx ub n)

let range idx ?lo ?hi () =
  let n = Array.length idx.sorted in
  let from = match lo with Some v -> bound idx ~strict:false v | None -> 0 in
  let until = match hi with Some v -> bound idx ~strict:true v | None -> n in
  slice idx from (max from until)
