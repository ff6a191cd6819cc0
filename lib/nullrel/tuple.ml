(* Canonical form as two parallel arrays: [keys] holds the non-null
   attributes in strictly increasing order, [vals] their values, never
   [Value.Null]. Information-wise equivalence is then structural
   equality, and every operation on two tuples is one merge over their
   sorted keys. The arrays are never written after construction:
   catalogs, and so their tuples, are shared by session domains. Two
   tuples may share a [keys] array. *)

type t = { keys : Attr.t array; vals : Value.t array }
type signature = Attr.t array

(* The loops below are top-level functions or [while] loops over local
   references, not local closures: a closure over a tuple's arrays
   would be allocated on every call. *)

(* [Attr.compare] and [Attr.equal], as direct calls to the runtime's
   string primitives. *)
let compare_attr (a : Attr.t) (b : Attr.t) =
  Stdlib.compare (a :> string) (b :> string)

let equal_attr (a : Attr.t) (b : Attr.t) =
  String.equal (a :> string) (b :> string)

(* [Value.equal] and [Value.compare], with the common integer case
   decided here rather than by a call. *)
let equal_value v w =
  match (v, w) with
  | Value.Int a, Value.Int b -> Int.equal a b
  | _ -> Value.equal v w

let compare_value v w =
  match (v, w) with
  | Value.Int a, Value.Int b -> Int.compare a b
  | _ -> Value.compare v w

(* A value's hash, consistent with [Value.equal] on the non-null values
   a tuple stores: integers hash to themselves, and [Hashtbl.hash]
   already maps equal floats (nan, -0.) together. *)
let hash_value = function
  | Value.Int i -> i
  | Value.Bool b -> Bool.to_int b
  | (Value.Float _ | Value.Str _ | Value.Null) as v -> Value.hash v

let empty = { keys = [||]; vals = [||] }
let length r = Array.length r.keys

(* The first [i] in [lo, hi) with [keys.(i) >= a], or [hi]. *)
let rec position keys a lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if compare_attr keys.(mid) a < 0 then position keys a (mid + 1) hi
    else position keys a lo mid

let rec find_in keys a lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_attr a keys.(mid) in
    if c = 0 then mid
    else if c < 0 then find_in keys a lo mid
    else find_in keys a (mid + 1) hi

let find keys a = find_in keys a 0 (Array.length keys)

let get r a =
  let i = find r.keys a in
  if i < 0 then Value.Null else r.vals.(i)

let set r a v =
  let n = length r in
  let i = position r.keys a 0 n in
  let bound = i < n && equal_attr r.keys.(i) a in
  if Value.is_null v then
    if not bound then r
    else if n = 1 then empty
    else begin
      (* Drop slot [i]. *)
      let keys = Array.make (n - 1) r.keys.(0)
      and vals = Array.make (n - 1) r.vals.(0) in
      for j = 0 to n - 2 do
        let o = if j < i then j else j + 1 in
        keys.(j) <- r.keys.(o);
        vals.(j) <- r.vals.(o)
      done;
      { keys; vals }
    end
  else if bound && equal_value r.vals.(i) v then r
  else if bound then begin
    let vals = Array.copy r.vals in
    vals.(i) <- v;
    { keys = r.keys; vals }
  end
  else begin
    (* Open slot [i] for the new binding. Plain loops: tuples are short,
       and a [blit] is a runtime call. *)
    let keys = Array.make (n + 1) a and vals = Array.make (n + 1) v in
    for j = 0 to n - 1 do
      let o = if j < i then j else j + 1 in
      keys.(o) <- r.keys.(j);
      vals.(o) <- r.vals.(j)
    done;
    { keys; vals }
  end

let rec strictly_sorted = function
  | (a, _) :: ((a', _) :: _ as rest) ->
      compare_attr a a' < 0 && strictly_sorted rest
  | [ _ ] | [] -> true

let rec count_non_null n = function
  | [] -> n
  | (_, v) :: rest -> count_non_null (if Value.is_null v then n else n + 1) rest

let rec fill keys vals i = function
  | [] -> ()
  | (_, v) :: rest when Value.is_null v -> fill keys vals i rest
  | (a, v) :: rest ->
      keys.(i) <- a;
      vals.(i) <- v;
      fill keys vals (i + 1) rest

let by_attr (a, _) (a', _) = compare_attr a a'

let of_list bindings =
  match bindings with
  | (a0, v0) :: _ when strictly_sorted bindings ->
      let n = count_non_null 0 bindings in
      if n = 0 then empty
      else begin
        let keys = Array.make n a0 and vals = Array.make n v0 in
        fill keys vals 0 bindings;
        { keys; vals }
      end
  | [] | _ :: _ ->
      let b = Array.of_list bindings in
      (* Stable: the bindings of one attribute keep their order, so the
         last of each run is the one that wins. *)
      Array.stable_sort by_attr b;
      let n = Array.length b in
      let wins i =
        (i + 1 = n || not (equal_attr (fst b.(i)) (fst b.(i + 1))))
        && not (Value.is_null (snd b.(i)))
      in
      let m = ref 0 in
      for i = 0 to n - 1 do
        if wins i then incr m
      done;
      if !m = 0 then empty
      else begin
        let keys = Array.make !m (fst b.(0))
        and vals = Array.make !m (snd b.(0)) in
        let k = ref 0 in
        for i = 0 to n - 1 do
          if wins i then begin
            keys.(!k) <- fst b.(i);
            vals.(!k) <- snd b.(i);
            incr k
          end
        done;
        { keys; vals }
      end

let of_strings bindings =
  of_list (List.map (fun (name, v) -> (Attr.make name, v)) bindings)

let rec bindings_before r i acc =
  if i = 0 then acc
  else bindings_before r (i - 1) ((r.keys.(i - 1), r.vals.(i - 1)) :: acc)

let to_list r = bindings_before r (length r) []

let fold f r init =
  let acc = ref init in
  for i = 0 to length r - 1 do
    acc := f r.keys.(i) r.vals.(i) !acc
  done;
  !acc

let attrs r = Attr.Set.of_list (Array.to_list r.keys)
let is_null_tuple r = length r = 0
let is_total_on x r = Attr.Set.for_all (fun a -> find r.keys a >= 0) x

let equal r t =
  let n = length r in
  r == t
  || n = length t
  &&
  let shared = r.keys == t.keys in
  let i = ref 0 in
  while
    !i < n
    && (shared || equal_attr r.keys.(!i) t.keys.(!i))
    && equal_value r.vals.(!i) t.vals.(!i)
  do
    incr i
  done;
  !i = n

let rec compare_from r t i =
  let n = length r and m = length t in
  if i = n then if i = m then 0 else -1
  else if i = m then 1
  else
    let c = compare_attr r.keys.(i) t.keys.(i) in
    if c <> 0 then c
    else
      let c = compare_value r.vals.(i) t.vals.(i) in
      if c <> 0 then c else compare_from r t (i + 1)

(* Two tuples sharing a key array differ only in their values. *)
let rec compare_vals r t i =
  if i = length r then 0
  else
    let c = compare_value r.vals.(i) t.vals.(i) in
    if c <> 0 then c else compare_vals r t (i + 1)

(* Lexicographic over the (attribute, value) pairs, a proper prefix
   first: the order [Attr.Map.compare Value.compare] gave the map
   layout, so containers iterate exactly as they did. *)
let compare r t =
  if r == t then 0
  else if r.keys == t.keys then compare_vals r t 0
  else compare_from r t 0

(* Spread the low bits a power-of-two table indexes by. *)
let spread h =
  let h = h lxor (h lsr 29) in
  ((h * 0x2f0b3c5d) lxor (h lsr 31)) land max_int

(* Equal tuples have equal keys, so hashing the values alone is
   consistent with [equal]; it spreads the tuples of one signature,
   which is what a probe table holds. *)
let hash r =
  let h = ref (length r) in
  for i = 0 to length r - 1 do
    h := (!h * 65599) + hash_value r.vals.(i)
  done;
  spread !h

(* Every binding of [t] from [j] on is in [r] from [i] on. *)
let rec covers r t i j =
  let n = length r and m = length t in
  j = m
  || n - i >= m - j
     &&
     let c = compare_attr r.keys.(i) t.keys.(j) in
     if c < 0 then covers r t (i + 1) j
     else
       c = 0 && equal_value r.vals.(i) t.vals.(j) && covers r t (i + 1) (j + 1)

let more_informative r t = covers r t 0 0

(* Above [t] with the same number of bindings is [t] itself. *)
let strictly_more_informative r t =
  length r > length t && more_informative r t

(* The shared keys of [r1] and [r2] on which the values agree, counted
   in one walk of the two key arrays. When [stop] is set, a shared key
   whose values differ ends the walk and the count is -1. *)
let rec agreed stop r1 r2 i j acc =
  if i = length r1 || j = length r2 then acc
  else
    let c = compare_attr r1.keys.(i) r2.keys.(j) in
    if c < 0 then agreed stop r1 r2 (i + 1) j acc
    else if c > 0 then agreed stop r1 r2 i (j + 1) acc
    else if equal_value r1.vals.(i) r2.vals.(j) then
      agreed stop r1 r2 (i + 1) (j + 1) (acc + 1)
    else if stop then -1
    else agreed stop r1 r2 (i + 1) (j + 1) acc

(* The [m] bindings of a merge of [r1] and [r2] in key order: the
   shared keys whose values agree, and with [all] every key only one
   side holds. *)
let merge ~all m r1 r2 =
  let n1 = length r1 and n2 = length r2 in
  let first = if n1 > 0 then r1 else r2 in
  let keys = Array.make m first.keys.(0)
  and vals = Array.make m first.vals.(0) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < n1 || !j < n2 do
    let c =
      if !i = n1 then 1
      else if !j = n2 then -1
      else compare_attr r1.keys.(!i) r2.keys.(!j)
    in
    let from_left =
      if c < 0 then all
      else if c > 0 then false
      else equal_value r1.vals.(!i) r2.vals.(!j)
    in
    if from_left then begin
      keys.(!k) <- r1.keys.(!i);
      vals.(!k) <- r1.vals.(!i);
      incr k
    end
    else if c > 0 && all then begin
      keys.(!k) <- r2.keys.(!j);
      vals.(!k) <- r2.vals.(!j);
      incr k
    end;
    if c <= 0 then incr i;
    if c >= 0 then incr j
  done;
  { keys; vals }

(* Both return one of their arguments, not a copy, when it is the
   answer. *)
let meet r1 r2 =
  let m = agreed false r1 r2 0 0 0 in
  if m = length r1 then r1
  else if m = length r2 then r2
  else if m = 0 then empty
  else merge ~all:false m r1 r2

let joinable r1 r2 = agreed true r1 r2 0 0 0 >= 0

(* [r1]'s keys all below [r2]'s: the join is the concatenation. This is
   the product of two range variables, whose prefixes differ. *)
let precedes r1 r2 =
  length r1 > 0
  && length r2 > 0
  && compare_attr r1.keys.(length r1 - 1) r2.keys.(0) < 0

let append r1 r2 =
  { keys = Array.append r1.keys r2.keys; vals = Array.append r1.vals r2.vals }

let join r1 r2 =
  if precedes r1 r2 then Some (append r1 r2)
  else if precedes r2 r1 then Some (append r2 r1)
  else
    let m = agreed true r1 r2 0 0 0 in
    if m < 0 then None
    else if m = length r2 then Some r1
    else if m = length r1 then Some r2
    else Some (merge ~all:true (length r1 + length r2 - m) r1 r2)

(* The bindings whose attribute satisfies [keep], sharing [r] when all
   of them do. *)
let filter_keys keep r =
  let n = length r in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if keep r.keys.(i) then incr m
  done;
  if !m = n then r
  else if !m = 0 then empty
  else begin
    let keys = Array.make !m r.keys.(0) and vals = Array.make !m r.vals.(0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if keep r.keys.(i) then begin
        keys.(!k) <- r.keys.(i);
        vals.(!k) <- r.vals.(i);
        incr k
      end
    done;
    { keys; vals }
  end

let restrict r x = filter_keys (fun a -> Attr.Set.mem a x) r
let remove r x = filter_keys (fun a -> not (Attr.Set.mem a x)) r

let rename mapping r =
  let target a =
    match List.find_opt (fun (old, _) -> equal_attr old a) mapping with
    | Some (_, fresh) -> fresh
    | None -> a
  in
  fold
    (fun a v acc ->
      let a' = target a in
      match Attr.Map.find_opt a' acc with
      | Some v' when not (equal_value v v') ->
          Exec_error.bad_inputf "Tuple.rename: collision on attribute %s"
            (Attr.name a')
      | _ -> Attr.Map.add a' v acc)
    r Attr.Map.empty
  |> Attr.Map.bindings |> of_list

(* ---------------------------- signatures --------------------------- *)

let signature r = r.keys

let rec compare_signature_from s1 s2 i =
  let n1 = Array.length s1 and n2 = Array.length s2 in
  if i = n1 then if i = n2 then 0 else -1
  else if i = n2 then 1
  else
    let c = compare_attr s1.(i) s2.(i) in
    if c <> 0 then c else compare_signature_from s1 s2 (i + 1)

let compare_signature s1 s2 =
  if s1 == s2 then 0 else compare_signature_from s1 s2 0

let signature_of_attrs x = Array.of_list (Attr.Set.elements x)

(* Every attribute of [s1] from [i] on is in [s2] from [j] on. *)
let rec subset_from s1 s2 i j =
  let n1 = Array.length s1 and n2 = Array.length s2 in
  i = n1
  || n2 - j >= n1 - i
     &&
     let c = compare_attr s2.(j) s1.(i) in
     if c < 0 then subset_from s1 s2 i (j + 1)
     else c = 0 && subset_from s1 s2 (i + 1) (j + 1)

let subset_signature s1 s2 = subset_from s1 s2 0 0
let is_total_on_signature s r = subset_from s r.keys 0 0

let with_signature s r =
  if r.keys != s && compare_signature r.keys s = 0 then
    { keys = s; vals = r.vals }
  else r

let hash_on_signature s r =
  let h = ref (Array.length s) and i = ref 0 in
  for k = 0 to Array.length s - 1 do
    while !i < length r && compare_attr r.keys.(!i) s.(k) < 0 do
      incr i
    done;
    if !i < length r && equal_attr r.keys.(!i) s.(k) then
      h := (!h * 65599) + hash_value r.vals.(!i)
  done;
  spread !h

let restrict_signature r s =
  let n = length r and m = Array.length s in
  (* One walk counts the shared attributes, a second copies them. *)
  let count = ref 0 and i = ref 0 and j = ref 0 in
  while !i < n && !j < m do
    let c = compare_attr r.keys.(!i) s.(!j) in
    if c = 0 then incr count;
    if c <= 0 then incr i;
    if c >= 0 then incr j
  done;
  let k = !count in
  if k = n then r
  else if k = 0 then empty
  else begin
    (* Total on [s]: the restriction's keys are [s] itself, shared. *)
    let keys = if k = m then s else Array.make k r.keys.(0)
    and vals = Array.make k r.vals.(0) in
    let o = ref 0 in
    i := 0;
    j := 0;
    while !o < k do
      let c = compare_attr r.keys.(!i) s.(!j) in
      if c = 0 then begin
        if k < m then keys.(!o) <- r.keys.(!i);
        vals.(!o) <- r.vals.(!i);
        incr o
      end;
      if c <= 0 then incr i;
      if c >= 0 then incr j
    done;
    { keys; vals }
  end

(* ------------------------ bulk construction ------------------------ *)

(* A trie over a builder's columns in attribute order, one level per
   column, branching on whether the row binds it: the leaf a null
   pattern reaches holds the key array its tuples share ([[||]] until
   the first such tuple). [absent] stands for a child not made yet. *)
type pattern = {
  mutable shared : signature;
  mutable unbound : pattern;
  mutable bound : pattern;
}

let rec absent = { shared = [||]; unbound = absent; bound = absent }

type builder = {
  cols : Attr.t array;  (** Distinct, strictly increasing. *)
  slot : int array;  (** A position's column in [cols]. *)
  row : Value.t array;  (** Per column, [Value.Null] when unbound. *)
  patterns : pattern;
}

let pattern () = { shared = [||]; unbound = absent; bound = absent }

let rec sorted_from a i =
  i + 1 >= Array.length a
  || (compare_attr a.(i) a.(i + 1) < 0 && sorted_from a (i + 1))

let builder positions =
  let cols =
    if sorted_from positions 0 then Array.copy positions
    else
      Array.of_list (List.sort_uniq compare_attr (Array.to_list positions))
  in
  let m = Array.length positions in
  let slot = Array.make m 0 in
  for i = 0 to m - 1 do
    slot.(i) <- find cols positions.(i)
  done;
  {
    cols;
    slot;
    row = Array.make (Array.length cols) Value.Null;
    patterns = pattern ();
  }

let bind b i v = b.row.(b.slot.(i)) <- v

(* Only nodes a builder made are ever written, never [absent]. *)
let child p bound =
  let c = if bound then p.bound else p.unbound in
  if c != absent then c
  else begin
    let c = pattern () in
    if bound then p.bound <- c else p.unbound <- c;
    c
  end

let build b =
  let m = Array.length b.cols in
  let p = ref b.patterns and n = ref 0 in
  for i = 0 to m - 1 do
    let bound = not (Value.is_null b.row.(i)) in
    if bound then incr n;
    p := child !p bound
  done;
  if !n = 0 then empty
  else begin
    let keys =
      if Array.length !p.shared > 0 then !p.shared
      else begin
        let keys = Array.make !n b.cols.(0) and k = ref 0 in
        for i = 0 to m - 1 do
          if not (Value.is_null b.row.(i)) then begin
            keys.(!k) <- b.cols.(i);
            incr k
          end
        done;
        !p.shared <- keys;
        keys
      end
    in
    let vals = Array.make !n Value.Null and k = ref 0 in
    for i = 0 to m - 1 do
      let v = b.row.(i) in
      if not (Value.is_null v) then begin
        vals.(!k) <- v;
        incr k;
        b.row.(i) <- Value.Null
      end
    done;
    { keys; vals }
  end

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

module Signature_map = Stdlib.Map.Make (struct
  type t = signature

  let compare = compare_signature
end)
