open Nullrel

(* Equality probes for the join: bucket the X-total tuples by their
   canonical X-restriction. Persistent under DML like the subsumption
   index: an immutable bucket table plus a functional overlay that
   [advance] extends, compacted once it outgrows ~sqrt(n). *)
module Equi : Index_intf.S = struct
  type base = {
    xs : Tuple.signature;
        (** The key attributes as a signature: restrictions are merges. *)
    table : ((Attr.t * Value.t) list, Tuple.t list) Hashtbl.t;
    bn : int;  (* X-total tuples in [table] *)
  }

  type t = {
    b : base;
    added : Tuple.t list;  (* X-total, live, not in the base *)
    removed : Tuple.Set.t;  (* X-total, in the base, not live *)
    n : int;  (* live X-total tuples *)
  }

  let kind = "hash"
  let key_of xs r = Tuple.to_list (Tuple.restrict_signature r xs)
  let of_base b = { b; added = []; removed = Tuple.Set.empty; n = b.bn }

  let base_of xs tuples =
    let table = Hashtbl.create (max 16 (List.length tuples)) in
    let bn = ref 0 in
    List.iter
      (fun r ->
        if Tuple.is_total_on_signature xs r then begin
          incr bn;
          let key = key_of xs r in
          Hashtbl.replace table key
            (r :: Option.value (Hashtbl.find_opt table key) ~default:[])
        end)
      tuples;
    { xs; table; bn = !bn }

  let build x rel =
    of_base (base_of (Tuple.signature_of_attrs x) (Xrel.to_list rel))
  let cardinal t = t.n

  let base_probe b r =
    Option.value (Hashtbl.find_opt b.table (key_of b.xs r)) ~default:[]

  let probe t r =
    if not (Tuple.is_total_on_signature t.b.xs r) then []
    else begin
      let hits = base_probe t.b r in
      let hits =
        if Tuple.Set.is_empty t.removed then hits
        else List.filter (fun u -> not (Tuple.Set.mem u t.removed)) hits
      in
      match t.added with
      | [] -> hits
      | added ->
          let k = key_of t.b.xs r in
          List.fold_left
            (fun acc u -> if key_of t.b.xs u = k then u :: acc else acc)
            hits added
    end

  let live_tuples t =
    Hashtbl.fold
      (fun _ bucket acc ->
        List.fold_left
          (fun acc u -> if Tuple.Set.mem u t.removed then acc else u :: acc)
          acc bucket)
      t.b.table t.added

  let compact t = of_base (base_of t.b.xs (live_tuples t))
  let compaction_slack = 16

  let is_live t u =
    (not (Tuple.Set.mem u t.removed))
    && (List.exists (Tuple.equal u) t.added
       || List.exists (Tuple.equal u) (base_probe t.b u))

  let advance t ~added ~removed =
    let x = t.b.xs in
    let t =
      List.fold_left
        (fun t u ->
          if (not (Tuple.is_total_on_signature x u)) || not (is_live t u) then t
          else if List.exists (Tuple.equal u) t.added then
            {
              t with
              added = List.filter (fun v -> not (Tuple.equal v u)) t.added;
              n = t.n - 1;
            }
          else { t with removed = Tuple.Set.add u t.removed; n = t.n - 1 })
        t removed
    in
    let t =
      List.fold_left
        (fun t u ->
          if (not (Tuple.is_total_on_signature x u)) || is_live t u then t
          else if Tuple.Set.mem u t.removed then
            { t with removed = Tuple.Set.remove u t.removed; n = t.n + 1 }
          else { t with added = u :: t.added; n = t.n + 1 })
        t added
    in
    let overlay = List.length t.added + Tuple.Set.cardinal t.removed in
    if overlay > compaction_slack + int_of_float (sqrt (float_of_int t.n)) then
      compact t
    else t

  (* One line per bucket: the bucket members' canonical positions,
     space-separated. Restoring re-hashes one restriction per bucket
     instead of one per tuple — and never re-scans the non-total
     tuples. *)
  let dump t ~pos =
    let t =
      if t.added = [] && Tuple.Set.is_empty t.removed then t else compact t
    in
    let exception Missing in
    try
      Some
        (Hashtbl.fold
           (fun _ bucket acc ->
             String.concat " "
               (List.map
                  (fun u ->
                    match pos u with
                    | Some p -> string_of_int p
                    | None -> raise Missing)
                  bucket)
             :: acc)
           t.b.table [])
    with Missing -> None

  let restore x arr lines =
    let xs = Tuple.signature_of_attrs x in
    let table = Hashtbl.create (max 16 (List.length lines)) in
    let n = ref 0 in
    try
      List.iter
        (fun line ->
          let ps =
            List.filter_map
              (fun s -> if s = "" then None else Some (int_of_string s))
              (String.split_on_char ' ' line)
          in
          match ps with
          | [] -> ()
          | p0 :: _ ->
              let tuple p =
                if p < 0 || p >= Array.length arr then
                  failwith "position out of range"
                else arr.(p)
              in
              let first = tuple p0 in
              if not (Tuple.is_total_on_signature xs first) then
                failwith "bucket head not total on the key";
              let key = key_of xs first in
              if Hashtbl.mem table key then failwith "duplicate bucket";
              let bucket = List.map tuple ps in
              Hashtbl.replace table key bucket;
              n := !n + List.length bucket)
        lines;
      Some (of_base { xs; table; bn = !n })
    with Failure _ -> None
end
