(* Property tests: the tuple semilattice of Section 3. *)

open Nullrel
open Qgen

let count = 500

let test name arb prop = QCheck.Test.make ~count ~name arb prop

let ge = Tuple.more_informative

let reflexive =
  test "more_informative is reflexive" arbitrary_tuple (fun r -> ge r r)

let antisymmetric =
  test "more_informative is antisymmetric"
    (QCheck.pair arbitrary_tuple arbitrary_tuple) (fun (r, t) ->
      if ge r t && ge t r then Tuple.equal r t else true)

let transitive =
  test "more_informative is transitive"
    (QCheck.triple arbitrary_tuple arbitrary_tuple arbitrary_tuple)
    (fun (r, t, u) -> if ge r t && ge t u then ge r u else true)

let null_tuple_is_bottom =
  test "null tuple is the bottom" arbitrary_tuple (fun r -> ge r Tuple.empty)

let meet_commutative =
  test "meet commutes" (QCheck.pair arbitrary_tuple arbitrary_tuple)
    (fun (r, t) -> Tuple.equal (Tuple.meet r t) (Tuple.meet t r))

let meet_associative =
  test "meet associates"
    (QCheck.triple arbitrary_tuple arbitrary_tuple arbitrary_tuple)
    (fun (r, t, u) ->
      Tuple.equal
        (Tuple.meet (Tuple.meet r t) u)
        (Tuple.meet r (Tuple.meet t u)))

let meet_idempotent =
  test "meet is idempotent" arbitrary_tuple (fun r ->
      Tuple.equal (Tuple.meet r r) r)

let meet_is_glb =
  test "meet is the greatest lower bound"
    (QCheck.triple arbitrary_tuple arbitrary_tuple arbitrary_tuple)
    (fun (r, t, l) ->
      let m = Tuple.meet r t in
      ge r m && ge t m && if ge r l && ge t l then ge m l else true)

let join_commutative =
  test "join commutes" (QCheck.pair arbitrary_tuple arbitrary_tuple)
    (fun (r, t) ->
      match (Tuple.join r t, Tuple.join t r) with
      | Some a, Some b -> Tuple.equal a b
      | None, None -> true
      | _ -> false)

let join_is_lub =
  test "join is the least upper bound"
    (QCheck.triple arbitrary_tuple arbitrary_tuple arbitrary_tuple)
    (fun (r, t, u) ->
      match Tuple.join r t with
      | None -> true
      | Some j ->
          ge j r && ge j t && if ge u r && ge u t then ge u j else true)

let joinable_iff_upper_bound =
  test "joinable iff a common upper bound exists"
    (QCheck.pair arbitrary_tuple arbitrary_total_tuple) (fun (r, u) ->
      (* every tuple below a total tuple is joinable with every other
         tuple below it *)
      let t = Tuple.meet r u in
      Tuple.joinable t u)

let order_via_meet_join =
  test "r >= t iff meet r t = t iff join r t = r"
    (QCheck.pair arbitrary_tuple arbitrary_tuple) (fun (r, t) ->
      let via_meet = Tuple.equal (Tuple.meet r t) t in
      let via_join =
        match Tuple.join r t with Some j -> Tuple.equal j r | None -> false
      in
      let direct = ge r t in
      direct = via_meet && direct = via_join)

let absorption =
  test "absorption: meet r (join r t) = r"
    (QCheck.pair arbitrary_tuple arbitrary_tuple) (fun (r, t) ->
      match Tuple.join r t with
      | None -> true
      | Some j -> Tuple.equal (Tuple.meet r j) r)

let restrict_monotone =
  test "restriction is monotone"
    (QCheck.pair arbitrary_tuple arbitrary_tuple) (fun (r, t) ->
      let x = Attr.set_of_list [ "A"; "B" ] in
      (* force comparability: meet r t <= r *)
      ge (Tuple.restrict r x) (Tuple.restrict (Tuple.meet r t) x))

let restrict_distributes_over_meet =
  test "restriction distributes over meet"
    (QCheck.pair arbitrary_tuple arbitrary_tuple) (fun (r, t) ->
      let x = Attr.set_of_list [ "A"; "C" ] in
      Tuple.equal
        (Tuple.restrict (Tuple.meet r t) x)
        (Tuple.meet (Tuple.restrict r x) (Tuple.restrict t x)))

let canonical_no_nulls =
  test "canonical form stores no nulls" arbitrary_tuple (fun r ->
      Tuple.fold (fun _ v acc -> acc && not (Value.is_null v)) r true)

let meet_in_u_star =
  (* Footnote: if r' ~ r then r' /\ t ~ r /\ t — trivial under canonical
     forms, kept as a regression anchor. *)
  test "meet respects canonical equality"
    (QCheck.pair arbitrary_tuple arbitrary_tuple) (fun (r, t) ->
      let r' = Tuple.set (Tuple.set r (Attr.make "Z") (Value.Int 1)) (Attr.make "Z") Value.Null in
      Tuple.equal (Tuple.meet r' t) (Tuple.meet r t))

(* ------------------------- against the model ---------------------- *)

(* [Tuple] against [Tuple_model], the map-based tuple it replaced. A
   generated tuple is a recipe: bindings for [of_list], with repeats and
   nulls, then a few [set]s, nulls among them. Attribute names mix
   prefixed ones and names that share prefixes, so string order differs
   from length order; values cover all five constructors. *)

module M = Tuple_model

let pool =
  [| "A"; "AB"; "A1"; "A10"; "A2"; "B"; "x.A1"; "x.A10"; "x.A2"; "y.A1"; "y" |]

let attr_gen =
  QCheck.Gen.(
    map (fun i -> Attr.make pool.(i)) (int_bound (Array.length pool - 1)))

let model_value_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Value.Null);
        (3, map (fun i -> Value.Int i) (int_range (-2) 2));
        ( 2,
          oneofl Value.[ Float 0.; Float (-0.); Float 1.5; Float nan ] );
        (2, oneofl Value.[ Str ""; Str "a"; Str "ab"; Str "b" ]);
        (1, map (fun b -> Value.Bool b) bool);
      ])

let binding_gen = QCheck.Gen.pair attr_gen model_value_gen

type recipe = {
  bindings : (Attr.t * Value.t) list;
  sets : (Attr.t * Value.t) list;
}

let recipe_gen =
  QCheck.Gen.(
    map2
      (fun bindings sets -> { bindings; sets })
      (list_size (int_bound 7) binding_gen)
      (list_size (int_bound 3) binding_gen))

let build rc =
  List.fold_left
    (fun t (a, v) -> Tuple.set t a v)
    (Tuple.of_list rc.bindings) rc.sets

let build_model rc =
  List.fold_left (fun m (a, v) -> M.set m a v) (M.of_list rc.bindings) rc.sets

(* A second recipe for the same tuple: its bindings shuffled, with a
   null binding for an attribute it lacks. Makes equal pairs common. *)
let same_gen rc =
  QCheck.Gen.(
    map2
      (fun shuffled extra ->
        let t = build rc in
        let extra =
          if Value.is_null (Tuple.get t extra) then [ (extra, Value.Null) ]
          else []
        in
        { bindings = shuffled @ extra; sets = [] })
      (shuffle_l (Tuple.to_list (build rc)))
      attr_gen)

let attr_set_gen =
  QCheck.Gen.(map Attr.Set.of_list (list_size (int_bound 5) attr_gen))

let mapping_gen = QCheck.Gen.(list_size (int_bound 3) (pair attr_gen attr_gen))

type case = {
  r1 : recipe;
  r2 : recipe;
  x : Attr.Set.t;
  mapping : (Attr.t * Attr.t) list;
  probe : Attr.t * Value.t;
}

let case_gen =
  QCheck.Gen.(
    recipe_gen >>= fun r1 ->
    frequency [ (2, recipe_gen); (1, same_gen r1) ] >>= fun r2 ->
    attr_set_gen >>= fun x ->
    mapping_gen >>= fun mapping ->
    binding_gen >|= fun probe -> { r1; r2; x; mapping; probe })

let print_bindings l =
  String.concat "; "
    (List.map (fun (a, v) -> Attr.name a ^ "=" ^ Value.to_string v) l)

let print_case c =
  let recipe rc =
    Printf.sprintf "of_list [%s], then set [%s]" (print_bindings rc.bindings)
      (print_bindings rc.sets)
  in
  Printf.sprintf "r1: %s\nr2: %s\nx: %s\nrename: %s\nset: %s" (recipe c.r1)
    (recipe c.r2)
    (Pp.to_string Attr.pp_set c.x)
    (String.concat "; "
       (List.map (fun (a, b) -> Attr.name a ^ "->" ^ Attr.name b) c.mapping))
    (print_bindings [ c.probe ])

let same_bindings l l' =
  List.equal (fun (a, v) (b, w) -> Attr.equal a b && Value.equal v w) l l'

let agrees t m = same_bindings (Tuple.to_list t) (M.to_list m)
let sign c = Int.compare c 0

let outcome f =
  match f () with v -> Ok v | exception Exec_error.Error e -> Error e

let agrees_with_model =
  QCheck.Test.make ~count:2000 ~name:"Tuple agrees with the map-based model"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let t1 = build c.r1 and t2 = build c.r2 in
      let m1 = build_model c.r1 and m2 = build_model c.r2 in
      let a, v = c.probe in
      let keys t = List.rev (Tuple.fold (fun a _ acc -> a :: acc) t []) in
      let model_keys m = List.rev (M.fold (fun a _ acc -> a :: acc) m []) in
      let same_opt o o' =
        match (o, o') with
        | Some t, Some m -> agrees t m
        | None, None -> true
        | _ -> false
      in
      let same_outcome o o' =
        match (o, o') with
        | Ok t, Ok m -> agrees t m
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      agrees t1 m1 && agrees t2 m2
      && List.equal Attr.equal (keys t1) (model_keys m1)
      && Attr.Set.equal (Tuple.attrs t1) (M.attrs m1)
      && Array.for_all
           (fun n ->
             let a = Attr.make n in
             Value.equal (Tuple.get t1 a) (M.get m1 a))
           pool
      && agrees (Tuple.set t1 a v) (M.set m1 a v)
      && sign (Tuple.compare t1 t2) = sign (M.compare m1 m2)
      && Tuple.equal t1 t2 = M.equal m1 m2
      && ((not (Tuple.equal t1 t2)) || Tuple.hash t1 = Tuple.hash t2)
      && Tuple.more_informative t1 t2 = M.more_informative m1 m2
      && Tuple.more_informative t2 t1 = M.more_informative m2 m1
      && Tuple.strictly_more_informative t1 t2
         = M.strictly_more_informative m1 m2
      && agrees (Tuple.meet t1 t2) (M.meet m1 m2)
      && same_opt (Tuple.join t1 t2) (M.join m1 m2)
      && Tuple.joinable t1 t2 = M.joinable m1 m2
      && agrees (Tuple.restrict t1 c.x) (M.restrict m1 c.x)
      && agrees (Tuple.remove t1 c.x) (M.remove m1 c.x)
      && Tuple.is_total_on c.x t1 = M.is_total_on c.x m1
      && Tuple.is_null_tuple t1 = M.is_null_tuple m1
      && same_outcome
           (outcome (fun () -> Tuple.rename c.mapping t1))
           (outcome (fun () -> M.rename c.mapping m1)))

(* Signatures against the attribute sets they stand for. *)
let signatures_agree =
  QCheck.Test.make ~count:1000 ~name:"signatures agree with attribute sets"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let t1 = build c.r1 and t2 = build c.r2 in
      let s1 = Tuple.signature t1 and s2 = Tuple.signature t2 in
      let x1 = Tuple.attrs t1 and x2 = Tuple.attrs t2 in
      sign (Tuple.compare_signature s1 s2) = sign (Attr.Set.compare x1 x2)
      && Tuple.subset_signature s1 s2 = Attr.Set.subset x1 x2
      && Tuple.is_total_on_signature s1 t2 = Tuple.is_total_on x1 t2
      && Tuple.equal (Tuple.restrict_signature t2 s1) (Tuple.restrict t2 x1))

(* A builder's positions may come in any order and repeat an
   attribute; its tuple equals a [set] per binding, in binding order. *)
let builder_is_set_per_binding =
  QCheck.Test.make ~count:1000
    ~name:"a builder's tuple = a Tuple.set per binding"
    (QCheck.make
       ~print:(fun (cols, binds) ->
         Printf.sprintf "columns [%s], bind [%s]"
           (String.concat "; " (List.map Attr.name cols))
           (String.concat "; "
              (List.map
                 (fun (i, v) -> Printf.sprintf "%d=%s" i (Value.to_string v))
                 binds)))
       QCheck.Gen.(
         list_size (int_range 1 6) attr_gen >>= fun cols ->
         list_size (int_bound 8)
           (pair (int_bound (List.length cols - 1)) model_value_gen)
         >|= fun binds -> (cols, binds)))
    (fun (cols, binds) ->
      let b = Tuple.builder (Array.of_list cols) in
      let expected =
        List.fold_left
          (fun t (i, v) -> Tuple.set t (List.nth cols i) v)
          Tuple.empty binds
      in
      (* Twice: a build leaves every attribute unbound again. *)
      List.for_all
        (fun () ->
          List.iter (fun (i, v) -> Tuple.bind b i v) binds;
          let t = Tuple.build b in
          Tuple.equal t expected && Tuple.compare t expected = 0)
        [ (); () ])

(* Rows of one null pattern that one builder builds share their key
   array, and [compare] then reads their values alone: it must still
   order them as the model does. Half the second row's values repeat
   the first's, so equal and near-equal pairs are common. *)
let shared_keys_compare =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 5) attr_gen >>= fun cols ->
      let cols = List.sort_uniq Attr.compare cols in
      list_repeat (List.length cols) bool >>= fun bound ->
      let value =
        model_value_gen >|= fun v ->
        if Value.is_null v then Value.Int 0 else v
      in
      list_repeat (List.length cols) value >>= fun row1 ->
      list_repeat (List.length cols) (pair bool value) >|= fun picks ->
      let row2 =
        List.map2 (fun v (same, w) -> if same then v else w) row1 picks
      in
      let mask row =
        List.map2 (fun on v -> if on then v else Value.Null) bound row
      in
      (cols, mask row1, mask row2))
  in
  QCheck.Test.make ~count:2000
    ~name:"compare on a shared key array agrees with the model"
    (QCheck.make
       ~print:(fun (cols, r1, r2) ->
         let row r = print_bindings (List.combine cols r) in
         Printf.sprintf "r1: %s\nr2: %s" (row r1) (row r2))
       gen)
    (fun (cols, row1, row2) ->
      let b = Tuple.builder (Array.of_list cols) in
      let build row =
        List.iteri (Tuple.bind b) row;
        Tuple.build b
      in
      let t1 = build row1 and t2 = build row2 in
      let m1 = M.of_list (List.combine cols row1)
      and m2 = M.of_list (List.combine cols row2) in
      Tuple.signature t1 == Tuple.signature t2
      && agrees t1 m1 && agrees t2 m2
      && sign (Tuple.compare t1 t2) = sign (M.compare m1 m2)
      && sign (Tuple.compare t2 t1) = sign (M.compare m2 m1)
      && Tuple.equal t1 t2 = M.equal m1 m2)

let suite =
  List.map to_alcotest
    [
      agrees_with_model;
      signatures_agree;
      builder_is_set_per_binding;
      shared_keys_compare;
      reflexive;
      antisymmetric;
      transitive;
      null_tuple_is_bottom;
      meet_commutative;
      meet_associative;
      meet_idempotent;
      meet_is_glb;
      join_commutative;
      join_is_lub;
      joinable_iff_upper_bound;
      order_via_meet_join;
      absorption;
      restrict_monotone;
      restrict_distributes_over_meet;
      canonical_no_nulls;
      meet_in_u_star;
    ]
