(* Property tests: algebraic identities of the generalized operators
   (Sections 5-6). *)

open Nullrel
open Qgen

let count = 200

let test name arb prop = QCheck.Test.make ~count ~name arb prop

let eq = Xrel.equal
let a_set = Attr.set_of_list [ "A" ]
let ab_set = Attr.set_of_list [ "A"; "B" ]
let p_a = Predicate.cmp_const "A" Predicate.Le (Value.Int 1)
let p_ab = Predicate.cmp_attrs "A" Predicate.Lt "B"

(* Rename a relation's columns into a disjoint namespace. *)
let shifted =
  List.map (fun n -> (Attr.make n, Attr.make (n ^ "'"))) universe_attrs

let disjoint x1 = Algebra.rename shifted x1

let select_distributes_over_union =
  test "select distributes over union" pair_xrel (fun (x1, x2) ->
      List.for_all
        (fun p ->
          eq
            (Algebra.select p (Xrel.union x1 x2))
            (Xrel.union (Algebra.select p x1) (Algebra.select p x2)))
        [ p_a; p_ab ])

let select_commutes =
  test "successive selections commute" arbitrary_xrel (fun x1 ->
      eq
        (Algebra.select p_a (Algebra.select p_ab x1))
        (Algebra.select p_ab (Algebra.select p_a x1)))

let select_conj_is_composition =
  test "conjunctive selection = composition" arbitrary_xrel (fun x1 ->
      eq
        (Algebra.select Predicate.(p_a &&& p_ab) x1)
        (Algebra.select p_a (Algebra.select p_ab x1)))

let select_shrinks =
  test "selection yields a contained x-relation" arbitrary_xrel (fun x1 ->
      Xrel.contains x1 (Algebra.select p_a x1))

let select_idempotent =
  test "selection is idempotent" arbitrary_xrel (fun x1 ->
      let s = Algebra.select p_a x1 in
      eq s (Algebra.select p_a s))

let select_ab_specializes =
  test "(5.1) equals the general select" arbitrary_xrel (fun x1 ->
      eq
        (Algebra.select_ab (Attr.make "A") Predicate.Lt (Attr.make "B") x1)
        (Algebra.select p_ab x1))

let project_composition =
  test "project X . project Y = project (X n Y)" arbitrary_xrel (fun x1 ->
      eq
        (Algebra.project a_set (Algebra.project ab_set x1))
        (Algebra.project (Attr.Set.inter a_set ab_set) x1))

let project_monotone =
  test "projection is monotone" pair_xrel (fun (x1, x2) ->
      (* x1 u x2 contains x2 by construction *)
      Xrel.contains
        (Algebra.project ab_set (Xrel.union x1 x2))
        (Algebra.project ab_set x2))

let project_scope_identity =
  test "projection onto the scope is the identity" arbitrary_xrel (fun x1 ->
      eq x1 (Algebra.project (Xrel.scope x1) x1))

let product_commutative =
  test "product commutes (disjoint scopes)" pair_xrel (fun (x1, x2) ->
      let x2' = disjoint x2 in
      eq (Algebra.product x1 x2') (Algebra.product x2' x1))

let product_cardinality =
  test "product cardinality on disjoint scopes" pair_xrel (fun (x1, x2) ->
      let x2' = disjoint x2 in
      Xrel.cardinal (Algebra.product x1 x2')
      = Xrel.cardinal x1 * Xrel.cardinal x2')

let product_distributes_over_union =
  test "product distributes over union" triple_xrel (fun (x1, x2, x3) ->
      let x3' = disjoint x3 in
      eq
        (Algebra.product (Xrel.union x1 x2) x3')
        (Xrel.union (Algebra.product x1 x3') (Algebra.product x2 x3')))

let theta_join_is_select_product =
  test "(5.4): theta-join = select . product" pair_xrel (fun (x1, x2) ->
      let x2' = disjoint x2 in
      eq
        (Algebra.theta_join (Attr.make "A") Predicate.Eq (Attr.make "A'") x1
           x2')
        (Algebra.select
           (Predicate.Cmp_attrs (Attr.make "A", Predicate.Eq, Attr.make "A'"))
           (Algebra.product x1 x2')))

let union_join_contains_operands =
  test "union-join contains both operands" pair_xrel (fun (x1, x2) ->
      let uj = Algebra.union_join a_set x1 x2 in
      Xrel.contains uj x1 && Xrel.contains uj x2)

let union_join_contains_equijoin =
  test "union-join contains the equijoin" pair_xrel (fun (x1, x2) ->
      Xrel.contains (Algebra.union_join a_set x1 x2)
        (Algebra.equijoin a_set x1 x2))

let union_join_commutative =
  test "union-join commutes" pair_xrel (fun (x1, x2) ->
      eq (Algebra.union_join a_set x1 x2) (Algebra.union_join a_set x2 x1))

let equijoin_commutative =
  test "equijoin commutes" pair_xrel (fun (x1, x2) ->
      eq (Algebra.equijoin a_set x1 x2) (Algebra.equijoin a_set x2 x1))

let equijoin_self =
  test "equijoin of x with itself contains x's X-total part"
    arbitrary_xrel (fun x1 ->
      Xrel.contains
        (Algebra.equijoin a_set x1 x1)
        (Xrel.filter (Tuple.is_total_on a_set) x1))

let divisions_agree =
  test "the three division characterizations agree" pair_xrel
    (fun (x1, divisor_src) ->
      (* dividend over A,B,C; divisor over shifted columns to keep the
         scopes disjoint. *)
      (* The divisor shares columns B, C with the dividend; only the
         quotient attributes Y = {A} must be outside its scope. *)
      let divisor =
        Algebra.project (Attr.set_of_list [ "B"; "C" ]) divisor_src
      in
      let d1 = Algebra.divide a_set x1 divisor in
      let d2 = Algebra.divide_algebraic a_set x1 divisor in
      let d3 = Algebra.divide_via_images a_set x1 divisor in
      eq d1 d2 && eq d1 d3)

let divide_antitone_in_divisor =
  test "division is antitone in the divisor" triple_xrel
    (fun (x1, s1, s2) ->
      let s1 = Algebra.project (Attr.set_of_list [ "B" ]) s1 in
      let s2 = Algebra.project (Attr.set_of_list [ "B" ]) s2 in
      let big = Xrel.union s1 s2 in
      Xrel.contains
        (Algebra.divide a_set x1 s1)
        (Algebra.divide a_set x1 big))

let divide_recovers_factor =
  test "(R x S) / S >= R for total operands"
    (QCheck.pair arbitrary_total_xrel arbitrary_total_xrel) (fun (x1, x2) ->
      let r = Algebra.project a_set x1 in
      let s = Algebra.project (Attr.set_of_list [ "B" ]) x2 in
      if Xrel.is_empty s then true
      else
        let product = Algebra.product r s in
        Xrel.contains (Algebra.divide a_set product s) r
        && Xrel.contains r (Algebra.divide a_set product s))

let hash_join_agrees =
  test "hash equijoin = nested-loop equijoin" pair_xrel (fun (x1, x2) ->
      eq
        (Storage.Join.hash_equijoin a_set x1 x2)
        (Algebra.equijoin a_set x1 x2)
      && eq
           (Storage.Join.hash_equijoin ab_set x1 x2)
           (Algebra.equijoin ab_set x1 x2))

let hash_union_join_agrees =
  test "hash union-join = union-join" pair_xrel (fun (x1, x2) ->
      eq
        (Storage.Join.hash_union_join a_set x1 x2)
        (Algebra.union_join a_set x1 x2))

let semijoin_antijoin_partition =
  test "semijoin and antijoin partition the left operand" pair_xrel
    (fun (x1, x2) ->
      let sj = Algebra.semijoin a_set x1 x2 in
      let aj = Algebra.antijoin a_set x1 x2 in
      eq x1 (Xrel.union sj aj)
      && List.for_all (fun r -> not (Xrel.x_mem r aj)) (Xrel.to_list sj))

let semijoin_is_join_projection =
  test "semijoin = left tuples whose join row exists" pair_xrel
    (fun (x1, x2) ->
      let joined = Algebra.equijoin a_set x1 x2 in
      let sj = Algebra.semijoin a_set x1 x2 in
      (* every semijoin tuple extends to some joined tuple *)
      List.for_all
        (fun r -> List.exists (fun j -> Tuple.more_informative j r)
            (Xrel.to_list joined))
        (Xrel.to_list sj))

let range_index_agrees =
  test "range index = select_ak for every comparison" arbitrary_xrel
    (fun x1 ->
      let a = Attr.make "A" in
      let idx = Storage.Range_index.build a x1 in
      List.for_all
        (fun cmp ->
          List.for_all
            (fun k ->
              eq
                (Storage.Range_index.select idx cmp (Value.Int k))
                (Algebra.select_ak a cmp (Value.Int k) x1))
            [ 0; 1; 2; 3 ])
        Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ])

let range_index_range_scan =
  test "range scan = conjunctive selection" arbitrary_xrel (fun x1 ->
      let a = Attr.make "A" in
      let idx = Storage.Range_index.build a x1 in
      eq
        (Storage.Range_index.range idx ~lo:(Value.Int 1) ~hi:(Value.Int 2) ())
        (Algebra.select
           Predicate.(cmp_const "A" Ge (Value.Int 1) &&& cmp_const "A" Le (Value.Int 2))
           x1))

let rename_involutive =
  test "rename there and back is the identity" arbitrary_xrel (fun x1 ->
      let back = List.map (fun (o, n) -> (n, o)) shifted in
      eq x1 (Algebra.rename back (Algebra.rename shifted x1)))

let operators_preserve_minimality =
  test "operators yield minimal representations" pair_xrel (fun (x1, x2) ->
      List.for_all
        (fun xr -> Relation.is_minimal (Xrel.rep xr))
        [
          Algebra.select p_a x1;
          Algebra.product x1 (disjoint x2);
          Algebra.project ab_set x1;
          Algebra.equijoin a_set x1 x2;
          Algebra.union_join a_set x1 x2;
          Algebra.divide a_set x1
            (Algebra.project (Attr.set_of_list [ "B" ]) x2);
        ])

(* Rename's fast path: a mapping injective on the scope skips
   re-minimization. Over mappings that relabel, swap, or merge columns
   (a merge may also raise on conflicting values), the result — value
   or exception — equals re-minimizing the renamed tuples. *)
let rename_fast_path_minimizes =
  let mappings =
    List.map
      (List.map (fun (o, n) -> (Attr.make o, Attr.make n)))
      [
        [ ("A", "D") ]; [ ("A", "B"); ("B", "A") ]; [ ("A", "B") ];
        [ ("C", "A") ]; [ ("A", "D"); ("B", "D") ]; [ ("B", "C"); ("C", "E") ];
      ]
  in
  test "rename = re-minimized rename" arbitrary_xrel (fun x1 ->
      List.for_all
        (fun mapping ->
          let slow () =
            Xrel.of_list (List.map (Tuple.rename mapping) (Xrel.to_list x1))
          in
          match (Algebra.rename mapping x1, slow ()) with
          | fast, slow -> eq fast slow && Relation.is_minimal (Xrel.rep fast)
          | exception Exec_error.Error _ -> (
              match slow () with
              | _ -> false
              | exception Exec_error.Error _ -> true))
        mappings)

let suite =
  List.map to_alcotest
    [
      select_distributes_over_union;
      select_commutes;
      select_conj_is_composition;
      select_shrinks;
      select_idempotent;
      select_ab_specializes;
      project_composition;
      project_monotone;
      project_scope_identity;
      product_commutative;
      product_cardinality;
      product_distributes_over_union;
      theta_join_is_select_product;
      union_join_contains_operands;
      union_join_contains_equijoin;
      union_join_commutative;
      equijoin_commutative;
      equijoin_self;
      divisions_agree;
      divide_antitone_in_divisor;
      divide_recovers_factor;
      hash_join_agrees;
      hash_union_join_agrees;
      semijoin_antijoin_partition;
      semijoin_is_join_projection;
      range_index_agrees;
      range_index_range_scan;
      rename_involutive;
      rename_fast_path_minimizes;
      operators_preserve_minimality;
    ]
