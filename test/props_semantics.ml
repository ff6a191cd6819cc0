(* Property coverage for the dialect family: the differential harness
   at the acceptance volume, plus seed-randomized spot checks so the
   lattice is exercised on databases the fixed seed never generates. *)

open Workload

let acceptance_run () =
  (* The PR's acceptance bar: >= 500 generated queries, every oracle
     green, at whatever NULLREL_DOMAINS the suite runs under. *)
  let r = Diff.run ~queries:500 () in
  if not (Diff.ok r) then Alcotest.failf "%s" (Diff.render r);
  Alcotest.(check int) "all 500 ran" 500 r.Diff.queries

let seeded_lattice =
  QCheck.Test.make ~count:40 ~name:"containment lattice holds on random dbs"
    (QCheck.make
       ~print:(fun (seed, rows, nulls) ->
         Printf.sprintf "seed=%d rows=%d null_density=%.2f" seed rows
           (float_of_int nulls /. 10.))
       QCheck.Gen.(triple (int_bound 100_000) (int_range 5 30) (int_range 0 6)))
    (fun (seed, rows, nulls) ->
      let spec =
        {
          Diff.default_spec with
          Gen.rows;
          null_density = float_of_int nulls /. 10.;
        }
      in
      let r = Diff.run ~seed ~queries:25 ~spec ~relations:2 () in
      if not (Diff.ok r) then QCheck.Test.fail_report (Diff.render r);
      true)

(* [Quel.Eval.query] as it was before it streamed the product: every
   combined tuple materialized, classified, and each band projected
   afterwards. A band is built by adding its projections in row order,
   as the streamed query does: minimization's scans charge ticks in
   the order the band's tree presents its tuples, and the old
   [Relation.of_list] built a differently shaped tree (a balanced one
   from the sorted list once more than five rows arrived). *)
let materialized (sem : Nullrel.Semantics.t) db (q : Quel.Ast.query) =
  let open Nullrel in
  let p =
    match q.where with
    | None -> Predicate.Const sem.conj_empty
    | Some c -> Quel.Eval.predicate_of_cond c
  in
  Quel.Resolve.check db q;
  let prefixed (v, rel) =
    List.map
      (fun t ->
        Tuple.of_list
          (List.map
             (fun (a, value) -> (Quel.Resolve.prefixed v (Attr.name a), value))
             (Tuple.to_list t)))
      (Xrel.to_list (snd (Quel.Resolve.relation db rel)))
  in
  let rows =
    List.fold_left
      (fun acc range ->
        let tuples = prefixed range in
        List.concat_map
          (fun combined ->
            List.filter_map
              (fun r ->
                Exec.tick ();
                Tuple.join combined r)
              tuples)
          acc)
      [ Tuple.empty ] q.ranges
  in
  let sure_rows, maybe_rows =
    List.fold_left
      (fun (sure, maybe) r ->
        Exec.tick ();
        match sem.admit (Semantics.eval sem p r) with
        | Semantics.Sure -> (r :: sure, maybe)
        | Semantics.Maybe -> (sure, r :: maybe)
        | Semantics.Out -> (sure, maybe))
      ([], []) rows
  in
  let attrs = List.map (Quel.Eval.target_attr q.targets) q.targets in
  let scope = Attr.Set.of_list attrs in
  let band rows =
    List.rev rows
    |> List.map (fun r ->
           Tuple.of_list
             (List.map2
                (fun (v, a) out -> (out, Tuple.get r (Quel.Resolve.prefixed v a)))
                q.targets attrs))
    |> List.filter (Semantics.admit_tuple sem scope)
    |> List.fold_left (fun band t -> Relation.add t band) Relation.empty
  in
  let sure = band sure_rows in
  let sure = if sem.minimize then Xrel.rep (Xrel.of_relation sure) else sure in
  let maybe =
    if not sem.reports_maybe then None
    else
      let b = band maybe_rows in
      Some
        (if sem.exclude_sure then
           Relation.filter (fun r -> not (Relation.mem r sure)) b
         else b)
  in
  (attrs, sure, maybe)

(* Answers and charged ticks, under a governor that only counts. *)
let charged f =
  let g = Nullrel.Exec.make () in
  let v = Nullrel.Exec.with_governor g f in
  (v, Nullrel.Exec.charged g)

let streamed_product =
  QCheck.Test.make ~count:60
    ~name:"streamed query = materialized product, ticks included"
    (QCheck.make
       ~print:(fun (seed, rows) -> Printf.sprintf "seed=%d rows=%d" seed rows)
       QCheck.Gen.(pair (int_bound 100_000) (int_range 3 25)))
    (fun (seed, rows) ->
      let g = Prng.create seed in
      let spec = { Diff.default_spec with Gen.rows } in
      let db = Gen.db g spec 2 in
      List.for_all
        (fun _ ->
          let q = Diff.gen_query g db in
          List.for_all
            (fun sem ->
              let want, ticks = charged (fun () -> materialized sem db q) in
              let b, got_ticks =
                charged (fun () ->
                    Quel.Eval.query (Quel.Eval.ctx ~semantics:sem ()) db q)
              in
              let attrs, sure, maybe = want in
              let same =
                attrs = b.Quel.Eval.attrs
                && Nullrel.Relation.equal sure b.Quel.Eval.sure
                && Option.equal Nullrel.Relation.equal maybe b.Quel.Eval.maybe
                && ticks = got_ticks
              in
              if not same then
                QCheck.Test.fail_reportf "%a under %s: ticks %d vs %d"
                  Quel.Ast.pp q
                  (Nullrel.Semantics.to_string sem.dialect)
                  ticks got_ticks;
              true)
            Nullrel.Semantics.all)
        (List.init 8 Fun.id))

let suite =
  [
    Alcotest.test_case "differential harness, 500 queries" `Quick
      acceptance_run;
    QCheck_alcotest.to_alcotest seeded_lattice;
    QCheck_alcotest.to_alcotest streamed_product;
  ]
