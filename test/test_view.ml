(* Views: unfolding, schemas, materialization and their agreement. *)

open Nullrel
open Helpers

let s_schema =
  Schema.make "S" ~key:[ "S#" ]
    [
      ("S#", Domain.Strings);
      ("STATUS", Domain.Int_range (0, 100));
      ("CITY", Domain.Enum [ "London"; "Paris" ]);
    ]

let sp_schema =
  Schema.make "SP"
    [ ("S#", Domain.Strings); ("P#", Domain.Strings); ("QTY", Domain.Ints) ]

let suppliers =
  x
    [
      t [ ("S#", s "s1"); ("STATUS", i 20); ("CITY", s "London") ];
      t [ ("S#", s "s2"); ("STATUS", i 10); ("CITY", s "Paris") ];
      t [ ("S#", s "s3"); ("STATUS", i 30) ];
    ]

let shipments =
  x
    [
      t [ ("S#", s "s1"); ("P#", s "p1"); ("QTY", i 300) ];
      t [ ("S#", s "s2"); ("P#", s "p2"); ("QTY", i 100) ];
      t [ ("S#", s "s3"); ("P#", s "p1"); ("QTY", i 50) ];
    ]

let cat =
  Storage.Catalog.add
    (Storage.Catalog.add Storage.Catalog.empty s_schema suppliers)
    sp_schema shipments

let db : Quel.Resolve.db = Storage.Catalog.to_db cat

let views : Plan.View.env =
  [
    ( "LONDONERS",
      Quel.Parser.parse
        "range of u is S retrieve (u.S#, u.STATUS) where u.CITY = \"London\"" );
    ( "BIG_SHIPMENTS",
      Quel.Parser.parse
        "range of sp is SP retrieve (sp.S#, sp.P#) where sp.QTY >= 100" );
    (* a view over a view *)
    ( "LONDON_SENIORS",
      Quel.Parser.parse
        "range of l is LONDONERS retrieve (l.S#) where l.STATUS >= 15" );
  ]

let run_with_views src =
  let q = Plan.View.expand ~views (Quel.Parser.parse src) in
  (Quel.Eval.run db q).Quel.Eval.rel

let test_expand_simple () =
  check_xrel "query through a view"
    (x [ t [ ("S#", s "s1") ] ])
    (run_with_views
       "range of l is LONDONERS retrieve (l.S#) where l.STATUS >= 15");
  (* the view's own qualification applies: s2 (Paris) never appears *)
  check_xrel "view filters apply"
    (x [ t [ ("S#", s "s1"); ("STATUS", i 20) ] ])
    (run_with_views "range of l is LONDONERS retrieve (l.S#, l.STATUS)")

let test_expand_join_of_view_and_base () =
  check_xrel "join a view against a base relation"
    (x [ t [ ("P#", s "p1") ] ])
    (run_with_views
       "range of l is LONDONERS range of sp is SP retrieve (sp.P#) \
        where l.S# = sp.S#")

let test_nested_views () =
  check_xrel "view over view"
    (x [ t [ ("S#", s "s1") ] ])
    (run_with_views "range of v is LONDON_SENIORS retrieve (v.S#)")

let test_queries_without_views_untouched () =
  let q = Quel.Parser.parse "range of u is S retrieve (u.S#)" in
  Alcotest.(check bool) "no-op expansion" true (Plan.View.expand ~views q == q)

let test_expand_matches_materialize () =
  let db' = Plan.View.db_with_views cat ~views in
  List.iter
    (fun src ->
      let unfolded = run_with_views src in
      let materialized =
        (Quel.Eval.run db' (Quel.Parser.parse src)).Quel.Eval.rel
      in
      check_xrel src unfolded materialized)
    [
      "range of l is LONDONERS retrieve (l.S#, l.STATUS)";
      "range of v is LONDON_SENIORS retrieve (v.S#)";
      "range of b is BIG_SHIPMENTS retrieve (b.P#)";
      "range of l is LONDONERS range of b is BIG_SHIPMENTS retrieve (l.S#) \
       where l.S# = b.S#";
    ]

let test_view_schema () =
  let schema = Plan.View.view_schema db ~views "LONDONERS" in
  Alcotest.(check (list string)) "columns" [ "S#"; "STATUS" ]
    (List.map Attr.name (Schema.attrs schema));
  Alcotest.(check bool) "STATUS keeps its base domain" true
    (Schema.domain schema (a_ "STATUS") = Some (Domain.Int_range (0, 100)))

let test_errors () =
  Alcotest.(check bool) "unknown view column" true
    (try
       ignore (run_with_views "range of l is LONDONERS retrieve (l.CITY)");
       false
     with Plan.View.Error _ -> true);
  let cyclic : Plan.View.env =
    [
      ("V1", Quel.Parser.parse "range of v is V2 retrieve (v.A)");
      ("V2", Quel.Parser.parse "range of v is V1 retrieve (v.A)");
    ]
  in
  Alcotest.(check bool) "cycle detected" true
    (try
       ignore
         (Plan.View.expand ~views:cyclic
            (Quel.Parser.parse "range of v is V1 retrieve (v.A)"));
       false
     with Plan.View.Cycle _ -> true);
  let ambiguous : Plan.View.env =
    [
      ( "AMB",
        Quel.Parser.parse
          "range of a is S range of b is S retrieve (a.S#, b.S#)" );
    ]
  in
  Alcotest.(check bool) "ambiguous view targets rejected" true
    (try
       ignore
         (Plan.View.expand ~views:ambiguous
            (Quel.Parser.parse "range of v is AMB retrieve (v.S#)"));
       false
     with Plan.View.Error _ -> true)

(* Regression: the view-name and column lookups used to be bare
   [List.assoc], so an unknown name escaped as [Not_found] instead of a
   classified [View.Error]. *)
let test_unknown_lookups_classified () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let error_of f =
    try
      ignore (f ());
      None
    with Plan.View.Error msg -> Some msg
  in
  (match error_of (fun () -> Plan.View.view_schema db ~views "NOPE") with
  | Some msg ->
      Alcotest.(check bool) "schema error names the view" true
        (contains msg "NOPE")
  | None -> Alcotest.fail "view_schema on unknown view did not raise");
  Alcotest.(check bool) "materialize on unknown view" true
    (error_of (fun () -> Plan.View.materialize cat ~views "NOPE") <> None);
  match
    error_of (fun () ->
        run_with_views "range of l is LONDONERS retrieve (l.NO_SUCH)")
  with
  | Some msg ->
      Alcotest.(check bool) "column error names view and column" true
        (contains msg "LONDONERS" && contains msg "NO_SUCH")
  | None -> Alcotest.fail "unknown column did not raise"

let suite =
  [
    Alcotest.test_case "simple expansion" `Quick test_expand_simple;
    Alcotest.test_case "view joined with base" `Quick
      test_expand_join_of_view_and_base;
    Alcotest.test_case "nested views" `Quick test_nested_views;
    Alcotest.test_case "view-free queries untouched" `Quick
      test_queries_without_views_untouched;
    Alcotest.test_case "unfolding = materialization" `Quick
      test_expand_matches_materialize;
    Alcotest.test_case "view schemas" `Quick test_view_schema;
    Alcotest.test_case "errors and cycles" `Quick test_errors;
    Alcotest.test_case "unknown lookups are classified" `Quick
      test_unknown_lookups_classified;
  ]
