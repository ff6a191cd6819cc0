(* Shared test utilities: Alcotest testables for the library types, and
   re-exports of the paper fixtures from Paperdata.Fixtures. *)

open Nullrel

let tvl = Alcotest.testable Tvl.pp Tvl.equal
let value = Alcotest.testable Value.pp Value.equal
let tuple = Alcotest.testable Tuple.pp Tuple.equal
let relation = Alcotest.testable Relation.pp Relation.equal
let xrel = Alcotest.testable Xrel.pp Xrel.equal
let attr_set = Alcotest.testable Attr.pp_set Attr.Set.equal

let i = Paperdata.Fixtures.i
let s = Paperdata.Fixtures.s
let t = Paperdata.Fixtures.t
let rel tuples = Relation.of_list tuples
let x tuples = Xrel.of_list tuples

let check_tvl = Alcotest.check tvl
let check_xrel = Alcotest.check xrel

let emp_schema_v1 = Paperdata.Fixtures.emp_schema_v1
let emp_schema_v2 = Paperdata.Fixtures.emp_schema_v2
let emp_table1 = Paperdata.Fixtures.emp
let emp_table2 = Paperdata.Fixtures.emp
let ps_tuples = Paperdata.Fixtures.ps_tuples
let ps_rel = Paperdata.Fixtures.ps_rel
let ps = Paperdata.Fixtures.ps
let ps'_tuples = Paperdata.Fixtures.ps'_tuples
let ps''_tuples = Paperdata.Fixtures.ps''_tuples
let ps' = Paperdata.Fixtures.ps'
let ps'' = Paperdata.Fixtures.ps''

let a_ name = Attr.make name
let aset names = Attr.set_of_list names

(* [f ()] with span recording on, and whether the calculus evaluator
   answered inside it: {!Quel.Eval.query} runs under a span labelled
   [quel.query.DIALECT]. Leaves recording off and the ring empty. *)
let evaluator_ran f =
  Obs.Span.clear_events ();
  Obs.Span.set_enabled true;
  let x = Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) f in
  let ran =
    List.exists
      (fun e -> String.starts_with ~prefix:"quel.query" e.Obs.Span.label)
      (Obs.Span.events ())
  in
  Obs.Span.clear_events ();
  (x, ran)

(* [f ()] with the pool forced to [d] domains, restoring the previous
   degree (and thus the previous pool) afterwards. *)
let with_domains d f =
  let saved = Par.Pool.domains () in
  Par.Pool.set_domains d;
  Fun.protect ~finally:(fun () -> Par.Pool.set_domains saved) f

(* A pool of 1 domain, where every kernel stays on the calling domain,
   and one of 4, where large inputs fan out. *)
let pools = [ 1; 4 ]

(* [f d] on a pool of [d] domains, for each of [pools]. *)
let each_pool f = List.iter (fun d -> with_domains d (fun () -> f d)) pools
