type node = {
  label : string;
  est_rows : float;
  actual_rows : int;
  ticks : int;
  elapsed_s : float;
  children : node list;
}

(* Evaluates through [Expr.eval] — the plan that runs, index probes
   included — with an observer that measures each node with
   [Obs.Span.timed] (which works with tracing globally off) and keeps
   it as a child of the node whose evaluation is open around it. Spans
   nest, so [ticks] and [elapsed_s] are inclusive of the children — the
   natural reading of an EXPLAIN ANALYZE tree. *)
let run ~index_probe ~schema ~stats ~env e =
  (* The finished children of every open node, innermost first. *)
  let open_nodes = ref [ [] ] in
  let observe e f =
    let est_rows = Cost.cardinality ~stats e in
    let outer = !open_nodes in
    open_nodes := [] :: outer;
    let rows, m = Obs.Span.timed (Expr.op_label e) f in
    let node =
      {
        label = Expr.op_label e;
        est_rows;
        actual_rows = rows;
        ticks = m.Obs.Span.ticks;
        elapsed_s = m.Obs.Span.duration_s;
        children = List.rev (List.hd !open_nodes);
      }
    in
    open_nodes := (node :: List.hd outer) :: List.tl outer;
    rows
  in
  let x = Expr.eval ~index_probe ~observe ~schema ~env e in
  (x, List.hd (List.hd !open_nodes))

let rec rows prefix n =
  (prefix ^ n.label, n)
  :: List.concat_map (rows (prefix ^ "  ")) n.children

(* Estimation quality of one node: estimate over actual, the symmetric
   "q-error" direction left visible (0.25 means 4x under). Actual-empty
   nodes print "-": any over-estimate of an empty result is infinitely
   wrong and a ratio would only shout about it. *)
let ratio n =
  if n.actual_rows = 0 then "-"
  else Printf.sprintf "%.2f" (n.est_rows /. float n.actual_rows)

(* The heading names the dialect: an analyzed physical plan is always
   the Ni_lower pipeline, so naming it makes the dispatch visible. *)
let render ~semantics root =
  let heading = [ "semantics: " ^ semantics ] in
  let body = rows "" root in
  let est n = Printf.sprintf "%g" n.est_rows in
  let ms n = Printf.sprintf "%.1f" (n.elapsed_s *. 1000.) in
  let header = ("operator", "est", "actual", "est/act", "ticks", "ms") in
  let cells =
    header
    :: List.map
         (fun (label, n) ->
           ( label,
             est n,
             string_of_int n.actual_rows,
             ratio n,
             string_of_int n.ticks,
             ms n ))
         body
  in
  let w f = List.fold_left (fun acc r -> max acc (String.length (f r))) 0 cells in
  let w1 = w (fun (a, _, _, _, _, _) -> a)
  and w2 = w (fun (_, b, _, _, _, _) -> b)
  and w3 = w (fun (_, _, c, _, _, _) -> c)
  and w4 = w (fun (_, _, _, d, _, _) -> d)
  and w5 = w (fun (_, _, _, _, e, _) -> e)
  and w6 = w (fun (_, _, _, _, _, f) -> f) in
  String.concat "\n"
    (heading
    @ List.map
        (fun (a, b, c, d, e, f) ->
          Printf.sprintf "%-*s  %*s  %*s  %*s  %*s  %*s" w1 a w2 b w3 c w4 d
            w5 e w6 f)
        cells)
