(* Invariant: the wrapped relation is always a minimal representation. *)

type t = Relation.t

let h_minimize_in =
  Obs.Metrics.histogram
    ~help:"Relation size entering minimization (tuples)"
    "nullrel_minimize_input_tuples"

let h_minimize_out =
  Obs.Metrics.histogram
    ~help:"Minimal representation size after minimization (tuples)"
    "nullrel_minimize_output_tuples"

let minimized r =
  if Obs.Metrics.is_enabled () then begin
    (* Cardinal is O(n); only pay for it when someone is watching. *)
    Obs.Metrics.observe h_minimize_in (Relation.cardinal r);
    let m = Kernel.minimize r in
    Obs.Metrics.observe h_minimize_out (Relation.cardinal m);
    m
  end
  else Kernel.minimize r

let of_relation r = minimized r
let of_list ts = of_relation (Relation.of_list ts)
let of_tuples ts = of_relation (Relation.of_tuples ts)
let unsafe_of_minimal r = r
let rep x = x
let to_list = Relation.to_list
let cardinal = Relation.cardinal
let is_empty = Relation.is_empty
let scope = Relation.scope
let equal = Relation.equal
let compare = Relation.compare
let x_mem = Relation.x_mem
let contains x1 x2 = Kernel.subsumes x1 x2
let properly_contains x1 x2 = contains x1 x2 && not (equal x1 x2)
let union x1 x2 = minimized (Relation.union x1 x2)

let inter x1 x2 =
  let meets =
    Relation.fold
      (fun r1 acc ->
        Relation.fold
          (fun r2 acc ->
            Exec.tick ();
            Relation.add (Tuple.meet r1 r2) acc)
          x2 acc)
      x1 Relation.empty
  in
  minimized meets

let diff x1 x2 = Relation.filter (fun r -> not (Relation.x_mem r x2)) x1
let bottom = Relation.empty

type universe = (Attr.t * Domain.t) list

let top universe =
  let budget = 1 lsl 20 in
  let size =
    List.fold_left
      (fun acc (_, dom) ->
        match Domain.cardinal dom with
        | Some n when acc * max n 1 <= budget -> acc * max n 1
        | Some _ -> Exec_error.bad_input "Xrel.top: universe too large"
        | None -> raise (Domain.Infinite "Xrel.top"))
      1 universe
  in
  ignore size;
  let rec build = function
    | [] -> [ Tuple.empty ]
    | (a, dom) :: rest ->
        let tails = build rest in
        List.concat_map
          (fun v ->
            List.map
              (fun t ->
                Exec.tick ();
                Tuple.set t a v)
              tails)
          (Domain.members dom)
  in
  of_list (build universe)

let pseudo_complement universe x = diff (top universe) x

let filter p x =
  Relation.filter
    (fun r ->
      Exec.tick ();
      p r)
    x
let set_inter_total x1 x2 = Relation.filter (fun r -> Relation.mem r x2) x1

let pp ppf x = Relation.pp ppf x
