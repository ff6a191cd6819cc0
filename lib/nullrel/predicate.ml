type comparison = Eq | Neq | Lt | Le | Gt | Ge

let comparison_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let negate_comparison = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Gt -> Le
  | Le -> Gt

let sign_matches cmp c =
  match cmp with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* Table III accounting: every comparison lands in exactly one of the
   three truth values, counted per verdict. *)
let m_verdict =
  let make v =
    Obs.Metrics.counter ~labels:[ ("verdict", v) ]
      ~help:"Three-valued comparison verdicts (Table III)"
      "nullrel_comparison_verdicts_total"
  in
  (make "true", make "false", make "ni")

let count_verdict t =
  let m_true, m_false, m_ni = m_verdict in
  match t with
  | Tvl.True -> Obs.Metrics.inc m_true
  | Tvl.False -> Obs.Metrics.inc m_false
  | Tvl.Ni -> Obs.Metrics.inc m_ni

let apply_comparison cmp v w =
  let t =
    match Value.compare3 v w with
    | None -> Tvl.Ni
    | Some c -> Tvl.of_bool (sign_matches cmp c)
  in
  (* direct ref read: no call on the disabled path *)
  if !Obs.Metrics.enabled then count_verdict t;
  t

type t =
  | Cmp_attrs of Attr.t * comparison * Attr.t
  | Cmp_const of Attr.t * comparison * Value.t
  | And of t * t
  | Or of t * t
  | Not of t
  | Const of Tvl.t

let ( &&& ) p q = And (p, q)
let ( ||| ) p q = Or (p, q)

let cmp_const name cmp v =
  if Value.is_null v then
    Exec_error.bad_input "Predicate.cmp_const: the constant must not be ni";
  Cmp_const (Attr.make name, cmp, v)

let cmp_attrs a cmp b = Cmp_attrs (Attr.make a, cmp, Attr.make b)

let rec eval p r =
  match p with
  | Cmp_attrs (a, cmp, b) -> apply_comparison cmp (Tuple.get r a) (Tuple.get r b)
  | Cmp_const (a, cmp, k) -> apply_comparison cmp (Tuple.get r a) k
  | And (p, q) -> Tvl.and_ (eval p r) (eval q r)
  | Or (p, q) -> Tvl.or_ (eval p r) (eval q r)
  | Not p -> Tvl.not_ (eval p r)
  | Const v -> v

let holds p r = Tvl.equal (eval p r) Tvl.True

let rec attrs = function
  | Cmp_attrs (a, _, b) -> Attr.Set.of_list [ a; b ]
  | Cmp_const (a, _, _) -> Attr.Set.singleton a
  | And (p, q) | Or (p, q) -> Attr.Set.union (attrs p) (attrs q)
  | Not p -> attrs p
  | Const _ -> Attr.Set.empty

(* Two masks can meet two different kinds unless both are the same
   single kind (or either is empty). *)
let rec may_raise kinds = function
  | Cmp_attrs (a, _, b) ->
      let ka = kinds a and kb = kinds b in
      ka <> 0 && kb <> 0 && not (ka = kb && ka land (ka - 1) = 0)
  | Cmp_const (a, _, k) ->
      let kk = Value.kind k in
      kk <> 0 && kinds a land lnot kk <> 0
  | And (p, q) | Or (p, q) -> may_raise kinds p || may_raise kinds q
  | Not p -> may_raise kinds p
  | Const _ -> false

let rec map_attrs f = function
  | Cmp_attrs (a, cmp, b) -> Cmp_attrs (f a, cmp, f b)
  | Cmp_const (a, cmp, k) -> Cmp_const (f a, cmp, k)
  | And (p, q) -> And (map_attrs f p, map_attrs f q)
  | Or (p, q) -> Or (map_attrs f p, map_attrs f q)
  | Not p -> Not (map_attrs f p)
  | Const v -> Const v

let rec pp ppf = function
  | Cmp_attrs (a, cmp, b) ->
      Format.fprintf ppf "%a %s %a" Attr.pp a (comparison_to_string cmp) Attr.pp
        b
  | Cmp_const (a, cmp, k) ->
      Format.fprintf ppf "%a %s %a" Attr.pp a (comparison_to_string cmp)
        Value.pp k
  | And (p, q) -> Format.fprintf ppf "(%a /\\ %a)" pp p pp q
  | Or (p, q) -> Format.fprintf ppf "(%a \\/ %a)" pp p pp q
  | Not p -> Format.fprintf ppf "~%a" pp p
  | Const v -> Tvl.pp ppf v
