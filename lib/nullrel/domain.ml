type t =
  | Int_range of int * int
  | Enum of string list
  | Bools
  | Ints
  | Floats
  | Strings

exception Infinite of string

let is_finite = function
  | Int_range _ | Enum _ | Bools -> true
  | Ints | Floats | Strings -> false

let cardinal = function
  | Int_range (lo, hi) -> Some (max 0 (hi - lo + 1))
  | Enum ss -> Some (List.length ss)
  | Bools -> Some 2
  | Ints | Floats | Strings -> None

let members = function
  | Int_range (lo, hi) ->
      List.init (max 0 (hi - lo + 1)) (fun i -> Value.Int (lo + i))
  | Enum ss -> List.map (fun s -> Value.Str s) ss
  | Bools -> [ Value.Bool false; Value.Bool true ]
  | Ints -> raise (Infinite "Ints")
  | Floats -> raise (Infinite "Floats")
  | Strings -> raise (Infinite "Strings")

let mem v dom =
  match (v, dom) with
  | Value.Null, _ -> false
  | Value.Int i, Int_range (lo, hi) -> lo <= i && i <= hi
  | Value.Int _, Ints -> true
  | Value.Float _, Floats -> true
  | Value.Str s, Enum ss -> List.exists (String.equal s) ss
  | Value.Str _, Strings -> true
  | Value.Bool _, Bools -> true
  | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _), _ -> false

let kind = function
  | Int_range _ | Ints -> Value.kind (Value.Int 0)
  | Floats -> Value.kind (Value.Float 0.)
  | Enum _ | Strings -> Value.kind (Value.Str "")
  | Bools -> Value.kind (Value.Bool false)

let pp ppf = function
  | Int_range (lo, hi) -> Format.fprintf ppf "int[%d..%d]" lo hi
  | Enum ss ->
      Format.fprintf ppf "enum{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Format.pp_print_string)
        ss
  | Bools -> Format.pp_print_string ppf "bool"
  | Ints -> Format.pp_print_string ppf "int"
  | Floats -> Format.pp_print_string ppf "float"
  | Strings -> Format.pp_print_string ppf "string"
