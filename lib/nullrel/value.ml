type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Type_error of string

let null = Null
let is_null = function Null -> true | _ -> false

(* One shared box per integer in [-128, 255]: a stored relation holds
   its small values without a block per cell. *)
let small_min = -128
let small_ints = Array.init 384 (fun i -> Int (small_min + i))

let int i =
  let k = i - small_min in
  if k >= 0 && k < Array.length small_ints then Array.unsafe_get small_ints k
  else Int i

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Bool _ -> "bool"

let equal v w =
  match (v, w) with
  | Null, Null -> true
  | Int a, Int b -> Int.equal a b
  | Float a, Float b -> Float.equal a b
  | Str a, Str b -> String.equal a b
  | Bool a, Bool b -> Bool.equal a b
  | (Null | Int _ | Float _ | Str _ | Bool _), _ -> false

(* Rank of each constructor in the container order; [Null] first. *)
let rank = function
  | Null -> 0
  | Int _ -> 1
  | Float _ -> 2
  | Str _ -> 3
  | Bool _ -> 4

let compare v w =
  match (v, w) with
  | Null, Null -> 0
  | Int a, Int b -> Int.compare a b
  | Float a, Float b -> Float.compare a b
  | Str a, Str b -> String.compare a b
  | Bool a, Bool b -> Bool.compare a b
  | _ -> Int.compare (rank v) (rank w)

let hash = Hashtbl.hash

let kind = function Null -> 0 | v -> 1 lsl rank v

let type_error v w =
  raise
    (Type_error
       (Printf.sprintf "cannot compare %s with %s" (type_name v) (type_name w)))

let compare3 v w =
  match (v, w) with
  | Null, _ | _, Null -> None
  | Int a, Int b -> Some (Int.compare a b)
  | Float a, Float b -> Some (Float.compare a b)
  | Str a, Str b -> Some (String.compare a b)
  | Bool a, Bool b -> Some (Bool.compare a b)
  | _ -> type_error v w

let to_string = function
  | Null -> "-"
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Str s -> s
  | Bool b -> string_of_bool b

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_string_guess s =
  if String.equal s "-" then Null
  else
    match int_of_string_opt s with
    | Some i -> int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> (
            match bool_of_string_opt s with
            | Some b -> Bool b
            | None -> Str s))
