type foreign_key = { fk_target : string; fk_pairs : (Attr.t * Attr.t) list }

type t = {
  name : string;
  columns : (Attr.t * Domain.t) list;
  key : Attr.Set.t;
  foreign_keys : foreign_key list;
}

let make ?(key = []) ?(foreign_keys = []) name columns =
  let columns = List.map (fun (n, d) -> (Attr.make n, d)) columns in
  let names = List.map fst columns in
  let rec dup = function
    | [] -> None
    | a :: rest -> if List.exists (Attr.equal a) rest then Some a else dup rest
  in
  (match dup names with
  | Some a ->
      Exec_error.bad_inputf "Schema.make: duplicate attribute %s" (Attr.name a)
  | None -> ());
  let key = Attr.set_of_list key in
  Attr.Set.iter
    (fun k ->
      if not (List.exists (Attr.equal k) names) then
        Exec_error.bad_inputf "Schema.make: key attribute %s not a column"
          (Attr.name k))
    key;
  let foreign_keys =
    List.map
      (fun (locals, target, targets) ->
        if List.length locals <> List.length targets then
          Exec_error.bad_inputf
            "Schema.make: foreign key to %s has mismatched arity" target;
        let pair local referenced =
          let a = Attr.make local in
          if not (List.exists (fun (c, _) -> Attr.equal c a) columns) then
            Exec_error.bad_inputf
              "Schema.make: foreign-key attribute %s not a column" local;
          (a, Attr.make referenced)
        in
        { fk_target = target; fk_pairs = List.map2 pair locals targets })
      foreign_keys
  in
  { name; columns; key; foreign_keys }

let name s = s.name
let attrs s = List.map fst s.columns
let attr_set s = Attr.Set.of_list (attrs s)
let key s = s.key
let foreign_keys s = s.foreign_keys

let domain s a =
  List.find_map
    (fun (a', d) -> if Attr.equal a a' then Some d else None)
    s.columns

let mem s a = List.exists (fun (a', _) -> Attr.equal a a') s.columns
let universe s = s.columns

let add_column s name dom =
  let a = Attr.make name in
  if mem s a then
    Exec_error.bad_inputf "Schema.add_column: %s already exists" name;
  { s with columns = s.columns @ [ (a, dom) ] }

type violation =
  | Unknown_attribute of Attr.t
  | Domain_mismatch of Attr.t * Value.t
  | Null_in_key of Attr.t
  | Duplicate_key of Tuple.t

let pp_violation ppf = function
  | Unknown_attribute a -> Format.fprintf ppf "unknown attribute %a" Attr.pp a
  | Domain_mismatch (a, v) ->
      Format.fprintf ppf "value %a outside the domain of %a" Value.pp v Attr.pp
        a
  | Null_in_key a -> Format.fprintf ppf "null in key attribute %a" Attr.pp a
  | Duplicate_key k -> Format.fprintf ppf "duplicate key %a" Tuple.pp k

(* [a]'s domain violation at value [v], looked up without a closure or
   an option per binding: loads check every stored cell. *)
let rec binding_violation columns a v acc =
  match columns with
  | [] -> Unknown_attribute a :: acc
  | (a', d) :: rest ->
      if Attr.equal a a' then
        if Domain.mem v d then acc else Domain_mismatch (a, v) :: acc
      else binding_violation rest a v acc

let check_tuple s r =
  let domain_violations = Tuple.fold (binding_violation s.columns) r [] in
  let key_violations =
    if Tuple.is_total_on s.key r then []
    else
      Attr.Set.fold
        (fun a acc ->
          if Value.is_null (Tuple.get r a) then Null_in_key a :: acc else acc)
        s.key []
  in
  List.rev_append domain_violations key_violations

(* Key restrictions seen so far, hashed as tuples. *)
module Key_table = Hashtbl.Make (Tuple)

let check s x =
  let per_tuple =
    List.concat_map (fun r -> check_tuple s r) (Xrel.to_list x)
  in
  let duplicates =
    if Attr.Set.is_empty s.key then []
    else
      let seen = Key_table.create (Xrel.cardinal x) in
      let key = Tuple.signature_of_attrs s.key in
      List.filter_map
        (fun r ->
          let k = Tuple.restrict_signature r key in
          if Key_table.mem seen k then Some (Duplicate_key k)
          else (
            Key_table.add seen k ();
            None))
        (Xrel.to_list x)
  in
  per_tuple @ duplicates

let pp ppf s =
  let pp_col ppf (a, d) = Format.fprintf ppf "%a: %a" Attr.pp a Domain.pp d in
  Format.fprintf ppf "%s(%a)" s.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_col)
    s.columns;
  if not (Attr.Set.is_empty s.key) then
    Format.fprintf ppf " key %a" Attr.pp_set s.key
