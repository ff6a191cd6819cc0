open Nullrel

exception Error of string

type cell = Quoted of string | Raw of string

let parse_cells src =
  let n = String.length src in
  let rows = ref [] and row = ref [] and buf = Buffer.create 32 in
  let quoted = ref false in
  let flush_cell () =
    let c = if !quoted then Quoted (Buffer.contents buf) else Raw (Buffer.contents buf) in
    row := c :: !row;
    Buffer.clear buf;
    quoted := false
  in
  let flush_row () =
    flush_cell ();
    rows := List.rev !row :: !rows;
    row := []
  in
  let rec plain i =
    if i >= n then ()
    else
      match src.[i] with
      | ',' ->
          flush_cell ();
          plain (i + 1)
      | '\n' ->
          flush_row ();
          plain (i + 1)
      | '\r' ->
          (* CRLF, CR-only line endings, and a CR at end of file all
             terminate the row *)
          flush_row ();
          plain (if i + 1 < n && src.[i + 1] = '\n' then i + 2 else i + 1)
      | '"' when Buffer.length buf = 0 && not !quoted ->
          quoted := true;
          in_quotes (i + 1)
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and in_quotes i =
    if i >= n then raise (Error "unterminated quoted cell")
    else
      match src.[i] with
      | '"' when i + 1 < n && src.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          in_quotes (i + 2)
      | '"' -> after_quotes (i + 1)
      | c ->
          Buffer.add_char buf c;
          in_quotes (i + 1)
  and after_quotes i =
    if i >= n then ()
    else
      match src.[i] with
      | ',' ->
          flush_cell ();
          plain (i + 1)
      | '\n' ->
          flush_row ();
          plain (i + 1)
      | '\r' ->
          flush_row ();
          plain (if i + 1 < n && src.[i + 1] = '\n' then i + 2 else i + 1)
      | c -> raise (Error (Printf.sprintf "unexpected %C after closing quote" c))
  in
  plain 0;
  if Buffer.length buf > 0 || !row <> [] || !quoted then flush_row ();
  List.rev !rows

let parse src =
  List.map
    (List.map (function Quoted s | Raw s -> s))
    (parse_cells src)

let value_of_cell ?domain cell =
  match (cell, domain) with
  | Quoted s, _ -> Value.Str s
  | Raw "-", _ -> Value.Null
  | Raw s, None -> Value.of_string_guess s
  | Raw s, Some d -> (
      match d with
      | Domain.Int_range _ | Domain.Ints -> (
          match int_of_string_opt s with
          | Some i -> Value.int i
          | None -> raise (Error (Printf.sprintf "expected an integer, got %S" s)))
      | Domain.Floats -> (
          match float_of_string_opt s with
          | Some f -> Value.Float f
          | None -> raise (Error (Printf.sprintf "expected a float, got %S" s)))
      | Domain.Bools -> (
          match bool_of_string_opt s with
          | Some b -> Value.Bool b
          | None -> raise (Error (Printf.sprintf "expected a bool, got %S" s)))
      | Domain.Enum _ | Domain.Strings -> Value.Str s)

let read_string ?schema src =
  match parse_cells src with
  | [] -> raise (Error "empty CSV: missing header")
  | header :: body ->
      let attrs =
        List.map
          (fun cell ->
            match cell with
            | Quoted s | Raw s ->
                if String.equal s "" then raise (Error "empty column name")
                else Attr.make s)
          header
      in
      let domain_of a =
        match schema with
        | None -> None
        | Some sc -> (
            match Schema.domain sc a with
            | Some d -> Some d
            | None ->
                raise
                  (Error
                     (Printf.sprintf "column %s not in schema %s" (Attr.name a)
                        (Schema.name sc))))
      in
      let domains = List.map domain_of attrs in
      let tuple_of_row cells =
        if List.length cells <> List.length attrs then
          raise
            (Error
               (Printf.sprintf "row has %d cells, header has %d"
                  (List.length cells) (List.length attrs)));
        List.fold_left2
          (fun (t, doms) a cell ->
            match doms with
            | d :: rest -> (Tuple.set t a (value_of_cell ?domain:d cell), rest)
            | [] -> assert false)
          (Tuple.empty, domains) attrs cells
        |> fst
      in
      (attrs, Xrel.of_list (List.map tuple_of_row body))

let read_file ?schema path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  read_string ?schema contents

(* The domain of a column is guessed from its first non-null value in
   [Xrel.to_list] order; an all-null column is a string column. *)
let read_relation ?key name path =
  let attrs, x = read_file path in
  let rows = Xrel.to_list x in
  let domain a =
    List.find_map
      (fun r ->
        match Tuple.get r a with
        | Value.Null -> None
        | Value.Int _ -> Some Domain.Ints
        | Value.Float _ -> Some Domain.Floats
        | Value.Bool _ -> Some Domain.Bools
        | Value.Str _ -> Some Domain.Strings)
      rows
    |> Option.value ~default:Domain.Strings
  in
  (Schema.make ?key name (List.map (fun a -> (Attr.name a, domain a)) attrs), x)

let escape_cell s =
  let needs_quoting =
    String.equal s "-" = false
    && (String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
       || String.equal s "")
  in
  if String.exists (fun c -> c = '"') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else if needs_quoting then "\"" ^ s ^ "\""
  else s

let cell_of_value = function
  | Value.Null -> "-"
  | Value.Str s when String.equal s "-" -> "\"-\""
  | v -> escape_cell (Value.to_string v)

let write_string attrs x =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat "," (List.map (fun a -> escape_cell (Attr.name a)) attrs));
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf
        (String.concat ","
           (List.map (fun a -> cell_of_value (Tuple.get r a)) attrs));
      Buffer.add_char buf '\n')
    (Xrel.to_list x);
  Buffer.contents buf

let write_file path attrs x =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (write_string attrs x))
