open Nullrel

exception Error of string

(* The dialect's state machine over [src]: [cell quoted buf] for each
   cell in order, with the cell's text in [buf], and [row ()] after each
   row's last cell. Raises {!Error} at the first syntax error. *)
let scan src ~cell ~row =
  let n = String.length src in
  let buf = Buffer.create 32 in
  let quoted = ref false and cells = ref 0 in
  let flush_cell () =
    cell !quoted buf;
    Buffer.clear buf;
    quoted := false;
    incr cells
  in
  let flush_row () =
    flush_cell ();
    row ();
    cells := 0
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
  if Buffer.length buf > 0 || !cells > 0 || !quoted then flush_row ()

let value_of_cell ?domain quoted s =
  if quoted then Value.Str s
  else if String.equal s "-" then Value.Null
  else
    match domain with
    | None -> Value.of_string_guess s
    | Some d -> (
        match d with
        | Domain.Int_range _ | Domain.Ints -> (
            match int_of_string s with
            | i -> Value.int i
            | exception Failure _ ->
                raise (Error (Printf.sprintf "expected an integer, got %S" s)))
        | Domain.Floats -> (
            match float_of_string_opt s with
            | Some f -> Value.Float f
            | None ->
                raise (Error (Printf.sprintf "expected a float, got %S" s)))
        | Domain.Bools -> (
            match bool_of_string_opt s with
            | Some b -> Value.Bool b
            | None ->
                raise (Error (Printf.sprintf "expected a bool, got %S" s)))
        | Domain.Enum _ | Domain.Strings -> Value.Str s)

(* Two scans. The first raises any syntax error and keeps the header,
   so a malformed file fails the same way wherever its first bad value
   sits. The second binds each row's cells straight into a tuple
   builder, holding one row's cells at a time: its cell count is
   checked before any of its values is read. *)
let read_string ?schema src =
  let header = ref None and first = ref [] in
  scan src
    ~cell:(fun quoted buf ->
      if Option.is_none !header then
        first := (quoted, Buffer.contents buf) :: !first)
    ~row:(fun () ->
      if Option.is_none !header then header := Some (List.rev !first));
  match !header with
  | None -> raise (Error "empty CSV: missing header")
  | Some header ->
      let attrs =
        List.map
          (fun (_, s) ->
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
      let domains = Array.of_list (List.map domain_of attrs) in
      let width = Array.length domains in
      (* One builder for the file: the rows of one null pattern share
         their key array. *)
      let b = Tuple.builder (Array.of_list attrs) in
      let quoted = Array.make width false and texts = Array.make width "" in
      let in_header = ref true and k = ref 0 and tuples = ref [] in
      scan src
        ~cell:(fun q buf ->
          if (not !in_header) && !k < width then begin
            quoted.(!k) <- q;
            texts.(!k) <- Buffer.contents buf
          end;
          incr k)
        ~row:(fun () ->
          if !in_header then in_header := false
          else begin
            if !k <> width then
              raise
                (Error
                   (Printf.sprintf "row has %d cells, header has %d" !k width));
            for i = 0 to width - 1 do
              Tuple.bind b i
                (value_of_cell ?domain:domains.(i) quoted.(i) texts.(i))
            done;
            tuples := Tuple.build b :: !tuples
          end;
          k := 0);
      (attrs, Xrel.of_list (List.rev !tuples))

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
