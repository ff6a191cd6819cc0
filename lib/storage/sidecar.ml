exception Error of string

let version = "1"

type t = { lsn : int; stamps : (string * string) list }

let header kind lsn = [ "nullrel-" ^ kind; version; string_of_int lsn ]

let seal lines =
  let buf = Buffer.create 256 in
  let line fields =
    Buffer.add_string buf (String.concat "\t" fields);
    Buffer.add_char buf '\n'
  in
  List.iter line lines;
  line [ "end"; Crc32.to_hex (Crc32.digest (Buffer.contents buf)) ];
  Buffer.contents buf

(* The trailer is the first line tagged [end]; only empty lines may
   follow it, and its checksum must cover every byte before it. *)
let unseal text =
  let rec split body = function
    | [] -> None
    | line :: rest when String.starts_with ~prefix:"end\t" line ->
        let body = List.rev body in
        let crc = Crc32.of_hex (String.sub line 4 (String.length line - 4)) in
        if
          List.for_all (String.equal "") rest
          && crc
             = Some
                 (Crc32.digest
                    (String.concat "" (List.map (fun l -> l ^ "\n") body)))
        then Some (List.map (String.split_on_char '\t') body)
        else None
    | line :: rest -> split (line :: body) rest
  in
  split [] (String.split_on_char '\n' text)

(* A header of another kind, or no header at all, means this is not the
   file asked for: absent. Another version under the right magic is not
   damage but the future, so it raises. *)
let open_header kind lines =
  match (kind, lines) with
  | None, lines -> Some (0, lines)
  | Some kind, [ magic; v; lsn ] :: lines
    when String.equal magic ("nullrel-" ^ kind) ->
      if not (String.equal v version) then
        raise (Error (Printf.sprintf "unsupported %s version %s" kind v));
      Option.map (fun lsn -> (lsn, lines)) (int_of_string_opt lsn)
  | Some _, _ -> None

let read io path ?kind entry =
  if not (io.Io.file_exists path) then `Absent
  else
    let decoded =
      Option.bind (unseal (io.Io.read_file path)) (fun lines ->
          Option.bind (open_header kind lines) (fun (lsn, lines) ->
              let stamps, lines =
                List.partition_map
                  (function
                    | [ "stamp"; rel; crc ] -> Either.Left (rel, crc)
                    | fields -> Either.Right fields)
                  lines
              in
              let entries = List.map entry lines in
              if List.exists Option.is_none entries then None
              else Some ({ lsn; stamps }, List.filter_map Fun.id entries)))
    in
    match decoded with None -> `Damaged | Some loaded -> `Loaded loaded

let stamp_lines data_crcs rels =
  List.filter_map
    (fun rel ->
      Option.map
        (fun crc -> [ "stamp"; rel; crc ])
        (List.assoc_opt rel data_crcs))
    (List.sort_uniq String.compare rels)

let fresh stamps ~loaded rel =
  match (List.assoc_opt rel stamps, loaded rel) with
  | Some stamp, Some crc -> String.equal stamp crc
  | _ -> false
