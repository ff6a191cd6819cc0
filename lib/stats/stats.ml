open Nullrel

type column = {
  nulls : int;
  distinct : int;
  min_int : int option;
  max_int : int option;
}

type table = { rows : int; columns : (Attr.t * column) list }

(* ------------------------- observability ---------------------- *)

let lookup_counter =
  let tbl = Hashtbl.create 4 in
  fun outcome ->
    match Hashtbl.find_opt tbl outcome with
    | Some c -> c
    | None ->
        let c =
          Obs.Metrics.counter
            ~labels:[ ("outcome", outcome) ]
            ~help:"Planner statistics lookups by outcome"
            "nullrel_stats_lookups_total"
        in
        Hashtbl.add tbl outcome c;
        c

let count_hit () = Obs.Metrics.inc (lookup_counter "hit")
let count_miss () = Obs.Metrics.inc (lookup_counter "miss")
let count_stale () = Obs.Metrics.inc (lookup_counter "stale")

let m_analyzed =
  Obs.Metrics.counter ~help:"Relations analyzed by the statistics collector"
    "nullrel_stats_analyze_total"

let m_analyzed_rows =
  Obs.Metrics.counter ~help:"Tuples scanned by the statistics collector"
    "nullrel_stats_analyze_rows_total"

(* --------------------------- collection ----------------------- *)

(* Per-chunk accumulator for one column. Distinct counting is exact
   (a set of seen values) — fine at catalog scale, and chunk sets
   merge by union so the parallel fold computes the same answer. *)
module Value_set = Set.Make (Value)

type col_acc = {
  a_nulls : int;
  a_seen : Value_set.t;
  a_min : int option;
  a_max : int option;
}

let empty_col = { a_nulls = 0; a_seen = Value_set.empty; a_min = None; a_max = None }

let observe_value acc = function
  | Value.Null -> { acc with a_nulls = acc.a_nulls + 1 }
  | Value.Int n ->
      {
        acc with
        a_seen = Value_set.add (Value.Int n) acc.a_seen;
        a_min = Some (match acc.a_min with None -> n | Some m -> min m n);
        a_max = Some (match acc.a_max with None -> n | Some m -> max m n);
      }
  | v -> { acc with a_seen = Value_set.add v acc.a_seen }

let merge_col c1 c2 =
  let opt f a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (f a b)
  in
  {
    a_nulls = c1.a_nulls + c2.a_nulls;
    a_seen = Value_set.union c1.a_seen c2.a_seen;
    a_min = opt min c1.a_min c2.a_min;
    a_max = opt max c1.a_max c2.a_max;
  }

(* One governed pass over the minimal representation: row count plus a
   per-attribute summary, Kernel-dispatched so a large relation is
   chunked over the domain pool. *)
let collect ?strategy ~attrs x =
  let attrs = Array.of_list attrs in
  let arr = Array.of_list (Xrel.to_list x) in
  let chunk ~lo ~hi =
    let cols = Array.make (Array.length attrs) empty_col in
    for j = lo to hi - 1 do
      let t = arr.(j) in
      Array.iteri
        (fun k a -> cols.(k) <- observe_value cols.(k) (Tuple.get t a))
        attrs
    done;
    (hi - lo, cols)
  in
  let combine (n1, c1) (n2, c2) =
    (n1 + n2, Array.map2 merge_col c1 c2)
  in
  let rows, cols =
    Kernel.fold_chunks ?strategy arr ~chunk ~combine
      ~init:(0, Array.map (fun _ -> empty_col) attrs)
  in
  Obs.Metrics.inc m_analyzed;
  Obs.Metrics.add m_analyzed_rows rows;
  {
    rows;
    columns =
      Array.to_list
        (Array.map2
           (fun a acc ->
             ( a,
               {
                 nulls = acc.a_nulls;
                 distinct = Value_set.cardinal acc.a_seen;
                 min_int = acc.a_min;
                 max_int = acc.a_max;
               } ))
           attrs cols);
  }

let column t a =
  List.find_map
    (fun (a', c) -> if Attr.equal a a' then Some c else None)
    t.columns

let null_fraction t c =
  if t.rows = 0 then 0. else float c.nulls /. float t.rows

(* ------------------------- serialization ---------------------- *)

(* The tagged lines of the STATS sidecar (its frame is
   [Storage.Sidecar]'s), one field list per line. One [table] block
   per relation:
   {v
   table <TAB> NAME <TAB> ROWS <TAB> DATA-CRC-HEX
   column <TAB> ATTR <TAB> NULLS <TAB> DISTINCT [<TAB> MIN <TAB> MAX]
   v}
   The DATA-CRC stamps the exact data file the summary was collected
   against; a loader attaches the stats only when the CRC still
   matches, so a torn STATS file or a newer checkpoint silently yields
   no stats rather than wrong ones. *)

exception Corrupt of string

let errorf fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let tables_to_lines entries =
  List.concat_map
    (fun (name, data_crc_hex, t) ->
      [ "table"; name; string_of_int t.rows; data_crc_hex ]
      :: List.map
           (fun (a, c) ->
             [ "column"; Attr.name a; string_of_int c.nulls;
               string_of_int c.distinct ]
             @
             match (c.min_int, c.max_int) with
             | Some lo, Some hi -> [ string_of_int lo; string_of_int hi ]
             | _ -> [])
           t.columns)
    entries

let tables_of_lines lines =
  let int_field what s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> errorf "bad %s %S" what s
  in
  let flush acc = function
    | None -> acc
    | Some (name, crc, rows, cols) ->
        (name, crc, { rows; columns = List.rev cols }) :: acc
  in
  let acc, current =
    List.fold_left
      (fun (acc, current) line ->
        match line with
        | [ "table"; name; rows; crc ] ->
            (flush acc current, Some (name, crc, int_field "row count" rows, []))
        | "column" :: attr :: nulls :: distinct :: rest -> (
            let min_int, max_int =
              match rest with
              | [] -> (None, None)
              | [ lo; hi ] ->
                  (Some (int_field "min" lo), Some (int_field "max" hi))
              | _ -> errorf "bad column line: %s" (String.concat "\t" line)
            in
            let col =
              {
                nulls = int_field "null count" nulls;
                distinct = int_field "distinct count" distinct;
                min_int;
                max_int;
              }
            in
            match current with
            | None -> errorf "column line before any table line"
            | Some (name, crc, rows, cols) ->
                (acc, Some (name, crc, rows, (Attr.make attr, col) :: cols)))
        | _ -> errorf "unparseable stats line: %s" (String.concat "\t" line))
      ([], None) lines
  in
  List.rev (flush acc current)

(* ---------------------------- display ------------------------- *)

let pp_column ppf (a, c) =
  let range =
    match (c.min_int, c.max_int) with
    | Some lo, Some hi -> Printf.sprintf "  %d..%d" lo hi
    | _ -> ""
  in
  Format.fprintf ppf "%s: %d distinct, %d null%s%s" (Attr.name a) c.distinct
    c.nulls
    (if c.nulls = 1 then "" else "s")
    range

let pp ppf t =
  Format.fprintf ppf "%d rows" t.rows;
  List.iter (fun col -> Format.fprintf ppf "@\n  %a" pp_column col) t.columns

let equal_column c1 c2 =
  c1.nulls = c2.nulls && c1.distinct = c2.distinct
  && c1.min_int = c2.min_int && c1.max_int = c2.max_int

let equal t1 t2 =
  t1.rows = t2.rows
  && List.length t1.columns = List.length t2.columns
  && List.for_all2
       (fun (a1, c1) (a2, c2) -> Attr.equal a1 a2 && equal_column c1 c2)
       t1.columns t2.columns
