open Nullrel

exception Error = Sidecar.Error

let errorf fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* ------------------------ schema format ----------------------- *)

let domain_fields = function
  | Domain.Ints -> [ "int" ]
  | Domain.Floats -> [ "float" ]
  | Domain.Strings -> [ "string" ]
  | Domain.Bools -> [ "bool" ]
  | Domain.Int_range (lo, hi) ->
      [ "intrange"; string_of_int lo; string_of_int hi ]
  | Domain.Enum values -> "enum" :: values

let domain_of_fields = function
  | [ "int" ] -> Domain.Ints
  | [ "float" ] -> Domain.Floats
  | [ "string" ] -> Domain.Strings
  | [ "bool" ] -> Domain.Bools
  | [ "intrange"; lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi -> Domain.Int_range (lo, hi)
      | _ -> errorf "bad intrange bounds %s..%s" lo hi)
  | "enum" :: values -> Domain.Enum values
  | fields -> errorf "unknown domain %s" (String.concat " " fields)

let schema_to_string schema =
  let buf = Buffer.create 256 in
  let line fields =
    Buffer.add_string buf (String.concat "\t" fields);
    Buffer.add_char buf '\n'
  in
  line [ "relation"; Schema.name schema ];
  List.iter
    (fun (a, d) -> line (("column" :: [ Attr.name a ]) @ domain_fields d))
    (Schema.universe schema);
  (if not (Attr.Set.is_empty (Schema.key schema)) then
     line
       ("key" :: List.map Attr.name (Attr.Set.elements (Schema.key schema))));
  List.iter
    (fun fk ->
      let pairs =
        List.concat_map
          (fun (local, referenced) -> [ Attr.name local; Attr.name referenced ])
          fk.Schema.fk_pairs
      in
      line (("fk" :: [ fk.Schema.fk_target ]) @ pairs))
    (Schema.foreign_keys schema);
  Buffer.contents buf

let schema_of_string text =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let parse_line acc line =
    let name, columns, key, fks = acc in
    match String.split_on_char '\t' line with
    | [ "relation"; n ] -> (Some n, columns, key, fks)
    | "column" :: attr :: domain ->
        (name, (attr, domain_of_fields domain) :: columns, key, fks)
    | "key" :: attrs -> (name, columns, attrs, fks)
    | "fk" :: target :: pairs ->
        let rec pair_up = function
          | [] -> ([], [])
          | local :: referenced :: rest ->
              let locals, refs = pair_up rest in
              (local :: locals, referenced :: refs)
          | [ _ ] -> errorf "fk line has an odd number of attributes"
        in
        let locals, refs = pair_up pairs in
        (name, columns, key, (locals, target, refs) :: fks)
    | _ -> errorf "unparseable schema line: %s" line
  in
  let name, columns, key, fks =
    List.fold_left parse_line (None, [], [], []) lines
  in
  match name with
  | None -> errorf "schema file has no 'relation' line"
  | Some name ->
      Schema.make ~key ~foreign_keys:(List.rev fks) name (List.rev columns)

(* ------------------------- sidecar files ------------------------ *)

(* The four files beside the data share one self-checksummed frame
   ({!Sidecar}); each is a schema of tagged lines over it. *)

let manifest_name = "MANIFEST"
let pending_name = "MANIFEST.next"

type manifest = { m_lsn : int; m_entries : (string * (int * int)) list }

let manifest_to_string m =
  Sidecar.seal
    (Sidecar.header "manifest" m.m_lsn
    :: List.map
         (fun (name, (scrc, dcrc)) ->
           [ "relation"; name; Crc32.to_hex scrc; Crc32.to_hex dcrc ])
         m.m_entries)

(* [None] means absent, torn or not a manifest at all. *)
let read_manifest io dir name =
  match
    Sidecar.read io (Filename.concat dir name) ~kind:"manifest" (function
      | [ "relation"; rel; s_hex; d_hex ] -> (
          match (Crc32.of_hex s_hex, Crc32.of_hex d_hex) with
          | Some s, Some d -> Some (rel, (s, d))
          | _ -> None)
      | _ -> None)
  with
  | `Loaded (s, m_entries) -> Some { m_lsn = s.Sidecar.lsn; m_entries }
  | `Absent | `Damaged -> None

(* Expose the checkpoint's per-relation CRC stamps (schema, data) as
   hex, for sysview's sys_relations. Empty when the directory has no
   readable primary manifest — the caller renders that as ni. *)
let manifest_crcs ?(io = Io.real) ~dir () =
  match read_manifest io dir manifest_name with
  | None -> []
  | Some m ->
      List.map
        (fun (name, (scrc, dcrc)) ->
          (name, (Crc32.to_hex scrc, Crc32.to_hex dcrc)))
        m.m_entries

(* STATS is pure acceleration state — a missing, torn or stale file
   only costs the planner its estimates — so damage degrades to "no
   stats" silently rather than quarantining anything. Its entries carry
   their stamps in the [table] lines. *)
let stats_name = "STATS"

(* [None] when the file is there but damaged. *)
let read_stats io dir =
  match Sidecar.read io (Filename.concat dir stats_name) Option.some with
  | `Loaded (_, lines) -> (
      match Stats.tables_of_lines lines with
      | entries -> Some entries
      | exception Stats.Corrupt _ -> None)
  | `Absent -> Some []
  | `Damaged -> None

(* CONSTRAINTS persists declared definitions. A definition counts as
   verified only while every relation it involves still carries the
   data file its stamp was cut against. Unlike stats, a damaged file
   does not merely cost acceleration — the declarations themselves are
   semantics — so the loader reports the damage in the journal note
   instead of degrading silently. *)
let constraints_name = "CONSTRAINTS"

let constraints_to_string ~lsn cat data_crcs =
  let defs = Catalog.constraints cat in
  Sidecar.seal
    ((Sidecar.header "constraints" lsn
     :: List.map (fun def -> [ "def"; Constr.def_to_line def ]) defs)
    @ List.map
        (fun name -> [ "stale"; name ])
        (Catalog.unverified_constraints cat)
    @ Sidecar.stamp_lines data_crcs (List.concat_map Constr.relations defs))

let read_constraints io dir =
  Sidecar.read io (Filename.concat dir constraints_name) ~kind:"constraints"
    (function
      | "def" :: fields ->
          Option.map Either.left
            (Constr.def_of_line (String.concat "\t" fields))
      | [ "stale"; name ] -> Some (Either.Right name)
      | _ -> None)

(* INDEX persists secondary-index declarations: a declaration is all
   there is to an index, its probes read the relation's subsumption
   index. Its stamps only tell whether the file was cut against the
   data just loaded. *)
let indexes_name = "INDEX"

let attrs_to_field attrs =
  String.concat "," (List.map Attr.name (Attr.Set.elements attrs))

let attrs_of_field s =
  match String.split_on_char ',' s with
  | names when List.for_all (fun n -> String.length n > 0) names && names <> []
    ->
      Some (Attr.set_of_list names)
  | _ -> None

let indexes_to_string ~lsn cat data_crcs =
  let decls = Catalog.all_indexes cat in
  Sidecar.seal
    ((Sidecar.header "indexes" lsn
     :: List.map
          (fun (rel, kind, attrs) ->
            [ "decl"; rel; kind; attrs_to_field attrs ])
          decls)
    @ Sidecar.stamp_lines data_crcs (List.map (fun (rel, _, _) -> rel) decls))

(* The declarations [(relation, kind, attrs field)]. A [line] entry is
   the positional dump that files written before declarations became
   probes of the subsumption index carry: accepted, and ignored. *)
let read_indexes io dir =
  Sidecar.read io (Filename.concat dir indexes_name) ~kind:"indexes" (function
    | [ "decl"; rel; kind; attrs ] -> Some (Some (rel, kind, attrs))
    | [ "line"; _; _; _; _ ] -> Some None
    | _ -> None)

(* ---------------------------- save ---------------------------- *)

let m_checkpoints =
  Obs.Metrics.counter ~help:"Checkpoints written by Persist.save"
    "storage_checkpoints_total"

let m_checkpoint_bytes =
  Obs.Metrics.counter
    ~help:"Bytes written per checkpoint (schemas, data, manifest)"
    "storage_checkpoint_bytes_total"

let m_wal_replayed =
  Obs.Metrics.counter ~help:"Journal records replayed during recovery"
    "storage_wal_replayed_total"

let m_index_attached =
  Obs.Metrics.counter
    ~help:"Persisted secondary-index declarations re-attached at load"
    "storage_index_attach_total"

let save ?(io = Io.real) ?(lsn = 0) ~dir cat =
  if not (io.Io.file_exists dir) then io.Io.mkdir dir;
  let path name = Filename.concat dir name in
  let entries =
    List.map
      (fun (name, (schema, x)) ->
        let stext = schema_to_string schema
        and dtext = Csv.write_string (Schema.attrs schema) x in
        (name, stext, dtext, (Crc32.digest stext, Crc32.digest dtext)))
      (Catalog.to_db cat)
  in
  (* Stage everything first: data files as *.tmp siblings, the manifest
     as MANIFEST.next. Nothing visible is touched yet, so a crash in
     this phase is a no-op. *)
  List.iter
    (fun (name, stext, dtext, _) ->
      io.Io.write_file (path (name ^ ".schema.tmp")) stext;
      io.Io.write_file (path (name ^ ".csv.tmp")) dtext)
    entries;
  let manifest =
    manifest_to_string
      {
        m_lsn = lsn;
        m_entries = List.map (fun (name, _, _, crcs) -> (name, crcs)) entries;
      }
  in
  io.Io.write_file (path pending_name) manifest;
  (* The other sidecars ride along, their entries stamped with the CRCs
     of the data files being written: the loader re-checks each stamp,
     so a torn or superseded sidecar degrades — to no stats, to stale
     constraints, to a repair verdict — never to wrong answers. *)
  let data_crcs =
    List.map (fun (name, _, _, (_, dcrc)) -> (name, Crc32.to_hex dcrc)) entries
  in
  let stats_entries =
    List.filter_map
      (fun (name, crc) ->
        match Catalog.stats_status cat name with
        | Catalog.Fresh t -> Some (name, crc, t)
        | Catalog.Stale _ | Catalog.Missing -> None)
      data_crcs
  in
  io.Io.write_file
    (path (stats_name ^ ".tmp"))
    (Sidecar.seal (Stats.tables_to_lines stats_entries));
  io.Io.write_file
    (path (constraints_name ^ ".tmp"))
    (constraints_to_string ~lsn cat data_crcs);
  io.Io.write_file
    (path (indexes_name ^ ".tmp"))
    (indexes_to_string ~lsn cat data_crcs);
  (* Rename data files into place. A crash here leaves a mix of old and
     new files, each atomic on its own; the reader disambiguates by
     checksum against MANIFEST (old) and MANIFEST.next (staged above). *)
  List.iter
    (fun (name, _, _, _) ->
      io.Io.rename (path (name ^ ".schema.tmp")) (path (name ^ ".schema"));
      io.Io.rename (path (name ^ ".csv.tmp")) (path (name ^ ".csv")))
    entries;
  io.Io.rename (path (stats_name ^ ".tmp")) (path stats_name);
  io.Io.rename (path (constraints_name ^ ".tmp")) (path constraints_name);
  io.Io.rename (path (indexes_name ^ ".tmp")) (path indexes_name);
  (* The commit point. *)
  io.Io.rename (path pending_name) (path manifest_name);
  io.Io.fsync_dir dir;
  Obs.Metrics.inc m_checkpoints;
  if Obs.Metrics.is_enabled () then
    Obs.Metrics.add m_checkpoint_bytes
      (String.length manifest
      + List.fold_left
          (fun acc (_, stext, dtext, _) ->
            acc + String.length stext + String.length dtext)
          0 entries)

(* ---------------------------- load ---------------------------- *)

type status = Ok | Corrupt of string | Recovered of int

type report = {
  catalog : Catalog.t;
  statuses : (string * status) list;
  lsn : int;
  journal_note : string option;
  checkpoint_note : string option;
  journal_records : int;
  needs_repair : bool;
}

let pp_status ppf = function
  | Ok -> Format.fprintf ppf "ok"
  | Corrupt reason -> Format.fprintf ppf "quarantined — %s" reason
  | Recovered n ->
      Format.fprintf ppf "recovered (%d journal record%s replayed)" n
        (if n = 1 then "" else "s")

let report_lines report =
  List.map
    (fun (name, status) ->
      Format.asprintf "%s: %a" name pp_status status)
    report.statuses
  @ (match report.journal_note with
    | None -> []
    | Some note -> [ "journal: " ^ note ])
  @ (match report.checkpoint_note with
    | None -> []
    | Some note -> [ "checkpoint: " ^ note ])
  @
  match Catalog.unverified_constraints report.catalog with
  | [] -> []
  | stale ->
      [
        Printf.sprintf
          "constraints: %d stale (%s) — data changed since last \
           verification; run .check"
          (List.length stale)
          (String.concat ", " stale);
      ]

(* One relation loaded from its pair of files, checked against the
   manifests when present. Returns the schema/xrel plus the LSN of the
   checkpoint the data file belongs to. *)
let load_relation io dir name expected =
  let path suffix = Filename.concat dir (name ^ suffix) in
  let read suffix =
    let p = path suffix in
    if not (io.Io.file_exists p) then errorf "missing %s file" suffix
    else io.Io.read_file p
  in
  let stext = read ".schema" in
  let dtext = read ".csv" in
  let dcrc = Crc32.digest dtext in
  let base_lsn =
    match expected with
    | None -> 0 (* legacy directory: nothing to check against *)
    | Some (primary, pending) -> (
        let scrc = Crc32.digest stext in
        let matches part m =
          match List.assoc_opt name m.m_entries with
          | Some entry -> part entry
          | None -> false
        in
        let schema_ok =
          List.exists
            (function
              | None -> false
              | Some m -> matches (fun (s_, _) -> s_ = scrc) m)
            [ Some primary; pending ]
        in
        if not schema_ok then
          errorf "schema checksum mismatch (crc %s)" (Crc32.to_hex scrc);
        (* The data file decides which checkpoint this relation is at. *)
        if matches (fun (_, d) -> d = dcrc) primary then primary.m_lsn
        else
          match pending with
          | Some p when matches (fun (_, d) -> d = dcrc) p -> p.m_lsn
          | _ ->
              errorf "data checksum mismatch (crc %s)" (Crc32.to_hex dcrc))
  in
  let schema = schema_of_string stext in
  let _, x = Csv.read_string ~schema dtext in
  (schema, x, base_lsn, Crc32.to_hex dcrc)

let load_report ?(io = Io.real) ~dir () =
  if not (io.Io.file_exists dir) then errorf "no such directory %s" dir;
  let entries = Array.to_list (io.Io.readdir dir) in
  let on_disk = read_manifest io dir manifest_name in
  let pending = read_manifest io dir pending_name in
  (* A directory whose first-ever checkpoint crashed after staging has a
     valid MANIFEST.next and no MANIFEST: promote the pending one. *)
  let primary, pending =
    match (on_disk, pending) with
    | None, Some p -> (Some p, None)
    | pair -> pair
  in
  let names =
    match primary with
    | Some m ->
        let pending_only =
          match pending with
          | None -> []
          | Some p ->
              List.filter
                (fun (name, _) -> not (List.mem_assoc name m.m_entries))
                p.m_entries
        in
        List.map fst (m.m_entries @ pending_only)
    | None ->
        (* legacy directory: every *.schema file names a relation *)
        List.filter_map
          (fun entry ->
            if Filename.check_suffix entry ".schema" then
              Some (Filename.chop_suffix entry ".schema")
            else None)
          entries
  in
  let names = List.sort_uniq String.compare names in
  let expected = Option.map (fun m -> (m, pending)) primary in
  let loaded =
    List.map
      (fun name ->
        match load_relation io dir name expected with
        | schema, x, base_lsn, dcrc -> (
            match Schema.check schema x with
            | [] -> (name, `Loaded (schema, x, base_lsn, dcrc))
            | violations ->
                ( name,
                  `Corrupt
                    (Printf.sprintf "schema violations: %s"
                       (String.concat "; "
                          (List.map
                             (Pp.to_string Schema.pp_violation)
                             violations))) ))
        | exception Error msg -> (name, `Corrupt msg)
        | exception Csv.Error msg -> (name, `Corrupt ("bad CSV: " ^ msg))
        | exception Sys_error msg -> (name, `Corrupt msg))
      names
  in
  let catalog, base_lsns =
    List.fold_left
      (fun (cat, lsns) (name, outcome) ->
        match outcome with
        | `Loaded (schema, x, base_lsn, _) ->
            (Catalog.add_unchecked cat schema x, (name, base_lsn) :: lsns)
        | `Corrupt _ -> (cat, lsns))
      (Catalog.empty, []) loaded
  in
  (* The sidecars attach before journal replay, each entry only while
     its stamp matches the data file just loaded ({!Sidecar.fresh}). *)
  let loaded_crc name =
    List.find_map
      (function
        | n, `Loaded (_, _, _, dcrc) when String.equal n name -> Some dcrc
        | _ -> None)
      loaded
  in
  let fresh = Sidecar.fresh ~loaded:loaded_crc in
  (* A stamp naming another data file than the one loaded means the
     sidecar was cut against another checkpoint: its entry degrades,
     and the directory wants a repair. *)
  let stale_stamps = ref [] in
  let check_stamps =
    List.iter (fun (rel, stamp) ->
        if loaded_crc rel <> Some stamp then
          stale_stamps := rel :: !stale_stamps)
  in
  let stats = read_stats io dir in
  let stats_entries = Option.value ~default:[] stats in
  check_stamps
    (List.map (fun (name, stamp, _) -> (name, stamp)) stats_entries);
  (* Any replayed record bumps the relation's version afterwards,
     leaving the attached stats observably stale, never silently
     wrong. *)
  let catalog =
    List.fold_left
      (fun cat (name, stamp, t) ->
        if fresh [ (name, stamp) ] name then Catalog.set_stats cat name t
        else cat)
      catalog stats_entries
  in
  let manifest_lsn = match primary with Some m -> m.m_lsn | None -> 0 in
  (* Replayed DDL (gated by the CONSTRAINTS checkpoint lsn) lands on top
     of the persisted definitions. A definition involving a relation
     whose stamp no longer matches attaches as stale — enforced on new
     writes, but the restored data itself unchecked. *)
  let catalog, constraints_lsn, constraints_note =
    match read_constraints io dir with
    | `Absent -> (catalog, manifest_lsn, None)
    | `Damaged ->
        ( catalog,
          manifest_lsn,
          Some
            "CONSTRAINTS file damaged; declarations lost — re-declare or \
             restore from backup" )
    | `Loaded (file, entries) ->
        check_stamps file.Sidecar.stamps;
        let defs, stale = List.partition_map Fun.id entries in
        let verified def =
          (not (List.mem (Constr.name def) stale))
          && List.for_all (fresh file.Sidecar.stamps) (Constr.relations def)
        in
        ( List.fold_left
            (fun cat def ->
              Catalog.attach_constraint ~verified:(verified def) cat def)
            catalog defs,
          file.Sidecar.lsn,
          None )
  in
  (* A declaration re-attaches whatever its stamp says: its probes read
     the relation's subsumption index, which a load leaves unbuilt, so
     nothing is built here and replayed deltas need no index work. A
     damaged INDEX file loses the declarations themselves, reported
     like CONSTRAINTS damage. *)
  let catalog, indexes_note =
    match read_indexes io dir with
    | `Absent -> (catalog, None)
    | `Damaged ->
        ( catalog,
          Some
            "INDEX file damaged; secondary indexes dropped — re-declare \
             with .index" )
    | `Loaded (file, entries) ->
        check_stamps file.Sidecar.stamps;
        let restore cat (rel, kind, attrs_field) =
          match
            Option.bind (attrs_of_field attrs_field)
              (Catalog.restore_index cat rel ~kind)
          with
          | Some cat ->
              Obs.Metrics.inc m_index_attached;
              cat
          | None -> cat
        in
        (List.fold_left restore catalog (List.filter_map Fun.id entries), None)
  in
  (* Replay the journal tail: relation changes past the checkpoint the
     relation's data file belongs to (replaying onto a relation from a
     {e newer} half-renamed checkpoint is skipped by the per-relation
     LSN gate), constraint DDL past the CONSTRAINTS checkpoint. A record
     is one whole transaction — its cascade deltas replay together or,
     if the frame is torn, not at all. DDL applies in record order as
     it is met; it commutes with the data, which replay never checks
     against constraints. Each relation's gated changes are then folded
     into one net delta and applied at once ({!Replay}); a tail that is
     not a chain of exact net deltas (a record that breaks the schema
     included) replays op by op instead, so every note still names its
     LSN. Notes carry their op's position in the journal and come out
     in journal order. *)
  let records, tail_note = Wal.read ~io ~dir in
  let seq = ref 0 in
  let catalog, pending, top_lsn, notes =
    List.fold_left
      (fun acc (record : Wal.record) ->
        let lsn = record.Wal.lsn in
        List.fold_left
          (fun (cat, pending, top_lsn, notes) op ->
            incr seq;
            match op with
            | Wal.Change c -> (
                match List.assoc_opt c.Wal.rel base_lsns with
                | Some base when lsn > base ->
                    let op = (!seq, lsn, c) in
                    (cat, (c.Wal.rel, op) :: pending, top_lsn, notes)
                | Some _ ->
                    (cat, pending, top_lsn, notes) (* already reflected *)
                | None ->
                    ( cat,
                      pending,
                      top_lsn,
                      ( !seq,
                        Printf.sprintf "lsn %d targets unloadable relation %s"
                          lsn c.Wal.rel )
                      :: notes ))
            | Wal.Add_constraint _ | Wal.Drop_constraint _ ->
                if lsn > constraints_lsn then
                  match Wal.apply_op cat op with
                  | cat ->
                      Obs.Metrics.inc m_wal_replayed;
                      (cat, pending, max top_lsn lsn, notes)
                  | exception (Wal.Error msg | Error msg) ->
                      (cat, pending, top_lsn, (!seq, msg) :: notes)
                else (cat, pending, top_lsn, notes))
          acc record.Wal.ops)
      (catalog, [], manifest_lsn, [])
      records
  in
  let op_by_op cat ops =
    List.fold_left
      (fun (cat, applied, top_lsn, notes) (seq, lsn, (c : Wal.change)) ->
        match Wal.apply_op cat (Wal.Change c) with
        | cat -> (cat, applied + 1, max top_lsn lsn, notes)
        | exception (Wal.Error msg | Error msg) ->
            (cat, applied, top_lsn, (seq, msg) :: notes)
        | exception Catalog.Violation _ ->
            ( cat,
              applied,
              top_lsn,
              ( seq,
                Printf.sprintf "replaying lsn %d left %s violating its schema"
                  lsn c.Wal.rel )
              :: notes ))
      (cat, 0, top_lsn, []) ops
  in
  let catalog, replayed, top_lsn, notes =
    List.fold_left
      (fun (cat, replayed, top_lsn, notes) rel ->
        let ops =
          List.rev
            (List.filter_map
               (fun (r, op) -> if String.equal r rel then Some op else None)
               pending)
        in
        let schema, x = Catalog.get cat rel in
        let cat, applied, top_lsn, rel_notes =
          match Replay.compose schema x (List.map (fun (_, _, c) -> c) ops) with
          | Some (added, removed) ->
              ( Catalog.replay_delta cat rel ~added ~removed,
                List.length ops,
                List.fold_left (fun m (_, lsn, _) -> max m lsn) top_lsn ops,
                [] )
          | None -> op_by_op cat ops
        in
        Obs.Metrics.add m_wal_replayed applied;
        ( cat,
          (if applied > 0 then (rel, applied) :: replayed else replayed),
          top_lsn,
          rel_notes @ notes ))
      (catalog, [], top_lsn, notes)
      (* Each relation with a pending change once, in name order. *)
      (List.sort String.compare
         (List.fold_left
            (fun rels (r, _) -> if List.mem r rels then rels else r :: rels)
            [] pending))
  in
  (* Newest first, as the sidecar notes below are prepended. *)
  let notes =
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare b a) notes)
  in
  let notes =
    match constraints_note with None -> notes | Some n -> n :: notes
  in
  let notes =
    match indexes_note with None -> notes | Some n -> n :: notes
  in
  let statuses =
    List.map
      (fun (name, outcome) ->
        match outcome with
        | `Corrupt reason -> (name, Corrupt reason)
        | `Loaded _ -> (
            match List.assoc_opt name replayed with
            | Some n -> (name, Recovered n)
            | None -> (name, Ok)))
      loaded
  in
  let journal_note =
    match Option.to_list tail_note @ List.rev notes with
    | [] -> None
    | all -> Some (String.concat "; " all)
  in
  (* What a clean checkpoint would not leave behind, although every
     relation loaded. *)
  let checkpoint_note =
    let stale = List.sort_uniq String.compare !stale_stamps
    and staging = List.filter (fun e -> Filename.check_suffix e ".tmp") entries
    and finding cond what = if cond then [ what ] else [] in
    match
      finding (on_disk = None) "MANIFEST missing or damaged"
      @ finding
          (List.mem pending_name entries)
          "MANIFEST.next left by an interrupted checkpoint"
      @ finding (stats = None) "STATS damaged"
      @ finding (stale <> [])
          ("sidecar stamps do not match the data file of "
          ^ String.concat ", " stale)
      @ finding (staging <> [])
          ("staging files left: " ^ String.concat ", " staging)
    with
    | [] -> None
    | all -> Some (String.concat "; " all)
  in
  let needs_repair =
    List.exists (function _, Corrupt _ -> true | _ -> false) statuses
    || journal_note <> None || checkpoint_note <> None
  in
  {
    catalog;
    statuses;
    lsn = top_lsn;
    journal_note;
    checkpoint_note;
    journal_records = List.length records;
    needs_repair;
  }

let load ?(io = Io.real) ~dir () =
  let report = load_report ~io ~dir () in
  List.iter
    (fun (name, status) ->
      match status with
      | Corrupt reason -> errorf "%s: %s" name reason
      | Ok | Recovered _ -> ())
    report.statuses;
  report.catalog

let repair ?(io = Io.real) ~dir report =
  save ~io ~lsn:report.lsn ~dir report.catalog;
  Wal.reset ~io ~dir;
  Array.iter
    (fun entry ->
      if Filename.check_suffix entry ".tmp" then
        try io.Io.remove (Filename.concat dir entry) with Sys_error _ -> ())
    (io.Io.readdir dir)

let recover ?(io = Io.real) ~dir () =
  let report = load_report ~io ~dir () in
  repair ~io ~dir report;
  report
