(* The checkpoint's four sidecar files -- MANIFEST, STATS, CONSTRAINTS
   and INDEX -- pinned byte for byte against golden copies, and swept
   for damage: every truncation and every single-byte flip of each file
   either loads in full or takes that file's documented damage path,
   with the data intact; a checksum-valid header that claims another
   format version raises. *)

open Nullrel

let attr = Attr.make
let t = Tuple.of_strings
let files = [ "MANIFEST"; "STATS"; "CONSTRAINTS"; "INDEX" ]

(* Every tag of every file: two relations, fresh statistics on DEPT
   only, a verified unique constraint and a stale foreign key, and a
   hash and a range index, both dumped. Small enough that every pool
   size writes the same bytes. *)
let fixture () =
  let dept =
    Schema.make "DEPT" [ ("D", Domain.Ints); ("LOC", Domain.Strings) ]
  in
  let emp = Schema.make "EMP" [ ("E", Domain.Ints); ("D", Domain.Ints) ] in
  let dept_x =
    Xrel.of_list
      [
        t [ ("D", Value.Int 1); ("LOC", Value.Str "oslo") ];
        t [ ("D", Value.Int 2); ("LOC", Value.Str "rome") ];
        t [ ("D", Value.Int 3) ];
      ]
  in
  let emp_x =
    Xrel.of_list
      [
        t [ ("E", Value.Int 10); ("D", Value.Int 1) ];
        t [ ("E", Value.Int 11); ("D", Value.Int 2) ];
        t [ ("E", Value.Int 12) ];
      ]
  in
  let cat =
    Storage.Catalog.add
      (Storage.Catalog.add Storage.Catalog.empty dept dept_x)
      emp emp_x
  in
  let cat =
    Storage.Catalog.set_stats cat "DEPT"
      (Stats.collect ~attrs:(Schema.attrs dept) dept_x)
  in
  let cat =
    Storage.Catalog.add_constraint cat
      (Constr.Unique { name = "uq_dept"; rel = "DEPT"; attrs = [ attr "D" ] })
  in
  let cat =
    Storage.Catalog.attach_constraint ~verified:false cat
      (Constr.Foreign_key
         {
           name = "fk_emp";
           rel = "EMP";
           target = "DEPT";
           pairs = [ (attr "D", attr "D") ];
           on_delete = Constr.Cascade;
         })
  in
  let cat =
    Storage.Catalog.create_index cat "DEPT" ~kind:"hash"
      (Attr.Set.singleton (attr "D"))
  in
  Storage.Catalog.create_index cat "EMP" ~kind:"range"
    (Attr.Set.singleton (attr "E"))

let save dir = Storage.Persist.save ~lsn:7 ~dir (fixture ())
let read path = In_channel.with_open_bin path In_channel.input_all

(* ----------------------------- golden ---------------------------- *)

(* The expected files sit beside the test executable (a dune
   dependency of the test). *)
let golden_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "sidecar_golden"

let test_golden () =
  Test_durability.with_temp_dir (fun dir ->
      save dir;
      List.iter
        (fun name ->
          Alcotest.(check string)
            (name ^ " is byte-identical to its golden copy")
            (read (Filename.concat golden_dir name))
            (read (Filename.concat dir name)))
        files)

(* --------------------------- damage sweep ------------------------ *)

(* What a load brought back besides the data: the journal position,
   the note, and what each sidecar attached. *)
type view = {
  lsn : int;
  note : string option;
  stats : string list;  (** relations with fresh statistics *)
  constraints : string list;  (** definition lines, stale ones marked *)
  indexes : string list;  (** declarations with their cardinality *)
}

let view (r : Storage.Persist.report) =
  let cat = r.Storage.Persist.catalog in
  let names = Storage.Catalog.names cat in
  let stale = Storage.Catalog.unverified_constraints cat in
  {
    lsn = r.Storage.Persist.lsn;
    note = r.Storage.Persist.journal_note;
    stats =
      List.filter (fun n -> Option.is_some (Storage.Catalog.stats cat n)) names;
    constraints =
      List.map
        (fun d ->
          Constr.def_to_line d
          ^ if List.mem (Constr.name d) stale then " (stale)" else "")
        (Storage.Catalog.constraints cat);
    indexes =
      List.concat_map
        (fun n ->
          List.map
            (fun (kind, attrs, card) ->
              Printf.sprintf "%s %s(%s) %d" n kind
                (String.concat ","
                   (List.map Attr.name (Attr.Set.elements attrs)))
                card)
            (Storage.Catalog.indexes cat n))
        names;
  }

(* Each file's documented damage path, as it differs from a clean
   load: a damaged MANIFEST falls back to the legacy checksum-free
   load (which knows no checkpoint LSN); a damaged STATS costs the
   statistics silently; a damaged CONSTRAINTS or INDEX drops its
   declarations and says so in the journal note. *)
let damaged clean = function
  | "MANIFEST" -> { clean with lsn = 0 }
  | "STATS" -> { clean with stats = [] }
  | "CONSTRAINTS" ->
      {
        clean with
        constraints = [];
        note =
          Some
            "CONSTRAINTS file damaged; declarations lost — re-declare or \
             restore from backup";
      }
  | "INDEX" ->
      {
        clean with
        indexes = [];
        note =
          Some
            "INDEX file damaged; secondary indexes dropped — re-declare with \
             .index";
      }
  | name -> Alcotest.failf "no damage path for %s" name

(* Load [dir] as if [name] held [text]: the sweep never rewrites the
   saved files. *)
let load_with dir name text =
  let path = Filename.concat dir name in
  let io =
    {
      Storage.Io.real with
      read_file =
        (fun p ->
          if String.equal p path then text else Storage.Io.real.read_file p);
    }
  in
  Storage.Persist.load_report ~io ~dir ()

(* Every strict prefix, then every byte XORed with 0x01, 0x20 and 0xFF. *)
let mutations text =
  let flip i mask =
    let b = Bytes.of_string text in
    Bytes.set b i (Char.chr (Char.code text.[i] lxor mask));
    Bytes.to_string b
  in
  List.init (String.length text) (String.sub text 0)
  @ List.concat_map
      (fun i -> List.map (flip i) [ 0x01; 0x20; 0xff ])
      (List.init (String.length text) Fun.id)

(* A checksum-valid file that claims format version 2: the saved file
   with its header's version field bumped and the saved trailer's
   checksum recomputed over the new body. Spliced by hand rather than
   re-sealed with [Storage.Sidecar], so that the sweep also runs,
   unchanged, against checkpoint code older than the codec. *)
let claim_version_2 text =
  let header_end = String.index text '\n' in
  let body_end = String.rindex_from text (String.length text - 2) '\n' + 1 in
  match String.split_on_char '\t' (String.sub text 0 header_end) with
  | [ magic; _; lsn ] ->
      let body =
        String.concat "\t" [ magic; "2"; lsn ]
        ^ String.sub text header_end (body_end - header_end)
      in
      let tag = String.sub text body_end (String.length text - body_end - 9) in
      body ^ tag ^ Storage.Crc32.to_hex (Storage.Crc32.digest body) ^ "\n"
  | _ -> Alcotest.failf "no header line in %S" text

(* Per file: how many mutations load in full and how many take the
   damage path, four per byte in all. Only a truncation of the final
   newline and a case flip of a hex letter in the checksum keep the
   frame intact. *)
let expected_counts =
  [
    ("MANIFEST", (7, 381));
    ("STATS", (2, 266));
    ("CONSTRAINTS", (4, 596));
    ("INDEX", (2, 742));
  ]

let test_damage_sweep () =
  Test_durability.with_temp_dir (fun dir ->
      save dir;
      let clean = Storage.Persist.load_report ~dir () in
      let clean_view = view clean in
      let sweep name =
        let text = read (Filename.concat dir name) in
        List.fold_left
          (fun (full, damage) mutated ->
            let r =
              try load_with dir name mutated
              with e ->
                Alcotest.failf "%s as %S raised %s" name mutated
                  (Printexc.to_string e)
            in
            if
              not
                (Test_durability.catalogs_equal clean.Storage.Persist.catalog
                   r.Storage.Persist.catalog
                && r.Storage.Persist.statuses = clean.Storage.Persist.statuses)
            then Alcotest.failf "%s as %S lost data" name mutated;
            let v = view r in
            if v = clean_view then (full + 1, damage)
            else if v = damaged clean_view name then (full, damage + 1)
            else Alcotest.failf "%s as %S left neither path" name mutated)
          (0, 0) (mutations text)
      in
      Alcotest.(check (list (pair string (pair int int))))
        "per file: loaded in full, took the damage path" expected_counts
        (List.map (fun name -> (name, sweep name)) files);
      List.iter
        (fun name ->
          let text = claim_version_2 (read (Filename.concat dir name)) in
          match load_with dir name text with
          | exception Storage.Persist.Error _ -> ()
          | _ -> Alcotest.failf "%s claiming version 2 loaded" name)
        [ "MANIFEST"; "CONSTRAINTS"; "INDEX" ])

let suite =
  [
    Alcotest.test_case "the four sidecars match their golden bytes" `Quick
      test_golden;
    Alcotest.test_case "damage sweep over the four sidecars" `Quick
      test_damage_sweep;
  ]
