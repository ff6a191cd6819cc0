(** Crash-safe saving and loading of a catalog directory.

    Each relation [NAME] is stored as two files:
    - [NAME.schema] — a line-oriented, tab-separated description:
      {v
      relation <TAB> NAME
      column <TAB> ATTR <TAB> int|float|string|bool
      column <TAB> ATTR <TAB> intrange <TAB> LO <TAB> HI
      column <TAB> ATTR <TAB> enum <TAB> V1 <TAB> V2 ...
      key <TAB> ATTR ...
      fk <TAB> TARGET <TAB> LOCAL <TAB> REFERENCED [<TAB> LOCAL <TAB> REFERENCED ...]
      v}
    - [NAME.csv] — the relation in the {!Csv} dialect ([-] for nulls),
      written in the schema's column order.

    Four sidecar files sit beside them, all in the one self-checksummed
    frame of {!Sidecar}: tab-separated lines, each opened by a tag; a
    header [nullrel-KIND <TAB> 1 <TAB> LSN] in every file but [STATS];
    and an [end <TAB> CRC] trailer, the CRC-32 of every preceding byte,
    so a torn file is detected, not misread. A checksum-valid header
    that claims another version raises {!Error}. Entries cut against
    the data carry the CRC of the data file written beside them — a
    [stamp <TAB> REL <TAB> DATA-CRC] line, or a field of the entry —
    and attach at load only while it matches the data file actually
    loaded.

    [MANIFEST] (kind [manifest]) names every relation with the CRC-32
    of both its files, and its LSN is the journal position the
    checkpoint reflects:
    {v
    relation <TAB> NAME <TAB> SCHEMA-CRC <TAB> DATA-CRC
    v}
    Damaged or absent (and no valid [MANIFEST.next] to promote), it
    leaves a legacy load: every [*.schema] file names a relation,
    loaded without checksum verification.

    [STATS] (no header) holds every relation's {e fresh} statistics:
    {v
    table <TAB> NAME <TAB> ROWS <TAB> DATA-CRC
    column <TAB> ATTR <TAB> NULLS <TAB> DISTINCT [<TAB> MIN <TAB> MAX]
    v}
    Statistics are pure acceleration state: damage silently yields a
    catalog without stats, never a load failure or a note.

    [CONSTRAINTS] (kind [constraints]; its LSN gates the replay of
    constraint DDL) holds the declared definitions in {!Constr}'s line
    format, the names of those unverified when the checkpoint was cut,
    and one stamp per relation a definition involves:
    {v
    def <TAB> DEFINITION
    stale <TAB> NAME
    stamp <TAB> REL <TAB> DATA-CRC
    v}
    A definition attaches verified only when it was not stale and every
    relation it involves still carries its stamped data file; otherwise
    it attaches stale — enforced on new writes, the restored data
    unchecked.

    [INDEX] (kind [indexes]) holds every secondary-index declaration,
    one stamp per indexed relation, and a positional dump of each built
    structure (lines referring to tuples by their canonical position):
    {v
    decl <TAB> REL <TAB> hash|range <TAB> ATTR[,ATTR...]
    stamp <TAB> REL <TAB> DATA-CRC
    line <TAB> REL <TAB> KIND <TAB> ATTRS <TAB> PAYLOAD
    v}
    A dump re-attaches ({!Catalog.restore_index}) only while its
    relation's stamp matches — skipping the build entirely — and
    degrades to a from-scratch rebuild of the declaration on a stale
    stamp, missing dump, or any payload anomaly: slower, never wrong.

    A damaged [CONSTRAINTS] or [INDEX] file loses its declarations and
    says so in the journal note, since declarations are semantics and
    steer planning. All sidecars attach {e before} journal replay, so
    replayed records leave stats observably stale
    ({!Catalog.stats_status}) and advance restored indexes exactly as
    live statements would.

    {!save} is atomic per file and ordered so that a crash at {e any}
    point leaves a recoverable directory: every file is written to a
    [*.tmp] sibling and fsynced before being renamed into place; the
    next manifest is staged as [MANIFEST.next] {e before} any data file
    is renamed and promoted to [MANIFEST] {e after} all of them, so a
    reader can always tell a half-renamed checkpoint (file matches
    [MANIFEST.next]) from corruption (file matches neither).

    {!load_report} degrades gracefully: a corrupt, truncated or
    checksum-mismatched relation is quarantined with a reason instead of
    aborting the whole catalog, and committed journal records
    ({!Wal}) past the checkpoint are replayed. {!recover} additionally
    repairs the directory: it rewrites a clean checkpoint and empties
    the journal.

    Loading re-validates every relation against its schema
    ({!Catalog.add}); cross-relation references are {e not} checked at
    load time — call {!Catalog.check_references} afterwards. Legacy
    directories without a [MANIFEST] still load (without checksum
    verification). *)

exception Error of string
(** A missing directory, a sidecar that claims an unsupported version
    (the same exception as {!Sidecar.Error}), or — from {!load} — a
    quarantined relation. *)

type status =
  | Ok  (** Checksums verified (or legacy file parsed cleanly). *)
  | Corrupt of string  (** Quarantined: the reason it was rejected. *)
  | Recovered of int
      (** Loaded, then brought up to date by replaying this many
          journal records. *)

type report = {
  catalog : Catalog.t;
      (** Every relation that loaded ([Ok] or [Recovered]); quarantined
          relations are absent. *)
  statuses : (string * status) list;  (** Per relation, sorted by name. *)
  lsn : int;  (** The journal position the catalog reflects. *)
  journal_note : string option;
      (** Set when the journal had a torn or corrupt tail, or records
          that could not be replayed. *)
}

val save : ?io:Io.t -> ?lsn:int -> dir:string -> Catalog.t -> unit
(** Writes a full checkpoint of every relation plus the four sidecars
    (default [lsn] 0). Creates [dir] if needed; overwrites existing
    files for the saved names, leaves other files alone (though only
    manifest-listed relations are loaded back). *)

val load_report : ?io:Io.t -> dir:string -> unit -> report
(** Read-only: loads what it can, quarantines what it cannot, replays
    the committed journal tail in memory. Raises {!Error} only if the
    directory itself is missing or a checksum-valid [MANIFEST],
    [CONSTRAINTS] or [INDEX] claims an unsupported format version. *)

val load : ?io:Io.t -> dir:string -> unit -> Catalog.t
(** {!load_report}, raising {!Error} if any relation was quarantined.
    Replayed journal records ([Recovered]) are not an error. *)

val recover : ?io:Io.t -> dir:string -> unit -> report
(** {!load_report}, then repairs the directory: writes a fresh
    checkpoint of the surviving catalog at the recovered LSN, empties
    the journal and removes stale [*.tmp] staging files. Quarantined
    relations keep their on-disk files (for post-mortems) but are no
    longer listed in the manifest. *)

val manifest_crcs :
  ?io:Io.t -> dir:string -> unit -> (string * (string * string)) list
(** The primary [MANIFEST]'s per-relation (schema CRC, data CRC) stamps
    as hex strings, in manifest order. Empty when the directory has no
    readable manifest — sysview renders that absence as [ni]. *)

val pp_status : Format.formatter -> status -> unit
val report_lines : report -> string list
(** Human-readable per-relation lines ("EMP: ok", "SP: quarantined —
    ..."), plus the journal note — what the shell prints for [.open]
    and [.fsck]. *)

val schema_to_string : Nullrel.Schema.t -> string
val schema_of_string : string -> Nullrel.Schema.t
(** The [NAME.schema] format, exposed for tests and tooling. *)
