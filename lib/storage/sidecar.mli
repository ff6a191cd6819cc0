(** The self-checksummed text frame shared by the checkpoint's sidecar
    files — [MANIFEST], [STATS], [CONSTRAINTS] and [INDEX] ({!Persist}).
    This module is the only code that knows the frame; each file is a
    schema of tagged lines over it.

    {v
    nullrel-KIND <TAB> VERSION <TAB> LSN   (optional header; STATS has none)
    TAG <TAB> FIELD <TAB> ...              (one fact per line)
    stamp <TAB> REL <TAB> DATA-CRC         (in files cut against the data)
    end <TAB> CRC                          (CRC-32 of every preceding byte)
    v}

    Three rules hold for every file:
    - a torn or checksum-mismatched file, or one whose header names
      another kind, reads as absent or damaged, never as content;
    - a checksum-valid file whose header claims another version raises
      {!Error}: that is not damage, it is a newer writer;
    - an entry about a relation attaches only while the relation's
      stamp equals the CRC of the data file just loaded for it
      ({!fresh}). *)

exception Error of string
(** The same exception as {!Persist.Error}. *)

val header : string -> int -> string list
(** [header kind lsn] is the header line [nullrel-KIND, VERSION, LSN]. *)

val seal : string list list -> string
(** Joins each line's fields with tabs, ends each line with a newline,
    and appends the [end] trailer over every preceding byte. *)

val unseal : string -> string list list option
(** The lines of a file whose trailer checks, header included, each
    split on tabs; [None] when the trailer is missing, torn, followed
    by anything but empty lines, or does not match. [seal] inverts it. *)

type t = {
  lsn : int;  (** The header's LSN; 0 in a file without a header. *)
  stamps : (string * string) list;
      (** The [stamp] lines: relation and data CRC, in file order. *)
}

val read :
  Io.t ->
  string ->
  ?kind:string ->
  (string list -> 'a option) ->
  [ `Absent | `Damaged | `Loaded of t * 'a list ]
(** [read io path ?kind entry] loads one sidecar file. With [kind] the
    file must open with that kind's header, without it there is none.
    Every line other than a stamp line goes through [entry], in file
    order; one line it rejects makes the whole file [`Damaged], like a
    torn trailer does. Raises {!Error} on a checksum-valid header of
    another version. *)

val stamp_lines : (string * string) list -> string list -> string list list
(** [stamp_lines data_crcs rels]: one [stamp] line per distinct
    relation of [rels], sorted, that has a data CRC in [data_crcs]. *)

val fresh :
  (string * string) list -> loaded:(string -> string option) -> string -> bool
(** [fresh stamps ~loaded rel] is the stamp rule: true only when
    [stamps] stamps [rel] with the CRC [loaded] gives for the data file
    just read for it. [loaded] answers [None] for a relation that did
    not load. *)
