(** CSV import/export for relations.

    The dialect is RFC-4180-ish: comma separator, double-quote quoting
    with [""] escapes, one header line naming the attributes. The null
    value is written and read as the unquoted cell [-], matching the
    paper's tables; a quoted ["-"] is the one-character string. Values
    are parsed by {!Nullrel.Value.of_string_guess} unless a schema pins
    the column types. *)

open Nullrel

exception Error of string

val read_string : ?schema:Schema.t -> string -> Attr.t list * Xrel.t
(** Parses a relation: first row is the header. With [schema], cells are
    coerced to the declared column domains (ints for integer domains,
    strings for enums, ...) and unknown headers are an {!Error}. A
    syntax error anywhere is raised before any cell is read; a row's
    cell count is checked before its values. The rows of one null
    pattern share one key array ({!Tuple.builder}). *)

val read_file : ?schema:Schema.t -> string -> Attr.t list * Xrel.t

val read_relation :
  ?key:string list -> string -> string -> Schema.t * Xrel.t
(** [read_relation name path] reads a CSV file as relation [name], with
    a schema guessed from the data: each column takes the domain of its
    first non-null value (ints, floats, bools or strings), and an
    all-null column is a string column. [key] declares a primary key.
    The one loader behind the shell's [.load] and the CLI's [--rel] and
    [dml --load]. *)

val write_string : Attr.t list -> Xrel.t -> string
(** Renders a relation with the given column order. Nulls become [-]. *)

val write_file : string -> Attr.t list -> Xrel.t -> unit
