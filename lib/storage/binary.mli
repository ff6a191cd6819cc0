(** A compact binary format for relations.

    CSV is the interchange format; this is the storage format: an
    attribute dictionary written once, then one record per tuple listing
    only its non-null bindings (the canonical form pays off on sparse
    data — nulls occupy zero bytes). Integers are zigzag-LEB128
    varints; floats are 8-byte IEEE bit patterns; strings and the
    dictionary are length-prefixed.

    Layout:
    {v
    magic "NRX2"
    attr-count:varint  (attr-name:str)*
    tuple-count:varint
    tuple ::= binding-count:varint (attr-index:varint value)*
    value ::= 0x00 int:zigzag-varint
            | 0x01 float:8 bytes LE
            | 0x02 str:varint-len bytes
            | 0x03 bool:1 byte
    crc32:4 bytes LE   (of every preceding byte)
    v}

    The trailing CRC-32 makes every truncation or bit flip a detected
    {!Corrupt}, never a silently wrong relation: [decode] rejects any
    input that is not byte-exact. *)

open Nullrel

exception Corrupt of string
(** Bad magic, truncated input, unknown tags, an empty or out-of-range
    dictionary entry, checksum mismatches. [decode] raises nothing else
    on any input. *)

val encode : Xrel.t -> string
val decode : string -> Xrel.t
(** [decode (encode x) = x]; decoding re-canonicalizes, so hand-made
    inputs with redundant tuples still produce a valid x-relation. The
    decoded tuples of one null pattern share one key array
    ({!Tuple.builder}). *)

type context
(** What a run of {!decode_sub} calls shares: each distinct attribute
    dictionary is read once, and over one dictionary the tuples of one
    null pattern share one key array across the inputs. A journal's
    blocks name the same few dictionaries over and over. One reader
    owns a context; no other domain sees it. *)

val context : unit -> context

val decode_sub : ?context:context -> string -> int -> int -> Xrel.t
(** [decode_sub s pos len] is [decode (String.sub s pos len)], read in
    place. Raises [Invalid_argument] when the range is not inside
    [s]. *)

val write_file : string -> Xrel.t -> unit
val read_file : string -> Xrel.t
