(** CRC-32 (the IEEE 802.3 / zlib polynomial, reflected, table-driven).

    Checksums guard every durable artifact: the {!Binary} trailer, the
    per-relation entries of the {!Persist} [MANIFEST], and each
    {!Wal} journal frame. The digest is kept as a plain non-negative
    [int] in [0 .. 2^32-1] (OCaml ints are 63-bit, so this is exact). *)

val digest : ?init:int -> string -> int
(** [digest s] is the CRC-32 of [s]. [?init] feeds a previous digest
    back in, so [digest ~init:(digest a) b = digest (a ^ b)]. Safe to
    call from any domain: the table is built when the module is
    initialized. *)

val digest_sub : ?init:int -> string -> int -> int -> int
(** [digest_sub s pos len] is [digest (String.sub s pos len)], read in
    place. Raises [Invalid_argument] when the range is not inside
    [s]. *)

val to_hex : int -> string
(** Fixed-width lowercase ["%08x"] rendering. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] on anything that is not 8 hex digits. *)
