open Nullrel

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)
let magic = "NRX2"

(* ------------------------- encoding --------------------------- *)

(* The int is treated as an unsigned 63-bit pattern: logical shifts make
   the loop terminate even when zigzag wraps to a negative OCaml int
   (e.g. for max_int). *)
let add_varint buf n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (- (z land 1))

let add_string_pfx buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_value buf = function
  | Value.Int n ->
      Buffer.add_char buf '\x00';
      add_varint buf (zigzag n)
  | Value.Float f ->
      Buffer.add_char buf '\x01';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_char buf '\x02';
      add_string_pfx buf s
  | Value.Bool b ->
      Buffer.add_char buf '\x03';
      Buffer.add_char buf (if b then '\x01' else '\x00')
  | Value.Null ->
      (* Documented internal assert, deliberately not an Exec_error:
         Tuple's canonical form drops null bindings before they reach
         the encoder, so this is unreachable from any user input. *)
      invalid_arg "Binary.add_value: ni is never stored"

let encode x =
  let tuples = Xrel.to_list x in
  (* attribute dictionary: every attribute appearing in any tuple *)
  let dict =
    Attr.Set.elements
      (List.fold_left
         (fun acc r -> Attr.Set.union acc (Tuple.attrs r))
         Attr.Set.empty tuples)
  in
  let index_of =
    let table = Hashtbl.create 16 in
    List.iteri (fun idx a -> Hashtbl.replace table (Attr.name a) idx) dict;
    fun a ->
      (* The dictionary is derived from these very tuples, so a miss
         means the in-memory value is inconsistent — surface it as the
         classified integrity error, not a bare [Not_found] that
         callers cannot tell from a lookup bug. *)
      match Hashtbl.find_opt table (Attr.name a) with
      | Some idx -> idx
      | None ->
          corrupt
            (Printf.sprintf "attribute %s missing from the dictionary"
               (Attr.name a))
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  add_varint buf (List.length dict);
  List.iter (fun a -> add_string_pfx buf (Attr.name a)) dict;
  add_varint buf (List.length tuples);
  List.iter
    (fun r ->
      let bindings = Tuple.to_list r in
      add_varint buf (List.length bindings);
      List.iter
        (fun (a, v) ->
          add_varint buf (index_of a);
          add_value buf v)
        bindings)
    tuples;
  (* checksum trailer: CRC-32 of everything before it, little-endian *)
  let crc = Crc32.digest (Buffer.contents buf) in
  for k = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * k)) land 0xff))
  done;
  Buffer.contents buf

(* ------------------------- decoding --------------------------- *)

type cursor = { data : string; mutable pos : int }

let byte cur =
  if cur.pos >= String.length cur.data then corrupt "truncated input";
  let c = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let read_varint cur =
  let rec go shift acc =
    if shift > 62 then corrupt "varint too long";
    let b = byte cur in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_bytes cur n =
  if cur.pos + n > String.length cur.data then corrupt "truncated input";
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let read_string_pfx cur = read_bytes cur (read_varint cur)

let read_value cur =
  match byte cur with
  | 0x00 -> Value.int (unzigzag (read_varint cur))
  | 0x01 ->
      let bits = read_bytes cur 8 in
      let n = ref 0L in
      for k = 7 downto 0 do
        n := Int64.logor (Int64.shift_left !n 8) (Int64.of_int (Char.code bits.[k]))
      done;
      Value.Float (Int64.float_of_bits !n)
  | 0x02 -> Value.Str (read_string_pfx cur)
  | 0x03 -> Value.Bool (byte cur <> 0)
  | tag -> corrupt (Printf.sprintf "unknown value tag 0x%02x" tag)

let decode data =
  let cur = { data; pos = 0 } in
  if read_bytes cur 4 <> magic then corrupt "bad magic";
  let dict_len = read_varint cur in
  (* Every dictionary entry and tuple costs at least one byte, so a
     count exceeding the input length is corruption — reject it before
     [Array.init]/[List.init] turn it into an allocation failure. *)
  if dict_len > String.length data then corrupt "implausible dictionary length";
  let dict = Array.init dict_len (fun _ -> Attr.make (read_string_pfx cur)) in
  let tuple_count = read_varint cur in
  if tuple_count > String.length data then corrupt "implausible tuple count";
  let read_tuple () =
    let bindings = read_varint cur in
    let rec go k acc =
      if k = 0 then acc
      else
        let idx = read_varint cur in
        if idx >= dict_len then corrupt "attribute index out of range";
        let v = read_value cur in
        go (k - 1) (Tuple.set acc dict.(idx) v)
    in
    go bindings Tuple.empty
  in
  let tuples = List.init tuple_count (fun _ -> read_tuple ()) in
  if String.length data - cur.pos < 4 then corrupt "missing checksum trailer";
  let payload_len = cur.pos in
  let trailer = read_bytes cur 4 in
  if cur.pos <> String.length data then corrupt "trailing bytes";
  let stored = ref 0 in
  for k = 3 downto 0 do
    stored := (!stored lsl 8) lor Char.code trailer.[k]
  done;
  let computed = Crc32.digest (String.sub data 0 payload_len) in
  if !stored <> computed then
    corrupt
      (Printf.sprintf "checksum mismatch (stored %s, computed %s)"
         (Crc32.to_hex !stored) (Crc32.to_hex computed));
  Xrel.of_list tuples

let write_file path x =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode x))

let read_file path =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  decode data
