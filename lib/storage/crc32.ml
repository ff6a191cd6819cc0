(* Built when the module is initialized: a [Lazy.t] forced on every
   digest raises [CamlinternalLazy.Undefined] when two domains force it
   first at once. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let digest_sub ?(init = 0) s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest_sub";
  let c = ref (init lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    let byte = Char.code (String.unsafe_get s i) in
    c := Array.unsafe_get table ((!c lxor byte) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let digest ?init s = digest_sub ?init s 0 (String.length s)

let to_hex n = Printf.sprintf "%08x" (n land 0xffffffff)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some n when n >= 0 && n <= 0xffffffff -> Some n
    | _ -> None
