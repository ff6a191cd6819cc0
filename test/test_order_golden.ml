(* Container order pinned byte for byte: a relation of 200 generated
   tuples (195 once minimal) mixing Int, Str, Float and Bool columns
   under several null patterns, with a hash and a range index, saved as
   a checkpoint. Its [Xrel.to_list]
   order (one tuple per line), its data file and its INDEX file must
   match golden copies. Every order the engine exposes -- set
   iteration, CSV rows -- follows [Tuple.compare], so a change to the
   tuple representation that reorders anything fails here. *)

open Nullrel

let attr = Attr.make
let files = [ "R.tuples"; "R.csv"; "INDEX" ]

(* Deterministic pseudo-random integers (a 31-bit LCG), so the fixture
   does not depend on [Random]'s algorithm. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x7fffffff;
    (!s lsr 8) mod bound

(* Attribute names share prefixes (N, NAME, NAME2) so their string
   order differs from their length order. Each tuple leaves a
   different subset of its columns null. *)
let relation () =
  let schema =
    Schema.make "R"
      [
        ("K", Domain.Ints);
        ("N", Domain.Ints);
        ("NAME", Domain.Strings);
        ("NAME2", Domain.Strings);
        ("PRICE", Domain.Floats);
        ("OK", Domain.Bools);
      ]
  in
  let next = lcg 42 in
  let names = [| "ant"; "bee"; "cat"; "ant2"; "b"; "zed" |] in
  let name () = Value.Str names.(next (Array.length names)) in
  (* A column draws its value, then whether it is null (one in
     [null_one_in]); the columns draw from last to first. *)
  let column null_one_in draw =
    let v = draw () in
    if next null_one_in = 0 then Value.Null else v
  in
  let tuple i =
    let ok = column 2 (fun () -> Value.Bool (next 2 = 0)) in
    let price =
      column 3 (fun () -> Value.Float (float_of_int (next 50) /. 4.))
    in
    let name2 = column 2 name in
    let name = column 4 name in
    let n = column 3 (fun () -> Value.Int (next 7 - 3)) in
    let k = column 8 (fun () -> Value.Int i) in
    Tuple.of_strings
      [
        ("K", k);
        ("N", n);
        ("NAME", name);
        ("NAME2", name2);
        ("PRICE", price);
        ("OK", ok);
      ]
  in
  (schema, Xrel.of_list (List.init 200 tuple))

let fixture () =
  let schema, x = relation () in
  let cat = Storage.Catalog.add Storage.Catalog.empty schema x in
  let cat =
    Storage.Catalog.create_index cat "R" ~kind:"hash"
      (Attr.Set.of_list [ attr "N"; attr "NAME2" ])
  in
  Storage.Catalog.create_index cat "R" ~kind:"range"
    (Attr.Set.singleton (attr "PRICE"))

(* Saves the fixture into [dir] and writes its tuple order beside the
   checkpoint as [R.tuples]. *)
let render dir =
  let cat = fixture () in
  Storage.Persist.save ~lsn:3 ~dir cat;
  let lines =
    List.map
      (Format.asprintf "%a" Tuple.pp)
      (Xrel.to_list (snd (Storage.Catalog.get cat "R")))
  in
  Out_channel.with_open_bin (Filename.concat dir "R.tuples") (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let read path = In_channel.with_open_bin path In_channel.input_all

let golden_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "order_golden"

let test_golden () =
  Test_durability.with_temp_dir (fun dir ->
      render dir;
      List.iter
        (fun name ->
          Alcotest.(check string)
            (name ^ " is byte-identical to its golden copy")
            (read (Filename.concat golden_dir name))
            (read (Filename.concat dir name)))
        files)

let suite =
  [
    Alcotest.test_case "tuple order, data file and INDEX match their goldens"
      `Quick test_golden;
  ]
