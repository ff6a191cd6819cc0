(* The benchmark's span recorder.

   Spans are recorded from the benchmark's own code, around its calls
   into the engine's public functions; nothing inside the engine is
   instrumented. Each span carries the id of the statement it belongs
   to, its layer, its start and end, and the span that was open when it
   started (its parent). Spans stay in memory and are written out as
   JSONL when the run ends. Every session runs on one domain (see
   {!Common.sessions}), so one stack of open spans suffices.

   Recording is off unless [on] is set. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  stmt : int;  (** Shared by every span of one statement. *)
  layer : string;  (** The engine layer entered: "quel", "session", ... *)
  name : string;  (** The public function called. *)
  tag : string;  (** Statement class or Io path kind; "" when none. *)
  dom : int;  (** The domain that made the call. *)
  t0 : float;
  t1 : float;
  bytes : int;  (** Bytes moved, for Io spans. *)
}

let on = ref false
let now = Nullrel.Exec.monotonic_now
let next_id = ref 1
let next_stmt = ref 1

(* Open spans as (span id, stmt id), innermost first, and finished
   spans, newest first. *)
let stack : (int * int) list ref = ref []
let spans : span list ref = ref []

let new_stmt () =
  let s = !next_stmt in
  incr next_stmt;
  s

(* [stmt = None]: the span belongs to the statement of the innermost
   open span. *)
let record ~stmt ?(tag = "") ?(bytes = fun _ -> 0) ~layer ~name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, outer = match !stack with (p, s) :: _ -> (p, s) | [] -> (0, 0) in
    let stmt = Option.value stmt ~default:outer in
    stack := (id, stmt) :: !stack;
    let t0 = now () in
    let finish n =
      let t1 = now () in
      stack := List.tl !stack;
      spans :=
        {
          id;
          parent;
          stmt;
          layer;
          name;
          tag;
          dom = (Domain.self () :> int);
          t0;
          t1;
          bytes = n;
        }
        :: !spans
    in
    match f () with
    | r ->
        finish (bytes r);
        r
    | exception e ->
        finish 0;
        raise e
  end

(* A statement: the unit the end-to-end metrics time. Its layer spans
   are the calls made inside [f]. A statement interleaved with other
   sessions' work is recorded as several spans sharing one [id]. *)
let stmt ?id ?tag ~name f =
  let id = match id with Some i -> i | None -> new_stmt () in
  record ~stmt:(Some id) ?tag ~layer:"stmt" ~name f

let span ?tag ?bytes ~layer ~name f = record ~stmt:None ?tag ?bytes ~layer ~name f

let all () = List.sort (fun a b -> compare a.id b.id) !spans

(* ------------------------ derived figures ------------------------ *)

let dur s = s.t1 -. s.t0
let is_stmt s = String.equal s.layer "stmt"

let select ?tag ~layer ~name spans =
  List.filter
    (fun s ->
      String.equal s.layer layer && String.equal s.name name
      && match tag with None -> true | Some t -> String.equal s.tag t)
    spans

(* Sum of the direct layer spans under statements over the statements'
   own wall time: how much of each statement the layer spans account
   for. *)
let coverage spans =
  let stmts = Hashtbl.create 1024 in
  List.iter (fun s -> if is_stmt s then Hashtbl.replace stmts s.id ()) spans;
  let covered =
    List.fold_left
      (fun acc s -> if Hashtbl.mem stmts s.parent then acc +. dur s else acc)
      0. spans
  in
  let wall =
    List.fold_left (fun acc s -> if is_stmt s then acc +. dur s else acc) 0. spans
  in
  if wall > 0. then covered /. wall else 0.

(* Per (layer, name): calls, total and self milliseconds. Self time is
   a span's duration minus that of its direct children. *)
let summary spans =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = (s.layer, s.name) in
      let n, tot, self = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl k) in
      let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      Hashtbl.replace tbl k (n + 1, tot +. dur s, self +. (dur s -. c)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* ----------------------------- JSONL ----------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let span_json ~origin s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"stmt\":%d,\"layer\":%s,\"name\":%s,\"tag\":%s,\"dom\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"bytes\":%d}"
    s.id s.parent s.stmt (json_string s.layer) (json_string s.name)
    (json_string s.tag) s.dom
    ((s.t0 -. origin) *. 1e6)
    ((s.t1 -. origin) *. 1e6)
    s.bytes

(* Writes every span, then one summary line per (layer, name), then the
   closing [extra] lines (already JSON objects). *)
let write_jsonl ~path ~origin spans ~extra =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun s -> output_string oc (span_json ~origin s ^ "\n")) spans;
      List.iter
        (fun ((layer, name), (n, tot, self)) ->
          Printf.fprintf oc
            "{\"summary\":{\"layer\":%s,\"name\":%s,\"calls\":%d,\"total_ms\":%.3f,\"self_ms\":%.3f}}\n"
            (json_string layer) (json_string name) n (tot *. 1e3) (self *. 1e3))
        (summary spans);
      List.iter (fun l -> output_string oc (l ^ "\n")) extra)
