open Nullrel
module String_map = Map.Make (String)

(* Each entry carries a monotonically increasing data version. Any
   write to the relation bumps it; collected statistics are stamped
   with the version current at collection time and count as fresh only
   while the two agree. WAL replay applies the recorded statement
   deltas through {!apply_delta} like the live DML path, so recovery
   can never resurrect stale stats — replaying a record invalidates
   them by construction.

   The subsumption index is built on first use and tied to the entry,
   in a {!Once} cell rather than a [Lazy.t] because every session domain
   shares the catalog. A {e wholesale} write ([.load], {!set_relation})
   installs a fresh unbuilt one; the
   incremental DML path ({!apply_delta}) instead {e advances} the
   index by the statement's net delta, so the probe tables survive
   across statements and the per-statement cost stays bounded by the
   delta, not the relation. *)

(* A declared secondary (equi-probe) index, packed existentially so
   hash and range implementations ride the same entry slot. *)
type packed = Packed : (module Index_intf.S with type t = 'a) * 'a -> packed

type sec = { s_kind : string; s_attrs : Attr.Set.t; s_idx : packed }

type entry = {
  e_schema : Schema.t;
  e_x : Xrel.t;
  e_version : int;
  e_stats : (int * Stats.table) option;  (** (version stamp, summary) *)
  e_index : Subsume_index.t Once.t;
  e_sec : sec list;  (** Declaration order. *)
}

type t = {
  c_rels : entry String_map.t;
  c_defs : Constr.def list;  (** Declaration order. *)
  c_unverified : string list;
      (** Constraints whose last full verification predates the data
          (restored from a stale checkpoint, or the relation was
          replaced wholesale). *)
}

exception Violation of Schema.violation list

let empty = { c_rels = String_map.empty; c_defs = []; c_unverified = [] }
let index_of x = Once.make (fun () -> Subsume_index.build (Xrel.rep x))

(* ---------------------- secondary indexes --------------------- *)

let index_module kind : (module Index_intf.S) option =
  match kind with
  | "hash" -> Some (module Hash_index.Equi)
  | "range" -> Some (module Range_index.Equi)
  | _ -> None

let index_kinds = [ "hash"; "range" ]

let packed_probe (Packed ((module I), idx)) t = I.probe idx t
let packed_cardinal (Packed ((module I), idx)) = I.cardinal idx
let packed_dump (Packed ((module I), idx)) ~pos = I.dump idx ~pos

let packed_advance ~added ~removed (Packed ((module I), idx)) =
  Packed ((module I), I.advance idx ~added ~removed)

(* Rebuild the declared indexes after a wholesale replacement; a
   declaration whose attributes fell out of the schema (or whose kind
   can no longer index them) is silently dropped — the declaration is
   an acceleration, never a source of truth. *)
let rebuild_secs schema x secs =
  List.filter_map
    (fun s ->
      if not (Attr.Set.subset s.s_attrs (Schema.attr_set schema)) then None
      else
        match index_module s.s_kind with
        | None -> None
        | Some (module I) -> (
            match I.build s.s_attrs x with
            | idx -> Some { s with s_idx = Packed ((module I), idx) }
            | exception _ -> None))
    secs

(* A wholesale replacement of a relation (shell [.load] over an existing
   name) voids the verification of every constraint involving it; the
   incremental DML path goes through {!set_relation} + enforcement and
   stays verified. *)
let mark_unverified cat name =
  let stale =
    List.filter_map
      (fun def ->
        if
          List.exists (String.equal name) (Constr.relations def)
          && not (List.mem (Constr.name def) cat.c_unverified)
        then Some (Constr.name def)
        else None)
      cat.c_defs
  in
  if stale = [] then cat
  else { cat with c_unverified = cat.c_unverified @ stale }

let add_entry cat schema x =
  let name = Schema.name schema in
  let entry =
    match String_map.find_opt name cat.c_rels with
    | Some e ->
        {
          e with
          e_schema = schema;
          e_x = x;
          e_version = e.e_version + 1;
          e_index = index_of x;
          e_sec = rebuild_secs schema x e.e_sec;
        }
    | None ->
        {
          e_schema = schema;
          e_x = x;
          e_version = 0;
          e_stats = None;
          e_index = index_of x;
          e_sec = [];
        }
  in
  { cat with c_rels = String_map.add name entry cat.c_rels }

let add cat schema x =
  match Schema.check schema x with
  | [] -> mark_unverified (add_entry cat schema x) (Schema.name schema)
  | violations -> raise (Violation violations)

let add_unchecked cat schema x =
  let name = Schema.name schema in
  mark_unverified
    {
      cat with
      c_rels =
        String_map.add name
          {
            e_schema = schema;
            e_x = x;
            e_version = 0;
            e_stats = None;
            e_index = index_of x;
            e_sec = [];
          }
          cat.c_rels;
    }
    name

let find cat name =
  Option.map
    (fun e -> (e.e_schema, e.e_x))
    (String_map.find_opt name cat.c_rels)

let get cat name =
  let e = String_map.find name cat.c_rels in
  (e.e_schema, e.e_x)

let relation cat name = snd (get cat name)
let schema cat name = fst (get cat name)
let names cat = List.map fst (String_map.bindings cat.c_rels)
let mem cat name = String_map.mem name cat.c_rels

let remove cat name =
  { cat with c_rels = String_map.remove name cat.c_rels }

let set_relation cat name x =
  let e = String_map.find name cat.c_rels in
  (* A write of the identical relation is a no-op: keep the entry —
     and with it the memoized subsumption index, the declared
     secondary indexes and the statistics stamp — instead of
     invalidating them all for nothing. *)
  if Xrel.equal x e.e_x then cat
  else
    match Schema.check e.e_schema x with
    | [] -> add_entry cat e.e_schema x
    | violations -> raise (Violation violations)

(* ---------------------- incremental DML ----------------------- *)

(* Patches an entry by a net delta known to keep the relation minimal:
   the persistent set moves by the delta — O(|delta| log n) — instead of
   being rebuilt, which would put an O(n) term back into every
   statement, and every declared secondary index advances by the same
   delta. [index] gives the new subsumption-index memo. *)
let patch cat name e ~index ~added ~removed =
  let x =
    Xrel.unsafe_of_minimal
      (List.fold_left
         (fun r t -> Relation.add t r)
         (List.fold_left (fun r t -> Relation.remove t r) (Xrel.rep e.e_x) removed)
         added)
  in
  let entry =
    {
      e with
      e_x = x;
      e_version = e.e_version + 1;
      e_index = index x;
      e_sec =
        List.map
          (fun s -> { s with s_idx = packed_advance ~added ~removed s.s_idx })
          e.e_sec;
    }
  in
  { cat with c_rels = String_map.add name entry cat.c_rels }

(* [apply_delta] is the DML-path counterpart of {!set_relation}: it
   maintains the minimal representation by the insert discipline of
   Section 7 — probe, admit, evict the newly-subsumed — in one bounded
   pass over the statement delta, never re-minimizing the relation.
   Deletions need no repair at all: removing elements from an antichain
   leaves an antichain. The entry's subsumption index and every
   declared secondary index are advanced by the same net delta, so
   they survive the write. *)
let apply_delta cat name ~added ~removed =
  let e = String_map.find name cat.c_rels in
  let idx0 = Once.get e.e_index in
  let removed = List.filter (fun t -> Subsume_index.mem idx0 t) removed in
  let idx1 = Subsume_index.advance idx0 ~added:[] ~removed in
  let key = Schema.key e.e_schema in
  let idx2, admitted, evicted =
    List.fold_left
      (fun (idx, adm, ev) t ->
        if Tuple.is_null_tuple t || Subsume_index.subsuming_exists idx t then
          (idx, adm, ev)
        else begin
          (* Incremental integrity: domains and entity integrity are
             per-tuple; key uniqueness is one probe of the key
             restriction after the eviction pass (the index counts the
             live tuples agreeing with [t] on the key, [t] included). *)
          (match Schema.check_tuple e.e_schema t with
          | [] -> ()
          | vs -> raise (Violation vs));
          let dead = Subsume_index.subsumed_within idx t in
          let idx = Subsume_index.advance idx ~added:[ t ] ~removed:dead in
          if (not (Attr.Set.is_empty key)) && Tuple.is_total_on key t then begin
            let kr = Tuple.restrict t key in
            if Subsume_index.count_at idx kr > 1 then
              raise (Violation [ Schema.Duplicate_key kr ])
          end;
          ( idx,
            Tuple.Set.add t adm,
            List.fold_left (fun s d -> Tuple.Set.add d s) ev dead )
        end)
      (idx1, Tuple.Set.empty, Tuple.Set.empty)
      added
  in
  let net_added = Tuple.Set.diff admitted evicted in
  let net_removed =
    Tuple.Set.union (Tuple.Set.of_list removed) (Tuple.Set.diff evicted admitted)
  in
  if Tuple.Set.is_empty net_added && Tuple.Set.is_empty net_removed then
    (cat, (Tuple.Set.empty, Tuple.Set.empty))
  else
    ( patch cat name e ~index:(fun _ -> Once.of_val idx2)
        ~added:(Tuple.Set.elements net_added)
        ~removed:(Tuple.Set.elements net_removed),
      (net_added, net_removed) )

(* Journal replay folds a relation's whole tail into one net delta that
   {!Replay.compose} has already checked against every probe the insert
   discipline would make, so it is spliced in directly. The subsumption
   index is left unbuilt, as after a load; the first writer builds it on
   demand. *)
let replay_delta cat name ~added ~removed =
  match (added, removed) with
  | [], [] -> cat
  | _ ->
      let e = String_map.find name cat.c_rels in
      patch cat name e ~index:index_of ~added ~removed

let to_db cat =
  List.map
    (fun (name, e) -> (name, (e.e_schema, e.e_x)))
    (String_map.bindings cat.c_rels)

let probe_index cat name =
  Option.map
    (fun e -> Once.get e.e_index)
    (String_map.find_opt name cat.c_rels)

(* ------------------ secondary-index catalog ------------------- *)

let find_sec e ~kind attrs =
  List.find_opt
    (fun s -> String.equal s.s_kind kind && Attr.Set.equal s.s_attrs attrs)
    e.e_sec

let create_index cat name ~kind attrs =
  let e =
    match String_map.find_opt name cat.c_rels with
    | Some e -> e
    | None -> Exec_error.bad_inputf "create index: unknown relation %s" name
  in
  if Attr.Set.is_empty attrs then
    Exec_error.bad_input "create index: empty attribute set";
  Attr.Set.iter
    (fun a ->
      if not (Schema.mem e.e_schema a) then
        Exec_error.bad_inputf "create index: %s is not a column of %s"
          (Attr.name a) name)
    attrs;
  match index_module kind with
  | None -> Exec_error.bad_inputf "create index: unknown kind %s" kind
  | Some (module I) ->
      if find_sec e ~kind attrs <> None then cat
      else begin
        let sec =
          { s_kind = kind; s_attrs = attrs; s_idx = Packed ((module I), I.build attrs e.e_x) }
        in
        {
          cat with
          c_rels =
            String_map.add name { e with e_sec = e.e_sec @ [ sec ] } cat.c_rels;
        }
      end

let drop_index cat name ~kind attrs =
  match String_map.find_opt name cat.c_rels with
  | None -> cat
  | Some e ->
      let secs =
        List.filter
          (fun s ->
            not (String.equal s.s_kind kind && Attr.Set.equal s.s_attrs attrs))
          e.e_sec
      in
      { cat with c_rels = String_map.add name { e with e_sec = secs } cat.c_rels }

let indexes cat name =
  match String_map.find_opt name cat.c_rels with
  | None -> []
  | Some e ->
      List.map (fun s -> (s.s_kind, s.s_attrs, packed_cardinal s.s_idx)) e.e_sec

let all_indexes cat =
  List.concat_map
    (fun (name, e) ->
      List.map (fun s -> (name, s.s_kind, s.s_attrs)) e.e_sec)
    (String_map.bindings cat.c_rels)

let equi_probe cat name attrs =
  match String_map.find_opt name cat.c_rels with
  | None -> None
  | Some e ->
      List.find_map
        (fun s ->
          if Attr.Set.equal s.s_attrs attrs then
            Some (fun t -> packed_probe s.s_idx t)
          else None)
        e.e_sec

let has_equi cat name attrs = equi_probe cat name attrs <> None

let dump_index cat name ~kind attrs =
  match String_map.find_opt name cat.c_rels with
  | None -> None
  | Some e -> (
      match find_sec e ~kind attrs with
      | None -> None
      | Some s ->
          let _, posmap =
            List.fold_left
              (fun (i, m) t -> (i + 1, Tuple.Map.add t i m))
              (0, Tuple.Map.empty) (Xrel.to_list e.e_x)
          in
          packed_dump s.s_idx ~pos:(fun t -> Tuple.Map.find_opt t posmap))

let restore_index cat name ~kind attrs ~lines =
  match String_map.find_opt name cat.c_rels with
  | None -> (cat, false)
  | Some e ->
      if
        (not (Attr.Set.subset attrs (Schema.attr_set e.e_schema)))
        || find_sec e ~kind attrs <> None
      then (cat, false)
      else (
        match index_module kind with
        | None -> (cat, false)
        | Some (module I) -> (
            let attach idx attached =
              let sec = { s_kind = kind; s_attrs = attrs; s_idx = Packed ((module I), idx) } in
              ( {
                  cat with
                  c_rels =
                    String_map.add name
                      { e with e_sec = e.e_sec @ [ sec ] }
                      cat.c_rels;
                },
                attached )
            in
            let rebuilt () =
              match I.build attrs e.e_x with
              | idx -> attach idx false
              | exception _ -> (cat, false)
            in
            match lines with
            | None -> rebuilt ()
            | Some ls -> (
                let arr = Array.of_list (Xrel.to_list e.e_x) in
                match I.restore attrs arr ls with
                | Some idx -> attach idx true
                | None -> rebuilt ())))

(* ------------------------- statistics ------------------------- *)

type stats_status = Fresh of Stats.table | Stale of Stats.table | Missing

let stats_status cat name =
  match String_map.find_opt name cat.c_rels with
  | None | Some { e_stats = None; _ } -> Missing
  | Some { e_stats = Some (stamp, t); e_version; _ } ->
      if stamp = e_version then Fresh t else Stale t

let stats cat name =
  match stats_status cat name with Fresh t -> Some t | Stale _ | Missing -> None

let set_stats cat name t =
  match String_map.find_opt name cat.c_rels with
  | None -> cat
  | Some e ->
      {
        cat with
        c_rels =
          String_map.add name
            { e with e_stats = Some (e.e_version, t) }
            cat.c_rels;
      }

let clear_stats cat name =
  match String_map.find_opt name cat.c_rels with
  | None -> cat
  | Some e ->
      { cat with c_rels = String_map.add name { e with e_stats = None } cat.c_rels }

(* ------------------------- constraints ------------------------ *)

let constraints cat = cat.c_defs

let constraint_def cat name =
  List.find_opt (fun d -> String.equal (Constr.name d) name) cat.c_defs

let unverified_constraints cat = cat.c_unverified

let enforce_env cat =
  {
    Constr.lookup =
      (fun name ->
        Option.map (fun e -> e.e_x) (String_map.find_opt name cat.c_rels));
    probe = (fun name -> probe_index cat name);
    key_of =
      (fun name ->
        match String_map.find_opt name cat.c_rels with
        | Some e -> Schema.key e.e_schema
        | None -> Attr.Set.empty);
  }

let enforce cat seeds = Constr.enforce (enforce_env cat) cat.c_defs seeds

let verify_constraint cat def = Constr.verify (enforce_env cat) def

let attach_constraint ?(verified = true) cat def =
  let n = Constr.name def in
  let defs =
    List.filter (fun d -> not (String.equal (Constr.name d) n)) cat.c_defs
    @ [ def ]
  in
  let unverified = List.filter (fun m -> not (String.equal m n)) cat.c_unverified in
  {
    cat with
    c_defs = defs;
    c_unverified = (if verified then unverified else unverified @ [ n ]);
  }

let add_constraint cat def =
  (* The TLA+ [Add*Constraint] precondition: the data already satisfies
     the constraint being declared. *)
  (match verify_constraint cat def with
  | [] -> ()
  | v :: _ -> Constr.error v);
  attach_constraint ~verified:true cat def

let drop_constraint cat name =
  {
    cat with
    c_defs =
      List.filter (fun d -> not (String.equal (Constr.name d) name)) cat.c_defs;
    c_unverified =
      List.filter (fun m -> not (String.equal m name)) cat.c_unverified;
  }

let revalidate_constraints cat =
  List.fold_left
    (fun (cat, bad) name ->
      match constraint_def cat name with
      | None -> (cat, bad)
      | Some def -> (
          match verify_constraint cat def with
          | [] ->
              ( {
                  cat with
                  c_unverified =
                    List.filter
                      (fun m -> not (String.equal m name))
                      cat.c_unverified;
                },
                bad )
          | violations -> (cat, bad @ List.map (fun v -> (name, v)) violations)))
    (cat, []) cat.c_unverified

(* --------------------- referential checks --------------------- *)

type reference_violation = {
  relation : string;
  fk : Schema.foreign_key;
  tuple : Tuple.t;
}

let pp_reference_violation ppf v =
  Format.fprintf ppf "%s: tuple %a references no tuple of %s" v.relation
    Tuple.pp v.tuple v.fk.Schema.fk_target

(* A total reference (local attrs all bound) must be matched by a target
   tuple carrying the referenced values; partial references assert
   nothing. *)
let fk_violations cat rel_name fk x =
  let target = find cat fk.Schema.fk_target in
  let reference_of r =
    List.fold_left
      (fun acc (local, referenced) ->
        match acc with
        | None -> None
        | Some t -> (
            match Tuple.get r local with
            | Value.Null -> None
            | v -> Some (Tuple.set t referenced v)))
      (Some Tuple.empty) fk.Schema.fk_pairs
  in
  List.filter_map
    (fun r ->
      match reference_of r with
      | None -> None
      | Some reference ->
          let matched =
            match target with
            | None -> false
            | Some (_, target_x) -> Xrel.x_mem reference target_x
          in
          if matched then None else Some { relation = rel_name; fk; tuple = r })
    (Xrel.to_list x)

(* Declared foreign-key constraints take part in the advisory full-scan
   check too, so `.check` (and the model-check acceptance criterion)
   covers both the schema-level and the declared references. *)
let check_references cat =
  let schema_level =
    String_map.fold
      (fun rel_name e acc ->
        List.concat_map
          (fun fk -> fk_violations cat rel_name fk e.e_x)
          (Schema.foreign_keys e.e_schema)
        @ acc)
      cat.c_rels []
  in
  let declared =
    List.concat_map
      (function
        | Constr.Foreign_key { rel; target; pairs; _ } -> (
            match String_map.find_opt rel cat.c_rels with
            | None -> []
            | Some e ->
                fk_violations cat rel
                  { Schema.fk_target = target; fk_pairs = pairs }
                  e.e_x)
        | Constr.Unique _ | Constr.Not_null _ -> [])
      cat.c_defs
  in
  schema_level @ declared
