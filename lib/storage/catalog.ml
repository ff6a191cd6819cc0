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

type entry = {
  e_schema : Schema.t;
  e_x : Xrel.t;
  e_count : int;  (** [Xrel.cardinal e_x], kept so a lookup is O(1). *)
  e_version : int;
  e_stats : (int * Stats.table) option;  (** (version stamp, summary) *)
  e_index : Subsume_index.t Once.t;
  e_sec : (string * Attr.Set.t) list;
      (** Declared indexes, kind and attributes, in declaration order.
          Their probes read [e_index]'s listings. *)
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
          e_count = Xrel.cardinal x;
          e_version = e.e_version + 1;
          e_index = index_of x;
          (* A declaration whose attributes left the schema is dropped:
             it is an acceleration, never a source of truth. *)
          e_sec =
            List.filter
              (fun (_, attrs) -> Attr.Set.subset attrs (Schema.attr_set schema))
              e.e_sec;
        }
    | None ->
        {
          e_schema = schema;
          e_x = x;
          e_count = Xrel.cardinal x;
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
            e_count = Xrel.cardinal x;
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

let cardinal cat name =
  Option.map (fun e -> e.e_count) (String_map.find_opt name cat.c_rels)

let relation cat name = snd (get cat name)
let schema cat name = fst (get cat name)
let names cat = List.map fst (String_map.bindings cat.c_rels)
let mem cat name = String_map.mem name cat.c_rels

let remove cat name =
  { cat with c_rels = String_map.remove name cat.c_rels }

let set_relation cat name x =
  let e = String_map.find name cat.c_rels in
  (* A write of the identical relation is a no-op: keep the entry —
     and with it the memoized subsumption index and the statistics
     stamp — instead of invalidating them for nothing. *)
  if Xrel.equal x e.e_x then cat
  else
    match Schema.check e.e_schema x with
    | [] -> add_entry cat e.e_schema x
    | violations -> raise (Violation violations)

(* ---------------------- incremental DML ----------------------- *)

(* Patches an entry by a net delta known to keep the relation minimal:
   the persistent set moves by the delta — O(|delta| log n) — instead of
   being rebuilt, which would put an O(n) term back into every
   statement. [x] is the entry's relation with the delta applied,
   [count] its cardinality, and [index] gives the new subsumption-index
   memo, which also serves the declared indexes' probes. *)
let patch cat name e ~x ~count ~index =
  let entry =
    {
      e with
      e_x = x;
      e_count = count;
      e_version = e.e_version + 1;
      e_index = index x;
    }
  in
  { cat with c_rels = String_map.add name entry cat.c_rels }

(* [apply_delta] is the DML-path counterpart of {!set_relation}: it
   maintains the minimal representation by the insert discipline of
   Section 7 — probe, admit, evict the newly-subsumed — in one bounded
   pass over the statement delta, never re-minimizing the relation.
   Deletions need no repair at all: removing elements from an antichain
   leaves an antichain. The entry's subsumption index is advanced by
   the same net delta, so its tables survive the write. *)
let apply_delta cat name ~added ~removed =
  let e = String_map.find name cat.c_rels in
  let idx0 = Once.get e.e_index in
  let removed = List.filter (fun t -> Subsume_index.mem idx0 t) removed in
  let idx1 = Subsume_index.advance idx0 ~added:[] ~removed in
  let key = Schema.key e.e_schema in
  let idx2, admitted, evicted =
    List.fold_left
      (fun (idx, adm, ev) t ->
        let t = Subsume_index.share_signature idx t in
        match Subsume_index.admit idx t with
        | None -> (idx, adm, ev)
        | Some (idx, dead) ->
            (* Incremental integrity: domains and entity integrity are
               per-tuple; key uniqueness is one probe of the key
               restriction after the eviction pass (the index counts the
               live tuples agreeing with [t] on the key, [t] included). *)
            (match Schema.check_tuple e.e_schema t with
            | [] -> ()
            | vs -> raise (Violation vs));
            if (not (Attr.Set.is_empty key)) && Tuple.is_total_on key t then begin
              let kr = Tuple.restrict t key in
              if Subsume_index.count_at idx kr > 1 then
                raise (Violation [ Schema.Duplicate_key kr ])
            end;
            ( idx,
              Tuple.Set.add t adm,
              List.fold_left (fun s d -> Tuple.Set.add d s) ev dead ))
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
    (* The advanced index already holds the new relation: keep the one
       set for both. *)
    let x =
      Xrel.unsafe_of_minimal (Relation.of_tuples (Subsume_index.tuples idx2))
    in
    let count =
      e.e_count + Tuple.Set.cardinal net_added - Tuple.Set.cardinal net_removed
    in
    ( patch cat name e ~x ~count ~index:(fun _ -> Once.of_val idx2),
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
      (* A set operation that changes nothing returns its argument, so
         the count moves only by what really moved. *)
      let step f d (r, n) t =
        let r' = f t r in
        (r', if r' == r then n else n + d)
      in
      let x, count =
        List.fold_left (step Relation.add 1)
          (List.fold_left (step Relation.remove (-1))
             (Xrel.rep e.e_x, e.e_count) removed)
          added
      in
      patch cat name e ~x:(Xrel.unsafe_of_minimal x) ~count ~index:index_of

(* The top-level [A = k] conjuncts of [p] as one restriction: [Some r]
   with [r] binding each such [A] to its [k], [None] when two of them
   give one attribute different constants (no tuple can satisfy both).
   An equality with [ni], never true, is left to the filter. *)
let rec conjunct_restriction p r =
  match (p, r) with
  | _, None -> None
  | Predicate.And (p, q), r -> conjunct_restriction q (conjunct_restriction p r)
  | Predicate.Cmp_const (a, Predicate.Eq, k), Some r when not (Value.is_null k)
    -> (
      match Tuple.get r a with
      | Value.Null -> Some (Tuple.set r a k)
      | k0 -> if Value.equal k0 k then Some r else None)
  | _, r -> r

let kinds_of schema a =
  match Schema.domain schema a with Some d -> Domain.kind d | None -> 0

(* Under Section 5's lower bound, [A = k] is true only on a tuple whose
   [A] is non-null and equal to [k]: exactly the tuples that the
   subsumption index lists at the restriction [(A = k)]. The probe
   stands in for the scan only when no comparison in [p] can meet two
   kinds of value, so that a scan would raise nothing either. *)
let qualifying cat name p =
  let e = String_map.find name cat.c_rels in
  let scan () = Xrel.to_list (Xrel.filter (Predicate.holds p) e.e_x) in
  if Predicate.may_raise (kinds_of e.e_schema) p then scan ()
  else
    match conjunct_restriction p (Some Tuple.empty) with
    | None -> []
    | Some r when Tuple.is_null_tuple r -> scan ()
    | Some r ->
        List.filter
          (fun t ->
            Exec.tick ();
            Predicate.holds p t)
          (Subsume_index.matching (Once.get e.e_index) r)

let to_db cat =
  List.map
    (fun (name, e) -> (name, (e.e_schema, e.e_x)))
    (String_map.bindings cat.c_rels)

let probe_index cat name =
  Option.map
    (fun e -> Once.get e.e_index)
    (String_map.find_opt name cat.c_rels)

(* ------------------ secondary-index catalog ------------------- *)

(* A declaration names an equality probe; the relation's subsumption
   index serves it ({!Subsume_index.equi_probe}). The kinds differ only
   in what they accept: a [range] key is a single attribute. *)
let index_kinds = [ "hash"; "range" ]

let declares e attrs = List.exists (fun (_, a) -> Attr.Set.equal a attrs) e.e_sec

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
  if not (List.mem kind index_kinds) then
    Exec_error.bad_inputf "create index: unknown kind %s" kind;
  if String.equal kind "range" && Attr.Set.cardinal attrs > 1 then
    Exec_error.bad_input "create index: a range key must be a single attribute";
  if List.mem (kind, attrs) e.e_sec then cat
  else
    {
      cat with
      c_rels =
        String_map.add name { e with e_sec = e.e_sec @ [ (kind, attrs) ] } cat.c_rels;
    }

let drop_index cat name ~kind attrs =
  match String_map.find_opt name cat.c_rels with
  | None -> cat
  | Some e ->
      let secs =
        List.filter
          (fun (k, a) -> not (String.equal k kind && Attr.Set.equal a attrs))
          e.e_sec
      in
      { cat with c_rels = String_map.add name { e with e_sec = secs } cat.c_rels }

let indexes cat name =
  match String_map.find_opt name cat.c_rels with
  | None -> []
  | Some e ->
      List.map
        (fun (kind, attrs) ->
          let total = Tuple.signature_of_attrs attrs in
          ( kind,
            attrs,
            List.length
              (List.filter (Tuple.is_total_on_signature total) (Xrel.to_list e.e_x)) ))
        e.e_sec

let all_indexes cat =
  List.concat_map
    (fun (name, e) -> List.map (fun (kind, attrs) -> (name, kind, attrs)) e.e_sec)
    (String_map.bindings cat.c_rels)

let equi_probe cat name attrs =
  match String_map.find_opt name cat.c_rels with
  | Some e when declares e attrs ->
      Some (Subsume_index.equi_probe (Once.get e.e_index) attrs)
  | Some _ | None -> None

let has_equi cat name attrs =
  match String_map.find_opt name cat.c_rels with
  | Some e -> declares e attrs
  | None -> false

let restore_index cat name ~kind attrs =
  match create_index cat name ~kind attrs with
  | cat -> Some cat
  | exception Exec_error.Error _ -> None

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
    equi_probe = equi_probe cat;
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
