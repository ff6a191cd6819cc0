open Nullrel
module String_map = Map.Make (String)

(* ------------------------ declarations ------------------------ *)

type action = Restrict | Cascade | Set_null

type def =
  | Unique of { name : string; rel : string; attrs : Attr.t list }
  | Not_null of { name : string; rel : string; attr : Attr.t }
  | Foreign_key of {
      name : string;
      rel : string;
      target : string;
      pairs : (Attr.t * Attr.t) list;
      on_delete : action;
    }

let name = function
  | Unique { name; _ } | Not_null { name; _ } | Foreign_key { name; _ } -> name

let relations = function
  | Unique { rel; _ } | Not_null { rel; _ } -> [ rel ]
  | Foreign_key { rel; target; _ } ->
      if String.equal rel target then [ rel ] else [ rel; target ]

let action_to_string = function
  | Restrict -> "restrict"
  | Cascade -> "cascade"
  | Set_null -> "setnull"

let action_of_string = function
  | "restrict" -> Some Restrict
  | "cascade" -> Some Cascade
  | "setnull" -> Some Set_null
  | _ -> None

let pp_def ppf = function
  | Unique { name; rel; attrs } ->
      Format.fprintf ppf "%s: unique %s (%s)" name rel
        (String.concat ", " (List.map Attr.name attrs))
  | Not_null { name; rel; attr } ->
      Format.fprintf ppf "%s: notnull %s (%s)" name rel (Attr.name attr)
  | Foreign_key { name; rel; target; pairs; on_delete } ->
      Format.fprintf ppf "%s: fk %s (%s) to %s (%s) on delete %s" name rel
        (String.concat ", " (List.map (fun (l, _) -> Attr.name l) pairs))
        target
        (String.concat ", " (List.map (fun (_, r) -> Attr.name r) pairs))
        (action_to_string on_delete)

let def_to_line = function
  | Unique { name; rel; attrs } ->
      String.concat "\t" ("unique" :: name :: rel :: List.map Attr.name attrs)
  | Not_null { name; rel; attr } ->
      String.concat "\t" [ "notnull"; name; rel; Attr.name attr ]
  | Foreign_key { name; rel; target; pairs; on_delete } ->
      String.concat "\t"
        ("fk" :: name :: rel :: target
        :: action_to_string on_delete
        :: List.concat_map
             (fun (l, r) -> [ Attr.name l; Attr.name r ])
             pairs)

let def_of_line line =
  let rec pair_up = function
    | [] -> Some []
    | l :: r :: rest ->
        Option.map
          (fun pairs -> (Attr.make l, Attr.make r) :: pairs)
          (pair_up rest)
    | [ _ ] -> None
  in
  match String.split_on_char '\t' line with
  | "unique" :: name :: rel :: (_ :: _ as attrs) ->
      Some (Unique { name; rel; attrs = List.map Attr.make attrs })
  | [ "notnull"; name; rel; attr ] ->
      Some (Not_null { name; rel; attr = Attr.make attr })
  | "fk" :: name :: rel :: target :: action :: (_ :: _ as rest) -> (
      match (action_of_string action, pair_up rest) with
      | Some on_delete, Some pairs ->
          Some (Foreign_key { name; rel; target; pairs; on_delete })
      | _ -> None)
  | _ -> None

(* ------------------------- violations ------------------------- *)

type violation =
  | Null_forbidden of { constr : string; rel : string; attr : Attr.t }
  | Duplicate of { constr : string; rel : string; tuple : Tuple.t }
  | Dangling of {
      constr : string;
      rel : string;
      target : string;
      tuple : Tuple.t;
    }
  | Restricted of {
      constr : string;
      rel : string;
      target : string;
      tuple : Tuple.t;
    }
  | Set_null_forbidden of {
      constr : string;
      rel : string;
      attr : Attr.t;
      blocker : string;
    }

exception Error of violation

let class_name = function
  | Null_forbidden _ -> "not-null"
  | Duplicate _ -> "unique"
  | Dangling _ -> "fk-dangling"
  | Restricted _ -> "fk-restricted"
  | Set_null_forbidden _ -> "set-null-blocked"

let exit_code = 10

let to_string = function
  | Null_forbidden { constr; rel; attr } ->
      Printf.sprintf "constraint %s: %s.%s may not be null" constr rel
        (Attr.name attr)
  | Duplicate { constr; rel; tuple } ->
      Printf.sprintf "constraint %s: duplicate unique value in %s at %s"
        constr rel
        (Pp.to_string Tuple.pp tuple)
  | Dangling { constr; rel; target; tuple } ->
      Printf.sprintf
        "constraint %s: %s tuple %s references no tuple of %s" constr rel
        (Pp.to_string Tuple.pp tuple)
        target
  | Restricted { constr; rel; target; tuple } ->
      Printf.sprintf
        "constraint %s: deletion from %s restricted — %s tuple %s still \
         references it"
        constr target rel
        (Pp.to_string Tuple.pp tuple)
  | Set_null_forbidden { constr; rel; attr; blocker } ->
      Printf.sprintf
        "constraint %s: set-null would write ni into %s.%s, forbidden by %s"
        constr rel (Attr.name attr) blocker

let pp_violation ppf v = Format.pp_print_string ppf (to_string v)

(* ------------------------- metrics ---------------------------- *)

let m_checks =
  Obs.Metrics.counter ~help:"Constraint enforcement passes over write deltas"
    "nullrel_constraint_checks_total"

let m_cascade =
  Obs.Metrics.counter
    ~help:"Tuples deleted by foreign-key cascade actions"
    "nullrel_constraint_cascade_tuples_total"

let m_set_null =
  Obs.Metrics.counter
    ~help:"Tuples rewritten to ni by foreign-key set-null actions"
    "nullrel_constraint_set_null_tuples_total"

let m_violations =
  let make cls =
    ( cls,
      Obs.Metrics.counter
        ~labels:[ ("class", cls) ]
        ~help:"Constraint violations that aborted a transaction, by class"
        "nullrel_constraint_violations_total" )
  in
  List.map make
    [ "not-null"; "unique"; "fk-dangling"; "fk-restricted"; "set-null-blocked" ]

let error v =
  if Obs.Metrics.is_enabled () then
    Obs.Metrics.inc (List.assoc (class_name v) m_violations);
  raise (Error v)

(* ------------------------ enforcement ------------------------- *)

type delta = {
  d_rel : string;
  d_added : Tuple.Set.t;
  d_removed : Tuple.Set.t;
}

type env = {
  lookup : string -> Xrel.t option;
  probe : string -> Subsume_index.t option;
  equi_probe : string -> Attr.Set.t -> (Tuple.t -> Tuple.t list) option;
  key_of : string -> Attr.Set.t;
}

(* A total reference of [r] through the fk pairs, as a tuple over the
   {e referenced} attributes — or [None] when any local attribute is
   null (the tuple asserts nothing, per Section 8). *)
let reference_of pairs r =
  List.fold_left
    (fun acc (local, referenced) ->
      match acc with
      | None -> None
      | Some t -> (
          match Tuple.get r local with
          | Value.Null -> None
          | v -> Some (Tuple.set t referenced v)))
    (Some Tuple.empty) pairs

(* Mutable working state: the post-statement relations, overlaid with
   the referential actions fired so far. A relation starts out as the
   env's own value and index, shared untouched; each action then moves
   both by its delta. [rs_added] holds the tuples the closure put in —
   the ones the env's declared equality indexes do not hold. *)
type rel_state = {
  rs_x : Xrel.t;
  rs_idx : Subsume_index.t Lazy.t;
  rs_added : Tuple.Set.t;
}

type state = {
  env : env;
  defs : def list;
  mutable overlay : rel_state String_map.t;
}

let state_of st rel =
  match String_map.find_opt rel st.overlay with
  | Some rs -> Some rs
  | None -> (
      match st.env.lookup rel with
      | None -> None
      | Some x ->
          let rs =
            {
              rs_x = x;
              rs_idx =
                lazy
                  (match st.env.probe rel with
                  | Some idx -> idx
                  | None -> Subsume_index.build (Xrel.rep x));
              rs_added = Tuple.Set.empty;
            }
          in
          st.overlay <- String_map.add rel rs st.overlay;
          Some rs)

(* Advances a relation's working state by an action's delta, in
   O(|delta| log n). A cascade only removes tuples, and a subset of an
   antichain is one; a set-null rewrite is admitted by the insert
   discipline's probe/admit/evict step, the one {!Storage.Catalog}
   runs, so the state stays the minimal relation the committed
   extras will produce. *)
let apply_overlay st d =
  match state_of st d.d_rel with
  | None -> ()
  | Some rs ->
      let drop t (x, added) = (Relation.remove t x, Tuple.Set.remove t added) in
      let x, added =
        Tuple.Set.fold drop d.d_removed (Xrel.rep rs.rs_x, rs.rs_added)
      in
      let idx =
        lazy
          (Subsume_index.advance (Lazy.force rs.rs_idx) ~added:[]
             ~removed:(Tuple.Set.elements d.d_removed))
      in
      let idx, x, added =
        if Tuple.Set.is_empty d.d_added then (idx, x, added)
        else
          let idx, x, added =
            Tuple.Set.fold
              (fun t (idx, x, added) ->
                match Subsume_index.admit idx t with
                | None -> (idx, x, added)
                | Some (idx, dead) ->
                    let x, added = List.fold_right drop dead (x, added) in
                    (idx, Relation.add t x, Tuple.Set.add t added))
              d.d_added (Lazy.force idx, x, added)
          in
          (Lazy.from_val idx, x, added)
      in
      st.overlay <-
        String_map.add d.d_rel
          { rs_x = Xrel.unsafe_of_minimal x; rs_idx = idx; rs_added = added }
          st.overlay

let target_holds st target reference =
  match state_of st target with
  | None -> false
  | Some rs -> Subsume_index.subsuming_exists (Lazy.force rs.rs_idx) reference

(* Checks on tuples a delta added: not-null, ni-tolerant uniqueness,
   and outgoing references — all by index probe, never a scan. *)
let added_checks st d =
  if not (Tuple.Set.is_empty d.d_added) then
    List.iter
      (function
        | Not_null { name; rel; attr } when String.equal rel d.d_rel ->
            Tuple.Set.iter
              (fun t ->
                if Value.is_null (Tuple.get t attr) then
                  error (Null_forbidden { constr = name; rel; attr }))
              d.d_added
        | Unique { name; rel; attrs } when String.equal rel d.d_rel -> (
            match state_of st rel with
            | None -> ()
            | Some rs ->
                let aset = Attr.Set.of_list attrs in
                let rep = Relation.tuples (Xrel.rep rs.rs_x) in
                Tuple.Set.iter
                  (fun t ->
                    (* A tuple null on any unique attribute collides
                       with nothing; one absorbed by minimization added
                       no information. *)
                    if Tuple.is_total_on aset t && Tuple.Set.mem t rep then
                      let u = Tuple.restrict t aset in
                      if Subsume_index.count_at (Lazy.force rs.rs_idx) u >= 2
                      then error (Duplicate { constr = name; rel; tuple = t }))
                  d.d_added)
        | Foreign_key { name; rel; target; pairs; _ }
          when String.equal rel d.d_rel ->
            Tuple.Set.iter
              (fun t ->
                match reference_of pairs t with
                | None -> () (* partial reference asserts nothing *)
                | Some reference ->
                    if not (target_holds st target reference) then
                      error
                        (Dangling { constr = name; rel; target; tuple = t }))
              d.d_added
        | Unique _ | Not_null _ | Foreign_key _ -> ())
      st.defs

(* The referencing tuples of [rs] a removal from [target] left
   dangling. Under [ni] only a total reference asserts anything, and it
   holds only while some target tuple agrees with it on the referenced
   attributes, so the only candidates are the references equal to a
   removed tuple's referenced values. A declared equality index on
   exactly the local attributes finds them with one probe per removed
   tuple; it covers the env's value, so hits the closure has removed
   are dropped and the closure's own additions are tested directly.
   Without one, the scan keeps to the same candidates. *)
let broken_references st rs ~rel ~target pairs removed =
  let referenced = Attr.Set.of_list (List.map snd pairs) in
  let keys =
    Tuple.Set.fold
      (fun t acc ->
        if Tuple.is_total_on referenced t then
          Tuple.Set.add (Tuple.restrict t referenced) acc
        else acc)
      removed Tuple.Set.empty
  in
  let dangling r =
    match reference_of pairs r with
    | None -> false
    | Some reference ->
        Tuple.Set.mem reference keys && not (target_holds st target reference)
  in
  let live = Relation.tuples (Xrel.rep rs.rs_x) in
  if Tuple.Set.is_empty keys then Tuple.Set.empty
  else
    match st.env.equi_probe rel (Attr.Set.of_list (List.map fst pairs)) with
    | None -> Tuple.Set.filter dangling live
    | Some probe ->
        let hits =
          Tuple.Set.fold
            (fun key acc ->
              let local =
                List.fold_left
                  (fun k (l, r) -> Tuple.set k l (Tuple.get key r))
                  Tuple.empty pairs
              in
              List.fold_left
                (fun acc h -> if Tuple.Set.mem h live then Tuple.Set.add h acc else acc)
                acc (probe local))
            keys Tuple.Set.empty
        in
        Tuple.Set.filter dangling (Tuple.Set.union hits rs.rs_added)

(* The declared delete action, fired on the referencing tuples a
   removal left dangling. *)
let removal_checks st d ~emit =
  if not (Tuple.Set.is_empty d.d_removed) then
    List.iter
      (function
        | Foreign_key { name; rel; target; pairs; on_delete }
          when String.equal target d.d_rel -> (
            match state_of st rel with
            | None -> ()
            | Some rs ->
                let dangling =
                  broken_references st rs ~rel ~target pairs d.d_removed
                in
                if not (Tuple.Set.is_empty dangling) then begin
                  match on_delete with
                  | Restrict ->
                      error
                        (Restricted
                           {
                             constr = name;
                             rel;
                             target;
                             tuple = Tuple.Set.min_elt dangling;
                           })
                  | Cascade ->
                      Obs.Metrics.add m_cascade (Tuple.Set.cardinal dangling);
                      emit
                        {
                          d_rel = rel;
                          d_added = Tuple.Set.empty;
                          d_removed = dangling;
                        }
                  | Set_null ->
                      let locals = List.map fst pairs in
                      List.iter
                        (fun local ->
                          if Attr.Set.mem local (st.env.key_of rel) then
                            error
                              (Set_null_forbidden
                                 {
                                   constr = name;
                                   rel;
                                   attr = local;
                                   blocker = "primary key";
                                 });
                          List.iter
                            (function
                              | Not_null { name = nn; rel = r; attr }
                                when String.equal r rel
                                     && Attr.equal attr local ->
                                  error
                                    (Set_null_forbidden
                                       {
                                         constr = name;
                                         rel;
                                         attr = local;
                                         blocker = "constraint " ^ nn;
                                       })
                              | _ -> ())
                            st.defs)
                        locals;
                      let local_set = Attr.Set.of_list locals in
                      Obs.Metrics.add m_set_null (Tuple.Set.cardinal dangling);
                      emit
                        {
                          d_rel = rel;
                          d_added =
                            Tuple.Set.map
                              (fun r -> Tuple.remove r local_set)
                              dangling;
                          d_removed = dangling;
                        }
                end)
        | Unique _ | Not_null _ | Foreign_key _ -> ())
      st.defs

let enforce env defs seeds =
  if defs = [] || seeds = [] then []
  else begin
    Obs.Metrics.inc m_checks;
    let st = { env; defs; overlay = String_map.empty } in
    let extras = ref [] in
    let queue = Queue.create () in
    List.iter (fun d -> Queue.add d queue) seeds;
    let emit d =
      (* Referential actions apply to the working state immediately, so
         every later probe sees them; the seeds are already reflected
         in [env] and are not re-applied. *)
      apply_overlay st d;
      extras := d :: !extras;
      Queue.add d queue
    in
    (* Terminates: every emitted delta either strictly removes tuples or
       replaces them by strictly less informative ones, so the total
       information content strictly decreases. *)
    while not (Queue.is_empty queue) do
      let d = Queue.pop queue in
      added_checks st d;
      removal_checks st d ~emit
    done;
    List.rev !extras
  end

(* ---------------------- full verification --------------------- *)

let verify env def =
  match def with
  | Not_null { name; rel; attr } -> (
      match env.lookup rel with
      | None -> []
      | Some x ->
          List.filter_map
            (fun t ->
              if Value.is_null (Tuple.get t attr) then
                Some (Null_forbidden { constr = name; rel; attr })
              else None)
            (Xrel.to_list x))
  | Unique { name; rel; attrs } -> (
      match env.lookup rel with
      | None -> []
      | Some x ->
          let aset = Attr.Set.of_list attrs in
          let idx =
            match env.probe rel with
            | Some idx -> idx
            | None -> Subsume_index.build (Xrel.rep x)
          in
          List.filter_map
            (fun t ->
              if
                Tuple.is_total_on aset t
                && Subsume_index.count_at idx (Tuple.restrict t aset) >= 2
              then Some (Duplicate { constr = name; rel; tuple = t })
              else None)
            (Xrel.to_list x))
  | Foreign_key { name; rel; target; pairs; _ } -> (
      match env.lookup rel with
      | None -> []
      | Some x ->
          let target_idx =
            match env.probe target with
            | Some idx -> Some idx
            | None ->
                Option.map
                  (fun tx -> Subsume_index.build (Xrel.rep tx))
                  (env.lookup target)
          in
          List.filter_map
            (fun t ->
              match reference_of pairs t with
              | None -> None
              | Some reference ->
                  let ok =
                    match target_idx with
                    | None -> false
                    | Some idx -> Subsume_index.subsuming_exists idx reference
                  in
                  if ok then None
                  else Some (Dangling { constr = name; rel; target; tuple = t }))
            (Xrel.to_list x))
