open Nullrel

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

type 'c env = {
  lookup : 'c -> string -> Xrel.t option;
  probe : 'c -> string -> Subsume_index.t option;
  equi_probe : 'c -> string -> Attr.Set.t -> (Tuple.t -> Tuple.t list) option;
  key_of : 'c -> string -> Attr.Set.t;
  apply : 'c -> delta -> 'c * delta;
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

let target_holds env c target reference =
  match env.probe c target with
  | None -> false
  | Some idx -> Subsume_index.subsuming_exists idx reference

(* Checks on tuples a delta added: not-null, ni-tolerant uniqueness,
   and outgoing references — all by index probe, never a scan. *)
let added_checks env defs c d =
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
            match env.probe c rel with
            | None -> ()
            | Some idx ->
                let aset = Attr.Set.of_list attrs in
                Tuple.Set.iter
                  (fun t ->
                    (* A tuple null on any unique attribute collides
                       with nothing; one absorbed by minimization added
                       no information. *)
                    if Tuple.is_total_on aset t && Subsume_index.mem idx t then
                      let u = Tuple.restrict t aset in
                      if Subsume_index.count_at idx u >= 2 then
                        error (Duplicate { constr = name; rel; tuple = t }))
                  d.d_added)
        | Foreign_key { name; rel; target; pairs; _ }
          when String.equal rel d.d_rel ->
            Tuple.Set.iter
              (fun t ->
                match reference_of pairs t with
                | None -> () (* partial reference asserts nothing *)
                | Some reference ->
                    if not (target_holds env c target reference) then
                      error
                        (Dangling { constr = name; rel; target; tuple = t }))
              d.d_added
        | Unique _ | Not_null _ | Foreign_key _ -> ())
      defs

(* The tuples of [x], relation [rel] in [c], that a removal from
   [target] left dangling. Under [ni] only a total reference asserts
   anything, and it holds only while some target tuple agrees with it
   on the referenced attributes, so the only candidates are the
   references equal to a removed tuple's referenced values. A declared
   equality index on exactly the local attributes finds them with one
   probe per removed tuple; without one, the scan keeps to the same
   candidates. *)
let broken_references env c x ~rel ~target pairs removed =
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
        Tuple.Set.mem reference keys
        && not (target_holds env c target reference)
  in
  if Tuple.Set.is_empty keys then Tuple.Set.empty
  else
    match env.equi_probe c rel (Attr.Set.of_list (List.map fst pairs)) with
    | None -> Tuple.Set.filter dangling (Relation.tuples (Xrel.rep x))
    | Some probe ->
        Tuple.Set.fold
          (fun key acc ->
            let local =
              List.fold_left
                (fun k (l, r) -> Tuple.set k l (Tuple.get key r))
                Tuple.empty pairs
            in
            List.fold_left
              (fun acc h -> if dangling h then Tuple.Set.add h acc else acc)
              acc (probe local))
          keys Tuple.Set.empty

(* The declared delete action, fired on the referencing tuples a
   removal left dangling; [fire] applies it and returns the state. *)
let removal_checks env defs c d ~fire =
  if Tuple.Set.is_empty d.d_removed then c
  else
    List.fold_left
      (fun c -> function
        | Foreign_key { name; rel; target; pairs; on_delete }
          when String.equal target d.d_rel -> (
            match env.lookup c rel with
            | None -> c
            | Some x -> (
                let dangling =
                  broken_references env c x ~rel ~target pairs d.d_removed
                in
                if Tuple.Set.is_empty dangling then c
                else
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
                      fire c
                        {
                          d_rel = rel;
                          d_added = Tuple.Set.empty;
                          d_removed = dangling;
                        }
                  | Set_null ->
                      let locals = List.map fst pairs in
                      List.iter
                        (fun local ->
                          if Attr.Set.mem local (env.key_of c rel) then
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
                            defs)
                        locals;
                      let local_set = Attr.Set.of_list locals in
                      Obs.Metrics.add m_set_null (Tuple.Set.cardinal dangling);
                      fire c
                        {
                          d_rel = rel;
                          d_added =
                            Tuple.Set.map
                              (fun r -> Tuple.remove r local_set)
                              dangling;
                          d_removed = dangling;
                        }))
        | Unique _ | Not_null _ | Foreign_key _ -> c)
      c defs

let enforce env defs c seeds =
  if defs = [] || seeds = [] then (c, [])
  else begin
    Obs.Metrics.inc m_checks;
    let fired = ref [] in
    let queue = Queue.of_seq (List.to_seq seeds) in
    (* An action applies to the state as it fires, so every later probe
       reads it; the seeds are already reflected in [c]. *)
    let fire c action =
      let c, net = env.apply c action in
      fired := (action, net) :: !fired;
      Queue.add action queue;
      c
    in
    (* Terminates: every fired action either strictly removes tuples or
       replaces them by strictly less informative ones, so the total
       information content strictly decreases. *)
    let rec close c =
      match Queue.take_opt queue with
      | None -> c
      | Some d ->
          added_checks env defs c d;
          close (removal_checks env defs c d ~fire)
    in
    let c = close c in
    (c, List.rev !fired)
  end

(* ---------------------- full verification --------------------- *)

let verify env c def =
  let scan rel check =
    match env.lookup c rel with
    | None -> []
    | Some x -> List.filter_map check (Xrel.to_list x)
  in
  match def with
  | Not_null { name; rel; attr } ->
      scan rel (fun t ->
          if Value.is_null (Tuple.get t attr) then
            Some (Null_forbidden { constr = name; rel; attr })
          else None)
  | Unique { name; rel; attrs } ->
      let aset = Attr.Set.of_list attrs and idx = env.probe c rel in
      scan rel (fun t ->
          match idx with
          | Some idx
            when Tuple.is_total_on aset t
                 && Subsume_index.count_at idx (Tuple.restrict t aset) >= 2 ->
              Some (Duplicate { constr = name; rel; tuple = t })
          | Some _ | None -> None)
  | Foreign_key { name; rel; target; pairs; _ } ->
      scan rel (fun t ->
          match reference_of pairs t with
          | Some reference when not (target_holds env c target reference) ->
              Some (Dangling { constr = name; rel; target; tuple = t })
          | Some _ | None -> None)
