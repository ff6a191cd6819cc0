open Nullrel

let errorf fmt = Exec_error.bad_inputf fmt

type outcome = {
  catalog : Storage.Catalog.t;
  message : string;
  result : Quel.Eval.result option;
  bands : Quel.Eval.bands option;
  touched : string list;
  deltas : Constr.delta list;
      (** The net per-relation changes actually applied — the statement's
          own delta followed by the cascades, in firing order. A session
          composes them into its journal record; empty for reads, DDL
          and no-op writes. *)
}

let flip = function
  | Predicate.Eq -> Predicate.Eq
  | Predicate.Neq -> Predicate.Neq
  | Predicate.Lt -> Predicate.Gt
  | Predicate.Gt -> Predicate.Lt
  | Predicate.Le -> Predicate.Ge
  | Predicate.Ge -> Predicate.Le

(* Compile a single-variable qualification onto the base relation's own
   attribute names. *)
let rec base_predicate var = function
  | Quel.Ast.Cmp (Quel.Ast.Attr (v, a), cmp, Quel.Ast.Attr (w, b))
    when String.equal v var && String.equal w var ->
      Predicate.Cmp_attrs (Attr.make a, cmp, Attr.make b)
  | Quel.Ast.Cmp (Quel.Ast.Attr (v, a), cmp, Quel.Ast.Const k)
    when String.equal v var ->
      Predicate.Cmp_const (Attr.make a, cmp, k)
  | Quel.Ast.Cmp (Quel.Ast.Const k, cmp, Quel.Ast.Attr (v, a))
    when String.equal v var ->
      Predicate.Cmp_const (Attr.make a, flip cmp, k)
  | Quel.Ast.Cmp (Quel.Ast.Const k1, cmp, Quel.Ast.Const k2) ->
      Predicate.Const (Predicate.apply_comparison cmp k1 k2)
  | Quel.Ast.Cmp _ ->
      errorf "the qualification may only reference the variable %s" var
  | Quel.Ast.And (c1, c2) ->
      Predicate.And (base_predicate var c1, base_predicate var c2)
  | Quel.Ast.Or (c1, c2) ->
      Predicate.Or (base_predicate var c1, base_predicate var c2)
  | Quel.Ast.Not c -> Predicate.Not (base_predicate var c)

let where_predicate var = function
  | None -> Predicate.Const Tvl.True
  | Some c -> base_predicate var c

let relation_of cat rel =
  match Storage.Catalog.find cat rel with
  | Some entry -> entry
  | None -> errorf "unknown relation %s" rel

(* Keyed by the schema's own attribute names, so that the rows a
   relation accumulates share them instead of each holding the parsed
   statement's copies. *)
let tuple_of_assignments schema rel values =
  List.fold_left
    (fun t (a, v) ->
      let attr =
        let attr = Attr.make a in
        match List.find_opt (Attr.equal attr) (Schema.attrs schema) with
        | Some named -> named
        | None -> errorf "relation %s has no attribute %s" rel a
      in
      if not (Value.is_null (Tuple.get t attr)) then
        errorf "attribute %s assigned twice" a;
      Tuple.set t attr v)
    Tuple.empty values

let plural n noun = Printf.sprintf "%d %s%s" n noun (if n = 1 then "" else "s")

(* --------------------------- writes --------------------------- *)

type write =
  | Insert of Tuple.t
  | Remove of Predicate.t
  | Patch of Predicate.t * (Tuple.t -> Tuple.t)

let compile_write cat = function
  | Quel.Ast.Append { rel; values } ->
      let schema, x = relation_of cat rel in
      Some (rel, x, Insert (tuple_of_assignments schema rel values))
  | Quel.Ast.Delete { var; rel; where } ->
      let _, x = relation_of cat rel in
      Some (rel, x, Remove (where_predicate var where))
  | Quel.Ast.Replace { var; rel; values; where } ->
      let schema, x = relation_of cat rel in
      let p = where_predicate var where in
      let patch = tuple_of_assignments schema rel values in
      let image = Tuple.fold (fun a v acc -> Tuple.set acc a v) patch in
      Some (rel, x, Patch (p, image))
  | Quel.Ast.Retrieve _ | Quel.Ast.Constrain _ | Quel.Ast.Unconstrain _ -> None

let cascade_note extras =
  let removed, set_null =
    List.partition (fun d -> Tuple.Set.is_empty d.Constr.d_added) extras
  in
  let count per sets =
    List.map
      (fun d ->
        Printf.sprintf per
          (Tuple.Set.cardinal d.Constr.d_removed)
          d.Constr.d_rel)
      sets
  in
  match
    count "%d removed from %s" removed @ count "%d set to null in %s" set_null
  with
  | [] -> ""
  | parts -> "; cascade: " ^ String.concat ", " parts

(* Hand the statement delta to {!Storage.Catalog.apply_delta} — which
   maintains minimality by bounded probes and advances the relation's
   indexes — and seed enforcement with the net delta it returns, for
   free. Enforcement applies the extras — cascade removals and set-null
   rewrites, in firing order — through the same path within the same
   transaction, so a set-null rewrite whose patched row is absorbed by
   an existing tuple settles without any re-minimize; [touched] names
   every relation the transaction wrote so the session layer journals
   them in one atomic record. [message] words the statement's own net
   delta. *)
let write cat rel ~added ~removed message =
  let cat, (net_a, net_r) =
    Storage.Catalog.apply_delta cat rel ~added ~removed
  in
  let moved (d : Constr.delta) =
    not (Tuple.Set.is_empty d.d_added && Tuple.Set.is_empty d.d_removed)
  in
  let seed = { Constr.d_rel = rel; d_added = net_a; d_removed = net_r } in
  (* One branch when nothing is declared. *)
  let cat, fired =
    if (not (moved seed)) || Storage.Catalog.constraints cat = [] then
      (cat, [])
    else Storage.Catalog.enforce cat [ seed ]
  in
  let extras = List.map fst fired in
  {
    catalog = cat;
    message = message (net_a, net_r) ^ cascade_note extras;
    result = None;
    bands = None;
    touched =
      List.sort_uniq String.compare
        (rel :: List.map (fun d -> d.Constr.d_rel) extras);
    deltas = List.filter moved (seed :: List.map snd fired);
  }

let auto_name rel spec =
  match spec with
  | Quel.Ast.C_unique attrs -> String.concat "_" (("uq" :: rel :: attrs))
  | Quel.Ast.C_not_null attr -> String.concat "_" [ "nn"; rel; attr ]
  | Quel.Ast.C_foreign_key { target; _ } ->
      String.concat "_" [ "fk"; rel; target ]

let checked_attrs schema rel attrs =
  if attrs = [] then errorf "a constraint needs at least one attribute";
  List.map
    (fun a ->
      let attr = Attr.make a in
      if not (Schema.mem schema attr) then
        errorf "relation %s has no attribute %s" rel a;
      attr)
    attrs

let def_of_spec cat name rel spec =
  let schema, _ = relation_of cat rel in
  match spec with
  | Quel.Ast.C_unique attrs ->
      Constr.Unique { name; rel; attrs = checked_attrs schema rel attrs }
  | Quel.Ast.C_not_null attr ->
      Constr.Not_null
        { name; rel; attr = List.hd (checked_attrs schema rel [ attr ]) }
  | Quel.Ast.C_foreign_key { attrs; target; target_attrs; on_delete } ->
      let tschema, _ = relation_of cat target in
      let locals = checked_attrs schema rel attrs in
      let remotes = checked_attrs tschema target target_attrs in
      if List.length locals <> List.length remotes then
        errorf "foreign key lists %d local but %d target attributes"
          (List.length locals) (List.length remotes);
      let on_delete =
        match on_delete with
        | Quel.Ast.Restrict -> Constr.Restrict
        | Quel.Ast.Cascade -> Constr.Cascade
        | Quel.Ast.Set_null -> Constr.Set_null
      in
      Constr.Foreign_key
        { name; rel; target; pairs = List.combine locals remotes; on_delete }

(* The [sys_] namespace belongs to the virtual system catalog
   (lib/sysview): those relations are computed views of engine state,
   never stored, so no write statement may target them. The check is on
   the name prefix — dml sits below sysview in the library graph. *)
let reject_sys_target statement =
  match statement with
  | Quel.Ast.Retrieve _ -> ()
  | Quel.Ast.Append { rel; _ }
  | Quel.Ast.Delete { rel; _ }
  | Quel.Ast.Replace { rel; _ }
  | Quel.Ast.Constrain { rel; _ } ->
      if
        String.length rel >= 4
        && String.equal (String.sub rel 0 4) "sys_"
      then
        errorf "%s is a read-only system relation (the sys_ namespace \
                is virtual)" rel
  | Quel.Ast.Unconstrain _ -> ()

let exec ?semantics cat statement =
  reject_sys_target statement;
  match (compile_write cat statement, statement) with
  | Some (rel, _, Insert tuple), _ ->
      write cat rel ~added:[ tuple ] ~removed:[] (fun (net_a, net_r) ->
          if Tuple.Set.is_empty net_a && Tuple.Set.is_empty net_r then
            "appended tuple added no information"
          else if Tuple.Set.is_empty net_r then "1 tuple appended"
          else "1 tuple appended (absorbed less informative rows)")
  | Some (rel, _, Remove p), _ ->
      let matched = Storage.Catalog.qualifying cat rel p in
      write cat rel ~added:[] ~removed:matched (fun _ ->
          plural (List.length matched) "tuple" ^ " deleted")
  | Some (rel, _, Patch (p, image)), _ ->
      let matched = Storage.Catalog.qualifying cat rel p in
      write cat rel ~added:(List.map image matched) ~removed:matched (fun _ ->
          plural (List.length matched) "tuple" ^ " replaced")
  | None, Quel.Ast.Retrieve q -> (
      let db = Storage.Catalog.to_db cat in
      let sem =
        match semantics with Some sem -> sem | None -> Semantics.current ()
      in
      match sem.Semantics.dialect with
      | Semantics.Ni_lower ->
          (* The planner-compatible path: updates and the durable journal
             only ever see this dialect's answers. *)
          let result = Quel.Eval.run db q in
          { catalog = cat; message = ""; result = Some result; bands = None;
            touched = []; deltas = [] }
      | Semantics.Codd_maybe | Semantics.Sql_3vl | Semantics.Certain ->
          let b = Quel.Eval.query (Quel.Eval.ctx ~semantics:sem ()) db q in
          { catalog = cat;
            message = "";
            result =
              Some { Quel.Eval.attrs = b.Quel.Eval.attrs;
                     rel = Xrel.of_relation b.Quel.Eval.sure };
            bands = Some b;
            touched = []; deltas = [] })
  | None, Quel.Ast.Constrain { cname; rel; spec } ->
      let name = match cname with Some n -> n | None -> auto_name rel spec in
      if Option.is_some (Storage.Catalog.constraint_def cat name) then
        errorf "a constraint named %s already exists (unconstrain it first)"
          name;
      let def = def_of_spec cat name rel spec in
      {
        catalog = Storage.Catalog.add_constraint cat def;
        message =
          Printf.sprintf "constraint %s declared (existing data verified)"
            name;
        result = None;
        bands = None;
        touched = [];
        deltas = [];
      }
  | None, Quel.Ast.Unconstrain { cname } ->
      if Option.is_none (Storage.Catalog.constraint_def cat cname) then
        errorf "unknown constraint %s" cname;
      {
        catalog = Storage.Catalog.drop_constraint cat cname;
        message = Printf.sprintf "constraint %s dropped" cname;
        result = None;
        bands = None;
        touched = [];
        deltas = [];
      }
  | None, (Quel.Ast.Append _ | Quel.Ast.Delete _ | Quel.Ast.Replace _) ->
      assert false (* every write compiles *)

let exec_string ?semantics cat src =
  exec ?semantics cat (Quel.Parser.parse_statement src)

let is_read = function
  | Quel.Ast.Retrieve _ -> true
  | Quel.Ast.Append _ | Quel.Ast.Delete _ | Quel.Ast.Replace _
  | Quel.Ast.Constrain _ | Quel.Ast.Unconstrain _ ->
      false

(* The journal record of a session transaction's composed net deltas,
   with no O(n) re-diff of the catalogs, so the journaling cost is
   bounded by the delta too. *)
let ops_of_deltas deltas =
  List.filter_map
    (fun (d : Constr.delta) ->
      let wrap set = Xrel.unsafe_of_minimal (Relation.of_tuples set) in
      let c =
        {
          Storage.Wal.rel = d.Constr.d_rel;
          added = wrap d.Constr.d_added;
          removed = wrap d.Constr.d_removed;
        }
      in
      if Storage.Wal.change_is_noop c then None
      else Some (Storage.Wal.Change c))
    deltas

(* The constraint DDL that turns [cat0]'s declarations into [cat1]'s:
   the drops, then the additions, each in declaration order. *)
let constraint_ops cat0 cat1 =
  let defs0 = Storage.Catalog.constraints cat0
  and defs1 = Storage.Catalog.constraints cat1 in
  let line d = Constr.def_to_line d in
  let dropped =
    List.filter_map
      (fun d0 ->
        let name = Constr.name d0 in
        if List.exists (fun d1 -> String.equal (Constr.name d1) name) defs1
        then None
        else Some (Storage.Wal.Drop_constraint name))
      defs0
  in
  let added =
    List.filter_map
      (fun d1 ->
        if List.exists (fun d0 -> String.equal (line d0) (line d1)) defs0 then
          None
        else Some (Storage.Wal.Add_constraint d1))
      defs1
  in
  dropped @ added
