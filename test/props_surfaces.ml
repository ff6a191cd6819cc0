(* One retrieve, every surface: on generated queries over null-heavy
   data with a hash index on every column, the shell, a session and a
   view answer as the calculus evaluator does — the shell and the view
   through a plan — and under codd the shell's two bands are the
   session's. One engine serves every case: each case stages its data
   in a transaction it rolls back. *)

open Nullrel

let spec =
  { Workload.Gen.arity = 3; rows = 6; domain_size = 3; null_density = 0.5 }

let indexed db =
  List.fold_left
    (fun cat (name, (schema, x)) ->
      List.fold_left
        (fun cat a ->
          Storage.Catalog.create_index cat name ~kind:"hash"
            (Attr.Set.singleton a))
        (Storage.Catalog.add cat schema x)
        (Schema.attrs schema))
    Storage.Catalog.empty db

let text q = Format.asprintf "%a" Quel.Ast.pp q

(* The shell's rendering of a dialect's bands. *)
let rendered (sem : Semantics.t) (b : Quel.Eval.bands) =
  let table ?title = Pp.to_string (Pp.table_rel ?title b.attrs) in
  match b.maybe with
  | None -> table b.sure
  | Some band ->
      table b.sure ^ "\n" ^ table ~title:(sem.maybe_label ^ " band") band

(* A session of [eng] under [sem], with the case's relations staged in
   place of the engine's empty ones; [f] reads through it before the
   transaction rolls back. *)
let staged eng sem db f =
  let sess = Session.attach ~semantics:sem eng in
  Session.begin_ sess;
  Fun.protect
    ~finally:(fun () -> Session.rollback sess)
    (fun () ->
      List.iter
        (fun (name, (_, x)) ->
          ignore
            (Session.exec_string sess
               (Printf.sprintf "range of v is %s delete v" name));
          List.iter
            (fun t ->
              let values =
                List.map
                  (fun (a, v) ->
                    Printf.sprintf "%s = %s" (Attr.name a) (Value.to_string v))
                  (Tuple.to_list t)
              in
              ignore
                (Session.exec_string sess
                   (Printf.sprintf "append to %s (%s)" name
                      (String.concat ", " values))))
            (Xrel.to_list x))
        db;
      let staged_cat = (Session.snapshot sess).Session.catalog in
      List.iter
        (fun (name, (_, x)) ->
          if not (Xrel.equal x (Storage.Catalog.relation staged_cat name)) then
            failwith ("the session did not stage " ^ name))
        db;
      f sess)

let agree eng shell_dir seed =
  let g = Workload.Prng.create seed in
  let db = Workload.Gen.db g spec 2 in
  let q = Workload.Diff.gen_query g db in
  let cat = indexed db in
  let ni = Semantics.of_dialect Semantics.Ni_lower
  and codd = Semantics.of_dialect Semantics.Codd_maybe in
  let want = Quel.Eval.run db q in
  let want_text = Pp.to_string (Pp.table want.attrs) want.rel in
  Storage.Persist.save ~dir:shell_dir cat;
  let shell sem =
    let st, _ = Shell.exec Shell.initial (".open " ^ shell_dir) in
    let st, _ = Shell.exec st (".semantics " ^ sem.Semantics.name) in
    snd (Shell.exec st (text q))
  in
  let shell_ni, shell_evaluated = Helpers.evaluator_ran (fun () -> shell ni) in
  let session_ni =
    staged eng ni db (fun sess ->
        Option.get (Session.exec sess (Quel.Ast.Retrieve q)).Dml.result)
  in
  let view_ok =
    match
      Helpers.evaluator_ran (fun () ->
          Plan.View.materialize cat ~views:[ ("Q", q) ] "Q")
    with
    | (_, x), evaluated -> (not evaluated) && Xrel.equal want.rel x
    | exception Plan.View.Error _ ->
        (* A view's columns need bare names: targets sharing one are
           qualified and the view is refused. *)
        List.exists (fun a -> String.contains (Attr.name a) '.') want.attrs
  in
  let session_codd =
    staged eng codd db (fun sess ->
        Option.get (Session.exec sess (Quel.Ast.Retrieve q)).Dml.bands)
  in
  String.equal want_text shell_ni
  && (not shell_evaluated)
  && Xrel.equal want.rel session_ni.Quel.Eval.rel
  && view_ok
  && String.equal (rendered codd session_codd) (shell codd)

let surfaces_agree =
  let engine = ref None and shell_dir = ref "" in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"shell = session = view = evaluator, codd bands included"
         QCheck.(make ~print:string_of_int Gen.nat)
         (fun seed -> agree (Option.get !engine) !shell_dir seed))
  in
  ( name,
    speed,
    fun () ->
      let root = Props_session.temp_dir "nullrel_surfaces" in
      Sys.mkdir root 0o755;
      Fun.protect
        ~finally:(fun () -> Props_session.rm_rf root)
        (fun () ->
          let seed_dir = Filename.concat root "engine" in
          let empty =
            List.map
              (fun name ->
                (name, (Workload.Gen.schema spec name, Xrel.of_list [])))
              [ "R1"; "R2" ]
          in
          Storage.Persist.save ~dir:seed_dir (indexed empty);
          shell_dir := Filename.concat root "shell";
          let eng, _ = Session.open_engine ~dir:seed_dir () in
          engine := Some eng;
          Fun.protect
            ~finally:(fun () ->
              engine := None;
              Session.shutdown eng)
            run) )

let suite = [ surfaces_agree ]
