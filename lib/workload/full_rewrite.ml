open Nullrel

let plural n verb =
  Printf.sprintf "%d tuple%s %s" n (if n = 1 then "" else "s") verb

let exec cat statement =
  match Dml.compile_write cat statement with
  | None ->
      let o = Dml.exec cat statement in
      (o.Dml.catalog, o.Dml.message)
  | Some (rel, x, w) ->
      let updated, message =
        match w with
        | Dml.Insert t ->
            let updated = Storage.Update.insert x [ t ] in
            ( updated,
              (* An admitted tuple with no absorption grows the relation
                 by exactly one; any other growth means subsumed rows
                 were evicted. *)
              if Xrel.equal updated x then "appended tuple added no information"
              else if Xrel.cardinal updated = Xrel.cardinal x + 1 then
                "1 tuple appended"
              else "1 tuple appended (absorbed less informative rows)" )
        | Dml.Remove p ->
            let updated = Storage.Update.delete_where p x in
            ( updated,
              plural (Xrel.cardinal x - Xrel.cardinal updated) "deleted" )
        | Dml.Patch (p, image) ->
            ( Storage.Update.modify ~where:p ~using:image x,
              plural (Xrel.cardinal (Algebra.select p x)) "replaced" )
      in
      (Storage.Catalog.set_relation cat rel updated, message)
