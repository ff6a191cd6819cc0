(** The full-rewrite reference for DML: Section 7's updates computed
    algebraically over the whole relation — lattice union, difference,
    or a deletion followed by an addition ({!Storage.Update}), then
    stored by {!Storage.Catalog.set_relation}, which keeps Section 4's
    unique minimal representation and re-checks the schema.

    {!Dml.exec} reaches the same catalog with bounded index probes;
    [props_incremental] and bench E26 check it against this reference
    statement by statement. Statements compile through
    {!Dml.compile_write}, so both sides qualify and assign tuples
    alike. Declared constraints ({!Constr}) are not enforced here. *)

val exec : Storage.Catalog.t -> Quel.Ast.statement -> Storage.Catalog.t * string
(** The catalog after the statement and the message {!Dml.exec} words
    for it. A [retrieve] or constraint DDL runs through {!Dml.exec}
    itself: it has one path only. Raises {!Storage.Catalog.Violation}
    when the rewritten relation breaks its schema, and like {!Dml.exec}
    on a statement that does not compile. *)
