(** Relational views over mini-QUEL (virtual derived relations).

    The paper grew out of work on relational views over richer schemas
    (references \[26, 27\]), and null values are what make
    information-preserving views possible (the union-join discussion of
    Section 5). This module provides classical view support on top of
    the query language: a view is a named query; queries mentioning a
    view are {e unfolded} — the view's ranges, qualification and target
    mapping are inlined with freshened variable names — so evaluation
    needs no materialization. A materializing path is provided too, and
    the two provably agree (property-tested). *)

open Nullrel

type env = (string * Quel.Ast.query) list
(** Named view definitions. *)

exception Cycle of string
(** A view (transitively) ranges over itself. *)

exception Error of string
(** A reference to a target the view does not retrieve, or a duplicate
    definition problem. *)

val expand : views:env -> Quel.Ast.query -> Quel.Ast.query
(** Unfolds every range clause that names a view, recursively. View
    variables are freshened as [v$w] (user variables cannot contain
    [$]); references [v.A] to a view variable are rewritten to the
    underlying [w.B] the view's target list retrieves as [A]. Raises
    {!Cycle} / {!Error}. Queries not mentioning views are returned
    unchanged. *)

val view_schema : Quel.Resolve.db -> views:env -> string -> Schema.t
(** The schema a view exposes: its output columns, with each column's
    domain taken from the underlying base attribute. *)

val materialize :
  Storage.Catalog.t -> views:env -> string -> Schema.t * Xrel.t
(** Evaluates the (expanded) view body against the catalog's relations
    through {!Compile.run_catalog} under [Ni_lower]: the catalog's row
    counts, fresh statistics and declared indexes plan it. *)

val db_with_views : Storage.Catalog.t -> views:env -> Quel.Resolve.db
(** The catalog's relations plus every view materialized — the
    heavyweight alternative to {!expand}; used in tests to validate
    unfolding. *)
