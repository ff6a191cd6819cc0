(** Query evaluation (Section 5 and the Appendix), parameterized by a
    semantics dialect.

    The evaluator considers all tuple combinations of the range relations
    (the Cartesian product), evaluates the where clause on each combined
    tuple, and places it in an output band according to the active
    {!Nullrel.Semantics} dialect's admission rule. One core entry point,
    {!query}, serves every dialect; the historical entry points
    ({!run}, {!run_maybe}) remain as shims over it.

    - {!run} / [query] under [Ni_lower]: the paper's strategy —
      three-valued evaluation under the [ni] interpretation, keeping only
      TRUE rows, minimized. This computes the correct lower bound
      [||Q||-] with no tautology machinery.
    - [query] under [Codd_maybe] / [Sql_3vl] / [Certain]: Codd's
      TRUE+MAYBE pair, SQL's 3VL with its UNKNOWN band, and certain
      answers by naive evaluation.
    - {!run_unknown}: the "unknown" interpretation — a combined tuple
      whose qualification evaluates to [ni] is additionally included if
      it {e defines a tautology} (TRUE under every legal substitution of
      its nulls). This is the expensive discipline the Appendix
      dissects; it is not a dialect but a bound, like {!run_upper}. *)

open Nullrel

type result = {
  attrs : Attr.t list;  (** Output columns, in target-list order. *)
  rel : Xrel.t;
}

type bands = {
  attrs : Attr.t list;  (** Output columns, in target-list order. *)
  sure : Relation.t;
      (** The dialect's answer band. Under [Ni_lower] this is the
          minimal representation of [||Q||-]; under the plain-set
          dialects it is the unminimized row set. *)
  maybe : Relation.t option;
      (** The second band of a reporting dialect: Codd's MAYBE rows,
          or SQL's UNKNOWN (MAYBE minus the already-certain answers).
          [None] when the dialect reports a single band. *)
}

type tautology_strategy =
  | Brute_force  (** Enumerate every legal substitution ({!Codd.Tautology.brute_force}). *)
  | Symbolic_first
      (** Try {!Codd.Tautology.breakpoints}; fall back to brute force
          when the symbolic fragment does not apply. *)

type ctx = {
  semantics : Semantics.t;  (** The dialect answering the query. *)
}
(** The evaluation context of {!query}. *)

val ctx : ?semantics:Semantics.t -> unit -> ctx
(** Context builder. [semantics] defaults to the ambient dialect
    ({!Semantics.current}). {!query} runs under the ambient governor. *)

val query : ctx -> Resolve.db -> Ast.query -> bands
(** The dialect-parameterized core: evaluate the qualification on every
    combined tuple through the context's semantics, admit each into its
    band, project, and apply the dialect's set discipline. Each combined
    tuple is projected as it is enumerated, so the query holds only the
    projected bands, never the product. Raises {!Resolve.Error} on name
    errors. *)

val target_attr : (Ast.var * string) list -> Ast.var * string -> Attr.t
(** Output column name for a target: the bare attribute name when
    unambiguous in the target list, otherwise [v.A]. *)

val predicate_of_cond : Ast.cond -> Predicate.t
(** Compiles a qualification over combined-tuple attributes ([v.A]).
    Constant-to-constant comparisons fold to a truth value; comparisons
    with the constant on the left are flipped. *)

val combined_tuples : Resolve.db -> Ast.query -> Tuple.t list
(** The Cartesian product of the range relations as combined tuples with
    prefixed attributes, one tick charged per join. Exposed for the
    benchmarks; {!query} enumerates the same rows, with the same ticks,
    without building this list. *)

val domains_for : Resolve.db -> Ast.query -> Attr.t -> Domain.t
(** Domain oracle for the prefixed attributes ([v.A] resolves through
    [v]'s schema). Used by the substitution-based evaluators and the
    aggregate bounds. Raises [Invalid_argument] on unknown names. *)

val run : Resolve.db -> Ast.query -> result
(** Lower-bound evaluation under the [ni] interpretation — the
    [Ni_lower] dialect of {!query}, kept as a shim for existing
    callers. Raises {!Resolve.Error} on name errors. *)

val run_string : Resolve.db -> string -> result
(** [run] composed with {!Parser.parse}. *)

val run_maybe : Resolve.db -> Ast.query -> result
(** Codd's MAYBE version of the query — the [Codd_maybe] dialect's
    second band, minimized into an x-relation for compatibility (the
    plain-set band is {!query}'s [maybe]). Disjoint from {!run} before
    projection. The paper's practical complaint — low selectivity at
    full scan cost — is visible directly: with any null-bearing range
    this returns large, weakly informative results. Note this is {e
    not} the upper bound [||Q||+] of Section 5, whose correct
    computation the paper defers (footnote 6); it is the operator
    Codd's systems actually offered. *)

val run_upper :
  ?legal:(Tuple.t -> bool) ->
  Resolve.db ->
  Ast.query ->
  result
(** The upper bound [||Q||+] of Section 5: "the set of objects which may
    possibly satisfy Q (on the basis of the available information, they
    cannot be ruled out)". A combined tuple qualifies when its
    qualification is TRUE, or is [ni] and {e some} legal substitution of
    its nulls makes it TRUE (symbolic single-null decision first,
    brute-force enumeration otherwise — finite domains required on the
    enumerated attributes). The paper notes this bound is "of less
    practical interest and also the source of some difficult problems"
    (footnote 6) — here it is exact for finite domains, and the E8
    benchmark shows what it costs. [run q <= run_upper q] always holds. *)

val run_unknown :
  ?strategy:tautology_strategy ->
  ?legal:(Tuple.t -> bool) ->
  Resolve.db ->
  Ast.query ->
  result
(** Evaluation under the "unknown" interpretation (default strategy
    {!Symbolic_first}). [legal] expresses the schema's integrity
    constraints on fully substituted combined tuples — substitutions
    violating it are not considered (Appendix, query QB); supplying it
    forces the brute-force path, since the symbolic checker cannot see
    constraints. Requires finite domains for the null attributes the
    qualification touches when brute force is engaged. *)
