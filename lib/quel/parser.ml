open Nullrel

exception Error of string

type state = { mutable toks : Lexer.token list }

let peek st = match st.toks with [] -> Lexer.Eof | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let fail_at st what =
  raise
    (Error
       (Format.asprintf "expected %s but found %a" what Lexer.pp_token
          (peek st)))

let expect st tok what =
  if peek st = tok then advance st else fail_at st what

let ident st =
  match peek st with
  | Lexer.Ident s ->
      advance st;
      s
  | _ -> fail_at st "an identifier"

let range_clause st =
  expect st Lexer.Kw_range "'range'";
  expect st Lexer.Kw_of "'of'";
  let v = ident st in
  expect st Lexer.Kw_is "'is'";
  let rel = ident st in
  (v, rel)

let target st =
  let v = ident st in
  expect st Lexer.Dot "'.'";
  let a = ident st in
  (v, a)

let term st =
  match peek st with
  | Lexer.Ident _ ->
      let v, a = target st in
      Ast.Attr (v, a)
  | Lexer.Int i ->
      advance st;
      Ast.Const (Value.int i)
  | Lexer.Float f ->
      advance st;
      Ast.Const (Value.Float f)
  | Lexer.String s ->
      advance st;
      Ast.Const (Value.Str s)
  | _ -> fail_at st "a term"

let rec or_expr st =
  let left = and_expr st in
  if peek st = Lexer.Kw_or then (
    advance st;
    Ast.Or (left, or_expr st))
  else left

and and_expr st =
  let left = not_expr st in
  if peek st = Lexer.Kw_and then (
    advance st;
    Ast.And (left, and_expr st))
  else left

and not_expr st =
  if peek st = Lexer.Kw_not then (
    advance st;
    Ast.Not (not_expr st))
  else atom st

and atom st =
  match peek st with
  | Lexer.Lparen ->
      advance st;
      let c = or_expr st in
      expect st Lexer.Rparen "')'";
      c
  | _ -> (
      let t1 = term st in
      match peek st with
      | Lexer.Cmp cmp ->
          advance st;
          let t2 = term st in
          Ast.Cmp (t1, cmp, t2)
      | _ -> fail_at st "a comparison operator")

let range_clauses st =
  let rec ranges acc =
    if peek st = Lexer.Kw_range then ranges (range_clause st :: acc)
    else List.rev acc
  in
  ranges []

let literal st =
  match peek st with
  | Lexer.Int i ->
      advance st;
      Value.int i
  | Lexer.Float f ->
      advance st;
      Value.Float f
  | Lexer.String s ->
      advance st;
      Value.Str s
  | _ -> fail_at st "a literal"

let assignments st =
  expect st Lexer.Lparen "'('";
  let rec go acc =
    let a = ident st in
    (match peek st with
    | Lexer.Cmp Predicate.Eq -> advance st
    | _ -> fail_at st "'='");
    let v = literal st in
    if peek st = Lexer.Comma then (
      advance st;
      go ((a, v) :: acc))
    else List.rev ((a, v) :: acc)
  in
  let values = go [] in
  expect st Lexer.Rparen "')'";
  values

let where_opt st =
  if peek st = Lexer.Kw_where then (
    advance st;
    Some (or_expr st))
  else None

let query st =
  let ranges = range_clauses st in
  if ranges = [] then raise (Error "a query needs at least one range clause");
  expect st Lexer.Kw_retrieve "'retrieve'";
  expect st Lexer.Lparen "'('";
  let rec targets acc =
    let t = target st in
    if peek st = Lexer.Comma then (
      advance st;
      targets (t :: acc))
    else List.rev (t :: acc)
  in
  let targets = targets [] in
  expect st Lexer.Rparen "')'";
  let where = where_opt st in
  expect st Lexer.Eof "end of input";
  { Ast.ranges; targets; where }

(* Shared continuation for delete/replace: the target variable must be
   bound by exactly one range clause. *)
let single_range what ranges var =
  match ranges with
  | [ (v, rel) ] when String.equal v var -> rel
  | [ (v, _) ] ->
      raise
        (Error
           (Printf.sprintf "%s targets %s but the range binds %s" what var v))
  | _ ->
      raise
        (Error (what ^ " takes exactly one range clause binding its target"))

(* [constrain]'s sub-syntax uses soft keywords — [unique], [notnull],
   [fk], [on], [restrict], [cascade], [setnull], [as] are ordinary
   identifiers everywhere else, so relations and attributes may still
   carry those names. *)
let attr_list st =
  expect st Lexer.Lparen "'('";
  let rec go acc =
    let a = ident st in
    if peek st = Lexer.Comma then (
      advance st;
      go (a :: acc))
    else List.rev (a :: acc)
  in
  let attrs = go [] in
  expect st Lexer.Rparen "')'";
  attrs

let soft_keyword st what =
  match peek st with
  | Lexer.Ident s ->
      advance st;
      String.lowercase_ascii s
  | _ -> fail_at st what

let constraint_name st =
  match peek st with
  | Lexer.Ident s when String.lowercase_ascii s = "as" ->
      advance st;
      Some (ident st)
  | _ -> None

let constrain_statement st =
  let kind = soft_keyword st "'unique', 'notnull' or 'fk'" in
  let rel = ident st in
  let spec =
    match kind with
    | "unique" -> Ast.C_unique (attr_list st)
    | "notnull" -> (
        match attr_list st with
        | [ a ] -> Ast.C_not_null a
        | _ -> raise (Error "notnull takes exactly one attribute"))
    | "fk" ->
        let attrs = attr_list st in
        expect st Lexer.Kw_to "'to'";
        let target = ident st in
        let target_attrs = attr_list st in
        (match soft_keyword st "'on'" with
        | "on" -> ()
        | _ -> raise (Error "expected 'on delete' after the target"));
        expect st Lexer.Kw_delete "'delete'";
        let on_delete =
          match soft_keyword st "'restrict', 'cascade' or 'setnull'" with
          | "restrict" -> Ast.Restrict
          | "cascade" -> Ast.Cascade
          | "setnull" -> Ast.Set_null
          | other ->
              raise
                (Error
                   (Printf.sprintf
                      "unknown referential action %s (expected restrict, \
                       cascade or setnull)"
                      other))
        in
        Ast.C_foreign_key { attrs; target; target_attrs; on_delete }
    | other ->
        raise
          (Error
             (Printf.sprintf
                "unknown constraint kind %s (expected unique, notnull or fk)"
                other))
  in
  let cname = constraint_name st in
  expect st Lexer.Eof "end of input";
  Ast.Constrain { cname; rel; spec }

let statement st =
  match peek st with
  | Lexer.Kw_constrain ->
      advance st;
      constrain_statement st
  | Lexer.Kw_unconstrain ->
      advance st;
      let cname = ident st in
      expect st Lexer.Eof "end of input";
      Ast.Unconstrain { cname }
  | Lexer.Kw_append ->
      advance st;
      expect st Lexer.Kw_to "'to'";
      let rel = ident st in
      let values = assignments st in
      expect st Lexer.Eof "end of input";
      Ast.Append { rel; values }
  | _ -> (
      let ranges = range_clauses st in
      match peek st with
      | Lexer.Kw_retrieve ->
          if ranges = [] then
            raise (Error "a query needs at least one range clause");
          advance st;
          expect st Lexer.Lparen "'('";
          let rec targets acc =
            let t = target st in
            if peek st = Lexer.Comma then (
              advance st;
              targets (t :: acc))
            else List.rev (t :: acc)
          in
          let targets = targets [] in
          expect st Lexer.Rparen "')'";
          let where = where_opt st in
          expect st Lexer.Eof "end of input";
          Ast.Retrieve { Ast.ranges; targets; where }
      | Lexer.Kw_delete ->
          advance st;
          let var = ident st in
          let rel = single_range "delete" ranges var in
          let where = where_opt st in
          expect st Lexer.Eof "end of input";
          Ast.Delete { var; rel; where }
      | Lexer.Kw_replace ->
          advance st;
          let var = ident st in
          let rel = single_range "replace" ranges var in
          let values = assignments st in
          let where = where_opt st in
          expect st Lexer.Eof "end of input";
          Ast.Replace { var; rel; values; where }
      | _ -> fail_at st "'retrieve', 'delete' or 'replace'")

let parse src = query { toks = Lexer.tokenize src }

let parse_statement src = statement { toks = Lexer.tokenize src }

let parse_cond src =
  let st = { toks = Lexer.tokenize src } in
  let c = or_expr st in
  expect st Lexer.Eof "end of input";
  c
