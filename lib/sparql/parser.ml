(** Recursive-descent parser for the SPARQL subset of {!Ast}.

    Supports PREFIX declarations, SELECT [DISTINCT|REDUCED] with
    variable lists, [*] or aggregate items ([(COUNT(?x) AS ?n)] etc.
    with GROUP BY), group graph patterns with [.]-separated triples,
    predicate-object lists ([;]) and object lists ([,]), [a] for
    rdf:type, property paths (alternative [|], sequence [/], inverse
    [^] — rewritten into 1.0 patterns at parse time), UNION, OPTIONAL,
    FILTER, nested groups, ORDER BY, LIMIT and OFFSET. *)

open Ast
open Lexer

exception Parse_error of string * int

type state = {
  mutable toks : (token * int) list;
  prefixes : (string, string) Hashtbl.t;
  len : int;  (** source length: the offset of the end of input *)
}

let peek st = match st.toks with (t, _) :: _ -> t | [] -> EOF
let peek_pos st = match st.toks with (_, pos) :: _ -> pos | [] -> st.len

let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let fail st msg =
  raise
    (Parse_error
       (Printf.sprintf "%s (at %s)" msg (token_to_string (peek st)), peek_pos st))

let expect st t =
  if peek st = t then advance st
  else fail st (Printf.sprintf "expected %s" (token_to_string t))

let expect_kw st kw =
  match peek st with
  | KW k when k = kw -> advance st
  | _ -> fail st ("expected " ^ kw)

let accept_kw st kw =
  match peek st with
  | KW k when k = kw ->
    advance st;
    true
  | _ -> false

(* Runs while the PNAME is still the current token, so an undeclared
   prefix is reported at it. *)
let resolve_pname st prefix local =
  match Hashtbl.find_opt st.prefixes prefix with
  | Some base -> base ^ local
  | None -> raise (Parse_error ("undeclared prefix: " ^ prefix ^ ":", peek_pos st))

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let parse_literal_tail st lex =
  match peek st with
  | LANGTAG l ->
    advance st;
    Rdf.Term.lang_lit lex l
  | DTMARK ->
    advance st;
    (match peek st with
     | IRIREF dt ->
       advance st;
       Rdf.Term.typed_lit lex dt
     | PNAME (p, l) ->
       let dt = resolve_pname st p l in
       advance st;
       Rdf.Term.typed_lit lex dt
     | _ -> fail st "expected datatype IRI")
  | _ -> Rdf.Term.lit lex

(** A term or variable in a triple-pattern position. *)
let parse_term_pat st : term_pat =
  match peek st with
  | VAR v ->
    advance st;
    Var v
  | IRIREF s ->
    advance st;
    Term (Rdf.Term.iri s)
  | PNAME (p, l) ->
    let iri = resolve_pname st p l in
    advance st;
    Term (Rdf.Term.iri iri)
  | BNODE b ->
    advance st;
    Term (Rdf.Term.bnode b)
  | STRINGLIT lex ->
    advance st;
    Term (parse_literal_tail st lex)
  | INTLIT i ->
    advance st;
    Term (Rdf.Term.int_lit i)
  | DECLIT f ->
    advance st;
    Term (Rdf.Term.typed_lit (Printf.sprintf "%g" f) Rdf.Term.xsd_decimal)
  | KW "TRUE" ->
    advance st;
    Term (Rdf.Term.typed_lit "true" "http://www.w3.org/2001/XMLSchema#boolean")
  | KW "FALSE" ->
    advance st;
    Term (Rdf.Term.typed_lit "false" "http://www.w3.org/2001/XMLSchema#boolean")
  | _ -> fail st "expected term or variable"

(* ------------------------------------------------------------------ *)
(* Property paths: the SPARQL 1.1 subset that rewrites into 1.0 —
   alternatives "p|q", sequences "p/q" and inverses "^p". They are
   eliminated at parse time: alternatives become UNIONs, sequences
   introduce fresh intermediate variables, inverses swap subject and
   object — so every store evaluates them unchanged. Transitive
   closures ("+" and "*" suffixes) are not expressible in the 1.0
   algebra and are rejected with a clear error. *)

type path =
  | P_pred of term_pat
  | P_inv of path
  | P_seq of path * path
  | P_alt of path * path

let fresh_path_var =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "__path%d" !counter

let rec parse_path st : path =
  let lhs = ref (parse_path_seq st) in
  let rec loop () =
    match peek st with
    | Lexer.PIPE ->
      advance st;
      lhs := P_alt (!lhs, parse_path_seq st);
      loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_path_seq st =
  let lhs = ref (parse_path_elt st) in
  let rec loop () =
    match peek st with
    | Lexer.SLASH ->
      advance st;
      lhs := P_seq (!lhs, parse_path_elt st);
      loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_path_elt st =
  match peek st with
  | Lexer.BANG -> fail st "negated property sets are not supported"
  | Lexer.CARET ->
    advance st;
    P_inv (parse_path_elt st)
  | Lexer.LPAREN ->
    advance st;
    let p = parse_path st in
    expect st RPAREN;
    check_no_closure st;
    p
  | Lexer.KW "A" ->
    advance st;
    check_no_closure st;
    P_pred (Term Rdf.Term.rdf_type)
  | _ ->
    let t = parse_term_pat st in
    check_no_closure st;
    P_pred t

and check_no_closure st =
  match peek st with
  | Lexer.PLUS | Lexer.STAR ->
    fail st "transitive property paths (+, *) are not supported"
  | _ -> ()

(** Rewrite a subject–path–object statement into plain patterns. *)
let rec path_to_patterns s path o : Ast.pattern =
  match path with
  | P_pred p -> Bgp [ { tp_s = s; tp_p = p; tp_o = o } ]
  | P_inv p -> path_to_patterns o p s
  | P_seq (a, b) ->
    let mid = Var (fresh_path_var ()) in
    Group [ path_to_patterns s a mid; path_to_patterns mid b o ]
  | P_alt (a, b) -> Union [ path_to_patterns s a o; path_to_patterns s b o ]

(* ------------------------------------------------------------------ *)
(* Filter expressions                                                  *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_or_expr st

and parse_or_expr st =
  let lhs = ref (parse_and_expr st) in
  while peek st = OROR do
    advance st;
    lhs := E_or (!lhs, parse_and_expr st)
  done;
  !lhs

and parse_and_expr st =
  let lhs = ref (parse_rel_expr st) in
  while peek st = ANDAND do
    advance st;
    lhs := E_and (!lhs, parse_rel_expr st)
  done;
  !lhs

and parse_rel_expr st =
  let lhs = parse_add_expr st in
  let cmp c =
    advance st;
    E_cmp (c, lhs, parse_add_expr st)
  in
  match peek st with
  | EQ -> cmp Ceq
  | NEQ -> cmp Cneq
  | LT -> cmp Clt
  | LEQ -> cmp Cleq
  | GT -> cmp Cgt
  | GEQ -> cmp Cgeq
  | _ -> lhs

and parse_add_expr st =
  let lhs = ref (parse_mul_expr st) in
  let rec loop () =
    match peek st with
    | PLUS ->
      advance st;
      lhs := E_arith (Aadd, !lhs, parse_mul_expr st);
      loop ()
    | MINUS ->
      advance st;
      lhs := E_arith (Asub, !lhs, parse_mul_expr st);
      loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_mul_expr st =
  let lhs = ref (parse_unary_expr st) in
  let rec loop () =
    match peek st with
    | STAR ->
      advance st;
      lhs := E_arith (Amul, !lhs, parse_unary_expr st);
      loop ()
    | SLASH ->
      advance st;
      lhs := E_arith (Adiv, !lhs, parse_unary_expr st);
      loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_unary_expr st =
  match peek st with
  | BANG ->
    advance st;
    E_not (parse_unary_expr st)
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN;
    e
  | KW "BOUND" ->
    advance st;
    expect st LPAREN;
    (match peek st with
     | VAR v ->
       advance st;
       expect st RPAREN;
       E_bound v
     | _ -> fail st "expected variable in BOUND()")
  | KW "REGEX" ->
    advance st;
    expect st LPAREN;
    let e = parse_expr st in
    expect st COMMA;
    (match peek st with
     | STRINGLIT pat ->
       advance st;
       (* optional flags argument is accepted and ignored *)
       (if peek st = COMMA then begin
          advance st;
          match peek st with
          | STRINGLIT _ -> advance st
          | _ -> fail st "expected flags string"
        end);
       expect st RPAREN;
       E_regex (e, pat)
     | _ -> fail st "expected pattern string in REGEX()")
  | VAR v ->
    advance st;
    E_var v
  | IRIREF s ->
    advance st;
    E_const (Rdf.Term.iri s)
  | PNAME (p, l) ->
    let iri = resolve_pname st p l in
    advance st;
    E_const (Rdf.Term.iri iri)
  | STRINGLIT lex ->
    advance st;
    E_const (parse_literal_tail st lex)
  | INTLIT i ->
    advance st;
    E_const (Rdf.Term.int_lit i)
  | DECLIT f ->
    advance st;
    E_const (Rdf.Term.typed_lit (Printf.sprintf "%g" f) Rdf.Term.xsd_decimal)
  | _ -> fail st "expected filter expression"

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

(* triples-same-subject: s path o {, o} {; path o {, o}}. Plain
   predicates stay triples; complex paths rewrite to patterns. *)
let rec parse_triples_block st acc =
  let s = parse_term_pat st in
  let rec verb_list acc =
    let p = parse_path st in
    let rec obj_list acc =
      let o = parse_term_pat st in
      let acc =
        match p with
        | P_pred tp_p -> `T { tp_s = s; tp_p; tp_o = o } :: acc
        | path -> `P (path_to_patterns s path o) :: acc
      in
      if peek st = COMMA then begin
        advance st;
        obj_list acc
      end
      else acc
    in
    let acc = obj_list acc in
    if peek st = SEMI then begin
      advance st;
      (* allow trailing ';' before '.' or '}' *)
      match peek st with
      | VAR _ | IRIREF _ | PNAME _ | KW "A" | CARET | LPAREN -> verb_list acc
      | _ -> acc
    end
    else acc
  in
  verb_list acc

and parse_group st : pattern =
  expect st LBRACE;
  let elements = ref [] in
  let triples = ref [] in
  let flush_triples () =
    if !triples <> [] then begin
      elements := Bgp (List.rev !triples) :: !elements;
      triples := []
    end
  in
  let rec loop () =
    match peek st with
    | RBRACE ->
      advance st;
      flush_triples ()
    | DOT ->
      advance st;
      loop ()
    | KW "OPTIONAL" ->
      advance st;
      flush_triples ();
      let p = parse_group_or_union st in
      elements := Optional p :: !elements;
      loop ()
    | KW "FILTER" ->
      advance st;
      flush_triples ();
      let e =
        match peek st with
        | LPAREN ->
          advance st;
          let e = parse_expr st in
          expect st RPAREN;
          e
        | KW ("BOUND" | "REGEX") -> parse_unary_expr st
        | _ -> fail st "expected ( or built-in call after FILTER"
      in
      elements := Filter e :: !elements;
      loop ()
    | LBRACE ->
      flush_triples ();
      let p = parse_group_or_union st in
      elements := p :: !elements;
      loop ()
    | _ ->
      List.iter
        (function
          | `T tp -> triples := tp :: !triples
          | `P p ->
            flush_triples ();
            elements := p :: !elements)
        (List.rev (parse_triples_block st []));
      loop ()
  in
  loop ();
  match List.rev !elements with
  | [ single ] -> single
  | elements -> Group elements

(* group (UNION group)* *)
and parse_group_or_union st : pattern =
  let first = parse_group st in
  if accept_kw st "UNION" then begin
    let parts = ref [ first ] in
    let rec loop () =
      parts := parse_group st :: !parts;
      if accept_kw st "UNION" then loop ()
    in
    loop ();
    Union (List.rev !parts)
  end
  else first

(* ------------------------------------------------------------------ *)
(* Query                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_prologue st =
  if accept_kw st "PREFIX" then begin
    (match peek st with
     | PNAME (p, "") ->
       advance st;
       (match peek st with
        | IRIREF iri ->
          advance st;
          Hashtbl.replace st.prefixes p iri
        | _ -> fail st "expected IRI in PREFIX")
     | _ -> fail st "expected prefix name in PREFIX");
    parse_prologue st
  end
  else if accept_kw st "BASE" then begin
    (match peek st with
     | IRIREF _ -> advance st
     | _ -> fail st "expected IRI in BASE");
    parse_prologue st
  end

let parse_query_state st : query =
  parse_prologue st;
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let reduced = (not distinct) && accept_kw st "REDUCED" in
  let aggregates = ref [] in
  let parse_agg_item () =
    (* '(' AGG '(' [DISTINCT] (?v | '*') ')' AS ?alias ')' *)
    expect st LPAREN;
    let agg_fn =
      match peek st with
      | KW "COUNT" -> advance st; Ag_count
      | KW "SUM" -> advance st; Ag_sum
      | KW "AVG" -> advance st; Ag_avg
      | KW "MIN" -> advance st; Ag_min
      | KW "MAX" -> advance st; Ag_max
      | _ -> fail st "expected aggregate function"
    in
    expect st LPAREN;
    let agg_distinct = accept_kw st "DISTINCT" in
    let agg_arg =
      match peek st with
      | STAR ->
        advance st;
        None
      | VAR v ->
        advance st;
        Some v
      | _ -> fail st "expected variable or * in aggregate"
    in
    expect st RPAREN;
    expect_kw st "AS";
    let agg_alias =
      match peek st with
      | VAR v ->
        advance st;
        v
      | _ -> fail st "expected alias variable after AS"
    in
    expect st RPAREN;
    aggregates := { agg_fn; agg_arg; agg_distinct; agg_alias } :: !aggregates
  in
  let projection =
    if peek st = STAR then begin
      advance st;
      Select_star
    end
    else begin
      let vars = ref [] in
      let rec loop () =
        match peek st with
        | VAR v ->
          advance st;
          vars := v :: !vars;
          loop ()
        | LPAREN ->
          parse_agg_item ();
          loop ()
        | _ -> ()
      in
      loop ();
      if !vars = [] && !aggregates = [] then Select_star
      else Select_vars (List.rev !vars)
    end
  in
  let aggregates = List.rev !aggregates in
  ignore (accept_kw st "WHERE");
  let where = parse_group_or_union st in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let vars = ref [] in
      let rec loop () =
        match peek st with
        | VAR v ->
          advance st;
          vars := v :: !vars;
          loop ()
        | _ -> ()
      in
      loop ();
      if !vars = [] then fail st "expected variables after GROUP BY";
      List.rev !vars
    end
    else []
  in
  if accept_kw st "HAVING" then fail st "HAVING is not supported";
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let conds = ref [] in
      let rec loop () =
        match peek st with
        | KW "ASC" ->
          advance st;
          expect st LPAREN;
          let e = parse_expr st in
          expect st RPAREN;
          conds := { ord_expr = e; ord_asc = true } :: !conds;
          loop ()
        | KW "DESC" ->
          advance st;
          expect st LPAREN;
          let e = parse_expr st in
          expect st RPAREN;
          conds := { ord_expr = e; ord_asc = false } :: !conds;
          loop ()
        | VAR v ->
          advance st;
          conds := { ord_expr = E_var v; ord_asc = true } :: !conds;
          loop ()
        | _ -> ()
      in
      loop ();
      List.rev !conds
    end
    else []
  in
  let limit = ref None and offset = ref None in
  let rec modifiers () =
    if accept_kw st "LIMIT" then begin
      (match peek st with
       | INTLIT n ->
         advance st;
         limit := Some n
       | _ -> fail st "expected integer after LIMIT");
      modifiers ()
    end
    else if accept_kw st "OFFSET" then begin
      (match peek st with
       | INTLIT n ->
         advance st;
         offset := Some n
       | _ -> fail st "expected integer after OFFSET");
      modifiers ()
    end
  in
  modifiers ();
  if (aggregates <> [] || group_by <> []) && order_by <> [] then
    fail st "ORDER BY is not supported together with aggregates";
  (* Plain selected variables of an aggregate query must be grouped. *)
  (match projection with
   | Select_vars vs when aggregates <> [] ->
     List.iter
       (fun v ->
         if not (List.mem v group_by) then
           fail st ("selected variable ?" ^ v ^ " must appear in GROUP BY"))
       vs
   | _ -> ());
  { projection; distinct; reduced; where; group_by; aggregates;
    order_by; limit = !limit; offset = !offset }

(* ------------------------------------------------------------------ *)
(* Updates (SPARQL 1.1 UPDATE subset)                                  *)
(* ------------------------------------------------------------------ *)

(* A brace-delimited block of triple patterns: DOT-separated
   triples-same-subject groups, predicate-object and object lists
   allowed, property paths rejected (the UPDATE grammar has no paths). *)
let parse_triple_pat_block st : triple_pat list =
  expect st LBRACE;
  let triples = ref [] in
  let rec loop () =
    match peek st with
    | RBRACE -> advance st
    | DOT ->
      advance st;
      loop ()
    | _ ->
      List.iter
        (function
          | `T tp -> triples := tp :: !triples
          | `P _ -> fail st "property paths are not allowed here")
        (List.rev (parse_triples_block st []));
      loop ()
  in
  loop ();
  List.rev !triples

(* The same block with every position ground — the QuadData production
   of INSERT DATA / DELETE DATA. *)
let parse_ground_data_block st : Rdf.Triple.t list =
  let ground = function
    | Term t -> t
    | Var v -> fail st ("variable ?" ^ v ^ " is not allowed in DATA blocks")
  in
  List.map
    (fun { tp_s; tp_p; tp_o } ->
      Rdf.Triple.make (ground tp_s) (ground tp_p) (ground tp_o))
    (parse_triple_pat_block st)

let parse_update_state st : update =
  if accept_kw st "INSERT" then begin
    expect_kw st "DATA";
    Insert_data (parse_ground_data_block st)
  end
  else begin
    expect_kw st "DELETE";
    if accept_kw st "DATA" then Delete_data (parse_ground_data_block st)
    else begin
      expect_kw st "WHERE";
      Delete_where (parse_triple_pat_block st)
    end
  end

let parse_statement_state st : statement =
  parse_prologue st;
  match peek st with
  | KW "SELECT" -> S_query (parse_query_state st)
  | KW ("INSERT" | "DELETE") -> S_update (parse_update_state st)
  | _ -> fail st "expected SELECT, INSERT or DELETE"

(* statement (';' statement)* ';'? *)
let parse_script_state st : statement list =
  let stmts = ref [] in
  let rec loop () =
    stmts := parse_statement_state st :: !stmts;
    if peek st = SEMI then begin
      advance st;
      if peek st <> EOF then loop ()
    end
  in
  if peek st <> EOF then loop ();
  List.rev !stmts

let make_state src =
  let st =
    { toks = tokenize src; prefixes = Hashtbl.create 8; len = String.length src }
  in
  Hashtbl.replace st.prefixes "rdf" "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
  Hashtbl.replace st.prefixes "rdfs" "http://www.w3.org/2000/01/rdf-schema#";
  Hashtbl.replace st.prefixes "xsd" "http://www.w3.org/2001/XMLSchema#";
  st

let finish st v =
  if peek st <> EOF then fail st "trailing input";
  v

(** 1-based line and byte column of offset [pos] in [src]. *)
let line_col (src : string) (pos : int) : int * int =
  let pos = Int.max 0 (Int.min pos (String.length src)) in
  let line = ref 1 and bol = ref 0 in
  String.iteri
    (fun i c ->
      if i < pos && c = '\n' then begin
        incr line;
        bol := i + 1
      end)
    src;
  (!line, pos - !bol + 1)

(** Parse a SPARQL SELECT query. *)
let parse (src : string) : query =
  let st = make_state src in
  finish st (parse_query_state st)

(** Parse a single SPARQL UPDATE request. *)
let parse_update (src : string) : update =
  let st = make_state src in
  parse_prologue st;
  finish st (parse_update_state st)

(** Parse one statement — a query or an update request. *)
let parse_statement (src : string) : statement =
  let st = make_state src in
  finish st (parse_statement_state st)

(** Parse a script of [;]-separated query/update statements. *)
let parse_script (src : string) : statement list =
  let st = make_state src in
  finish st (parse_script_state st)
