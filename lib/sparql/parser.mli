(** Recursive-descent parser for the SPARQL subset of {!Ast}: PREFIX
    declarations, SELECT [DISTINCT|REDUCED] with variable lists, [*] or
    aggregate items (with GROUP BY), groups, predicate-object and object
    lists, [a] for rdf:type, property paths (alternative [|], sequence
    [/], inverse [^] — rewritten into plain patterns at parse time),
    UNION, OPTIONAL, FILTER, ORDER BY, LIMIT and OFFSET. *)

(** A syntax error: the message and the byte offset in the source of
    the token the parser failed at (the source length at end of input).
    {!Lexer.Lex_error} carries the same pair for lexical errors. *)
exception Parse_error of string * int

(** [line_col src pos] is the 1-based line and byte column of offset
    [pos] in [src], for reporting either error. *)
val line_col : string -> int -> int * int

(** Parse a SPARQL SELECT query (prefixes [rdf:], [rdfs:], [xsd:] are
    predeclared). Raises {!Parse_error} or {!Lexer.Lex_error}. *)
val parse : string -> Ast.query

(** Parse a single SPARQL UPDATE request ([INSERT DATA], [DELETE DATA]
    or [DELETE WHERE]). Raises {!Parse_error} or {!Lexer.Lex_error}. *)
val parse_update : string -> Ast.update

(** Parse one statement — a SELECT query or an UPDATE request. *)
val parse_statement : string -> Ast.statement

(** Parse a script of [;]-separated query/update statements. *)
val parse_script : string -> Ast.statement list
