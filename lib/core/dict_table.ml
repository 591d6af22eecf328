(** The relational face of the term dictionary.

    Joins between triple patterns happen on dictionary ids, but FILTER
    comparisons, regex tests and ORDER BY need term *values*. Every
    relational store therefore materializes the dictionary as a [DICT]
    relation — the standard move in dictionary-encoded RDF systems —
    with columns:

    - [id]: the dictionary id (indexed);
    - [term]: the full N-Triples rendering (total order consistent with
      the reference evaluator's term comparison);
    - [txt]: the text REGEX matches against (lexical form for literals,
      the IRI string for IRIs);
    - [num]: the numeric value for numeric literals, NULL otherwise. *)

let table_name = "DICT"

type state = { table : Relsql.Table.t; mutable synced : int }

let create db =
  let table =
    Relsql.Database.create_table db table_name
      (Relsql.Schema.make [ "id"; "term"; "txt"; "num" ])
  in
  Relsql.Table.create_index_on table "id";
  { table; synced = 0 }

let row_of_term id (t : Rdf.Term.t) =
  let txt =
    match t with
    | Rdf.Term.Lit { lex; _ } -> lex
    | Rdf.Term.Iri s -> s
    | Rdf.Term.Bnode b -> b
  in
  let num =
    match Rdf.Term.as_number t with
    | Some n -> Relsql.Value.Real n
    | None -> Relsql.Value.Null
  in
  [| Relsql.Value.Int id; Relsql.Value.Str (Rdf.Term.to_string t);
     Relsql.Value.Str txt; num |]

(** Append rows for dictionary ids interned since the last sync. Call
    after loading and before translating queries that need term values. *)
let sync state (dict : Rdf.Dictionary.t) =
  let n = Rdf.Dictionary.size dict in
  for id = state.synced to n - 1 do
    ignore
      (Relsql.Table.insert state.table
         (row_of_term id (Rdf.Dictionary.term_of dict id)))
  done;
  state.synced <- n
