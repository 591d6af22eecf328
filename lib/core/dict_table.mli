(** The relational face of the term dictionary: the [DICT] relation
    ([id] indexed, [term] = N-Triples rendering, [txt] = regex text,
    [num] = numeric value or NULL), which FILTER comparisons, ORDER BY
    and numeric aggregates join against — the standard move in
    dictionary-encoded RDF systems. *)

val table_name : string

type state

(** Create the (empty, indexed) DICT relation in a database. *)
val create : Relsql.Database.t -> state

(** Append rows for dictionary ids interned since the last sync. Call
    after loading and before translating queries that need term values. *)
val sync : state -> Rdf.Dictionary.t -> unit
