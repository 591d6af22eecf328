(** The triple-store baseline (Section 2, first alternative): a single
    3-column relation [TRIPLES(subj, pred, obj)] with subject and object
    indexes, and a bottom-up selectivity-ordered SPARQL-to-SQL
    translation where every triple pattern costs one self-join
    (Figure 2(c)). Record fields are exposed for the benchmark harness
    and tests. *)

type t = {
  db : Relsql.Database.t;
  dict : Rdf.Dictionary.t;
  table : Relsql.Table.t;
  stats : Dataset_stats.t;
  dict_state : Dict_table.state;
  seen : (int * int * int, unit) Hashtbl.t;
  compress : bool;
      (** merge every table after bulk load and the due tables after
          each write, like the engine's [compress] option *)
}

val table_name : string

(** [parallelism] (default 1) is the executor's domain count for
    statements against the store; [compress] (default false) packs its
    tables after bulk load and keeps them packed after writes. *)
val create :
  ?parallelism:int -> ?compress:bool -> ?dict:Rdf.Dictionary.t -> unit -> t

val insert : t -> Rdf.Triple.t -> unit
val load : t -> Rdf.Triple.t list -> unit

(** Delete one triple (no-op when absent). *)
val delete : t -> Rdf.Triple.t -> unit

val translate : t -> Sparql.Ast.query -> Relsql.Sql_ast.stmt
val query : ?timeout:float -> t -> Sparql.Ast.query -> Sparql.Ref_eval.results

(** Like {!query}, plus the executor's per-operator metrics tree. *)
val query_analyzed :
  ?timeout:float -> t -> Sparql.Ast.query ->
  Sparql.Ref_eval.results * Relsql.Opstats.t

val explain : t -> Sparql.Ast.query -> string
val to_store : ?name:string -> t -> Store.t
