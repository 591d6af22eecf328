(** The predicate-oriented (vertically partitioned) baseline (Section 2,
    third alternative; Abadi et al.): one binary [entry, val] relation
    per predicate, both columns indexed, and the Figure 2(d) translation.
    New predicates require new relations — the schema-dynamicity problem
    the paper calls out — reproduced here by creating tables on first
    sight of a predicate. *)

type t = {
  db : Relsql.Database.t;
  dict : Rdf.Dictionary.t;
  tables : (int, string) Hashtbl.t;  (** predicate id -> table name *)
  stats : Dataset_stats.t;
  dict_state : Dict_table.state;
  seen : (int * int * int, unit) Hashtbl.t;
  compress : bool;
      (** merge every table after bulk load and the due tables after
          each write, like the engine's [compress] option *)
  mutable table_count : int;
}

(** [parallelism] (default 1) is the executor's domain count for
    statements against the store; [compress] (default false) packs its
    tables after bulk load and keeps them packed after writes. *)
val create :
  ?parallelism:int -> ?compress:bool -> ?dict:Rdf.Dictionary.t -> unit -> t

val insert : t -> Rdf.Triple.t -> unit
val load : t -> Rdf.Triple.t list -> unit

(** Delete one triple (no-op when absent). *)
val delete : t -> Rdf.Triple.t -> unit

(** Number of predicate relations — the schema-explosion metric. *)
val relation_count : t -> int

val translate : t -> Sparql.Ast.query -> Relsql.Sql_ast.stmt
val query : ?timeout:float -> t -> Sparql.Ast.query -> Sparql.Ref_eval.results

(** Like {!query}, plus the executor's per-operator metrics tree. *)
val query_analyzed :
  ?timeout:float -> t -> Sparql.Ast.query ->
  Sparql.Ref_eval.results * Relsql.Opstats.t

val explain : t -> Sparql.Ast.query -> string
val to_store : ?name:string -> t -> Store.t
