(** The store interface every system in the benchmark implements:
    DB2RDF, the triple-store and predicate-oriented baselines, and the
    native reference engine. Query answers use the reference evaluator's
    result type so cross-store comparison is direct. *)

type t = {
  name : string;
  load : Rdf.Triple.t list -> unit;
  delete : Rdf.Triple.t list -> unit;
  query : ?timeout:float -> Sparql.Ast.query -> Sparql.Ref_eval.results;
      (** May raise {!Relsql.Executor.Timeout} or
          {!Filter_sql.Unsupported}. *)
  analyze :
    ?timeout:float ->
    Sparql.Ast.query ->
    Sparql.Ref_eval.results * Relsql.Opstats.t option;
      (** Like [query], but also returns the per-operator execution
          metrics tree ([None] for stores that do not execute through
          the relational engine). *)
  explain : Sparql.Ast.query -> string;
  update : Sparql.Ast.update -> unit;
      (** Apply a SPARQL UPDATE. [DELETE WHERE] matches against the
          pre-update state. *)
  check : unit -> unit;
      (** Verify the store's structural invariants
          ({!Relsql.Table.check} on every table, plus {!Loader.check}
          on DB2RDF stores); raises [Failure] on a violation. *)
}

(** Build a store's [update] from its own query/insert/delete
    primitives: the DATA forms go straight through, while
    [DELETE WHERE] evaluates a SELECT over the template's variables
    through the store's own query path, instantiates the template under
    every solution, and deletes the resulting ground triples (a ground
    template becomes a count-star existence probe). *)
val update_via :
  query:(?timeout:float -> Sparql.Ast.query -> Sparql.Ref_eval.results) ->
  insert:(Rdf.Triple.t list -> unit) ->
  delete:(Rdf.Triple.t list -> unit) ->
  Sparql.Ast.update ->
  unit

(** Outcome classification, mirroring Figure 15's categories. *)
type outcome =
  | Complete of Sparql.Ref_eval.results
  | Timed_out
  | Unsupported of string
  | Failed of string

(** Run a query, classifying the outcome and measuring wall-clock
    seconds. *)
val run : ?timeout:float -> t -> Sparql.Ast.query -> outcome * float

val outcome_to_string : outcome -> string
