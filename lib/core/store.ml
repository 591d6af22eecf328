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
    primitives. The DATA forms go straight through; [DELETE WHERE]
    evaluates a SELECT over the template's variables {e through the
    store's own query path} — so the differential fuzzer exercises each
    backend's translation pipeline on the WHERE side too — then
    instantiates the template under every solution and deletes the
    resulting ground triples. A ground template (no variables) becomes
    a count-star existence probe, since a zero-variable SELECT has no
    relational projection. *)
let update_via
    ~(query : ?timeout:float -> Sparql.Ast.query -> Sparql.Ref_eval.results)
    ~insert ~delete (u : Sparql.Ast.update) : unit =
  match u with
  | Sparql.Ast.Insert_data ts -> insert ts
  | Sparql.Ast.Delete_data ts -> delete ts
  | Sparql.Ast.Delete_where tps ->
    let vars =
      List.sort_uniq compare
        (List.concat_map Sparql.Ast.triple_pat_vars tps)
    in
    if vars = [] then begin
      let probe =
        Sparql.Ast.select
          ~aggregates:
            [ { Sparql.Ast.agg_fn = Ag_count; agg_arg = None;
                agg_distinct = false; agg_alias = "n" } ]
          (Sparql.Ast.Select_vars []) (Sparql.Ast.Bgp tps)
      in
      let r : Sparql.Ref_eval.results = query probe in
      let present =
        match r.Sparql.Ref_eval.rows with
        | [ [ Some term ] ] ->
          (match Rdf.Term.as_number term with
           | Some n -> n > 0.0
           | None -> false)
        | _ -> false
      in
      if present then
        delete
          (List.filter_map
             (fun (tp : Sparql.Ast.triple_pat) ->
               match (tp.tp_s, tp.tp_p, tp.tp_o) with
               | Term s, Term p, Term o -> Some (Rdf.Triple.make s p o)
               | _ -> None)
             tps)
    end
    else begin
      let q =
        Sparql.Ast.select (Sparql.Ast.Select_vars vars) (Sparql.Ast.Bgp tps)
      in
      let r : Sparql.Ref_eval.results = query q in
      let doomed =
        List.concat_map
          (fun row ->
            let env = List.combine r.Sparql.Ref_eval.vars row in
            let resolve = function
              | Sparql.Ast.Term t -> Some t
              | Sparql.Ast.Var v -> Option.join (List.assoc_opt v env)
            in
            List.filter_map
              (fun (tp : Sparql.Ast.triple_pat) ->
                match (resolve tp.tp_s, resolve tp.tp_p, resolve tp.tp_o) with
                | Some s, Some p, Some o -> Some (Rdf.Triple.make s p o)
                | _ -> None)
              tps)
          r.Sparql.Ref_eval.rows
      in
      delete doomed
    end

(** Outcome classification, mirroring Figure 15's categories. [Error]
    means the store answered with the wrong number of results (detected
    against an oracle count by the harness); here it covers runtime
    failures. *)
type outcome =
  | Complete of Sparql.Ref_eval.results
  | Timed_out
  | Unsupported of string
  | Failed of string

(** Run a query, classifying the outcome and measuring wall-clock
    seconds. *)
let run ?timeout (store : t) (q : Sparql.Ast.query) : outcome * float =
  let t0 = Unix.gettimeofday () in
  let outcome =
    try Complete (store.query ?timeout q) with
    | Relsql.Executor.Timeout | Sparql.Ref_eval.Timeout -> Timed_out
    | Filter_sql.Unsupported msg -> Unsupported msg
    | Sparql.Parser.Parse_error (msg, _) -> Unsupported msg
    | Failure msg -> Failed msg
    | Invalid_argument msg -> Failed msg
  in
  (outcome, Unix.gettimeofday () -. t0)

let outcome_to_string = function
  | Complete r -> Printf.sprintf "complete (%d rows)" (List.length r.Sparql.Ref_eval.rows)
  | Timed_out -> "timeout"
  | Unsupported m -> "unsupported: " ^ m
  | Failed m -> "error: " ^ m
