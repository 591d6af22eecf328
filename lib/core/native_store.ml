(** The native in-memory store: {!Rdf.Graph} plus the reference
    evaluator. It stands in for a Jena-class native system in the
    cross-system benchmarks and doubles as the correctness oracle. *)

type t = { graph : Rdf.Graph.t }

let create ?dict () = { graph = Rdf.Graph.create ?dict () }

let of_graph graph = { graph }

let graph t = t.graph

let load t triples = List.iter (Rdf.Graph.add t.graph) triples

let delete t triples = List.iter (Rdf.Graph.remove t.graph) triples

let query ?timeout t (q : Sparql.Ast.query) : Sparql.Ref_eval.results =
  try Sparql.Ref_eval.eval ?timeout t.graph q
  with Sparql.Ref_eval.Timeout -> raise Relsql.Executor.Timeout

let to_store ?(name = "NativeRef") t : Store.t =
  {
    Store.name;
    load = (fun triples -> load t triples);
    delete = (fun triples -> delete t triples);
    query = (fun ?timeout q -> query ?timeout t q);
    analyze = (fun ?timeout q -> (query ?timeout t q, None));
    explain = (fun _ -> "native in-memory evaluation (no SQL)");
    update = (fun u -> Sparql.Ref_eval.apply_update t.graph u);
    check = ignore;
  }
