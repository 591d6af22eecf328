(** Decoding relational query output back to RDF terms, shared by every
    relational store.

    Ordinary projected columns hold dictionary ids ([Int id], or NULL
    for unbound OPTIONAL variables), which arrive as executor cells
    ({!Relsql.Cell}) and are turned into terms here and nowhere else. Aggregate columns hold computed
    values: counts as [Int], numeric aggregates as [Real]/[Int] — these
    decode through {!Rdf.Term.of_number} so they compare equal to the
    reference evaluator's aggregate terms. *)

let decode (dict : Rdf.Dictionary.t) (q : Sparql.Ast.query)
    (r : Relsql.Executor.result) : Sparql.Ref_eval.results =
  let vars = Sparql.Ast.projected_vars q in
  let n_plain = List.length vars - List.length q.Sparql.Ast.aggregates in
  let side = Relsql.Batch.side r in
  (* The executor moved codes; this is where they become terms. An
     inline Int cell is the dictionary id itself. *)
  let decode_cell pos c =
    if c = Relsql.Cell.null then None
    else if pos < n_plain && Relsql.Cell.is_int c then Some (Rdf.Dictionary.term_of dict c)
    else
      match Relsql.Cell.decode side c with
      | Relsql.Value.Null -> None
      | Relsql.Value.Int id when pos < n_plain -> Some (Rdf.Dictionary.term_of dict id)
      | Relsql.Value.Int n -> Some (Rdf.Term.int_lit n)
      | Relsql.Value.Real x -> Some (Rdf.Term.of_number x)
      | v -> failwith ("unexpected value in result: " ^ Relsql.Value.to_string v)
  in
  let n = Relsql.Batch.length r and w = Relsql.Batch.width r in
  let rows =
    List.init n (fun i -> List.init w (fun j -> decode_cell j (Relsql.Batch.cell r i j)))
  in
  { Sparql.Ref_eval.vars; rows }
