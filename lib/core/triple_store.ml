(** The triple-store baseline (Section 2, first alternative): a single
    3-column relation [TRIPLES(subj, pred, obj)] with subject and object
    indexes, and a bottom-up selectivity-ordered SPARQL-to-SQL
    translation where every triple pattern costs one self-join
    (Figure 2(c)). *)

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

let table_name = "TRIPLES"

let create ?(parallelism = 1) ?(compress = false) ?dict () =
  let db = Relsql.Database.create "triple-store" in
  Relsql.Database.set_parallelism db parallelism;
  let dict = match dict with Some d -> d | None -> Rdf.Dictionary.create () in
  let table =
    Relsql.Database.create_table db table_name
      (Relsql.Schema.make [ "subj"; "pred"; "obj" ])
  in
  Relsql.Table.create_index_on table "subj";
  Relsql.Table.create_index_on table "pred";
  Relsql.Table.create_index_on table "obj";
  {
    db;
    dict;
    table;
    stats = Dataset_stats.create ();
    dict_state = Dict_table.create db;
    seen = Hashtbl.create 4096;
    compress;
  }

let insert t (tr : Rdf.Triple.t) =
  let s = Rdf.Dictionary.id_of t.dict tr.s in
  let p = Rdf.Dictionary.id_of t.dict tr.p in
  let o = Rdf.Dictionary.id_of t.dict tr.o in
  if not (Hashtbl.mem t.seen (s, p, o)) then begin
    Hashtbl.add t.seen (s, p, o) ();
    ignore
      (Relsql.Table.insert t.table
         [| Relsql.Value.Int s; Relsql.Value.Int p; Relsql.Value.Int o |]);
    Dataset_stats.record t.stats ~s ~p ~o
  end

let load t triples =
  List.iter (insert t) triples;
  Dict_table.sync t.dict_state t.dict;
  if t.compress then
    ignore (Relsql.Database.merge_all t.db)

(** Delete one triple (no-op when absent). *)
let delete t (tr : Rdf.Triple.t) =
  match
    ( Rdf.Dictionary.find t.dict tr.s,
      Rdf.Dictionary.find t.dict tr.p,
      Rdf.Dictionary.find t.dict tr.o )
  with
  | Some s, Some p, Some o when Hashtbl.mem t.seen (s, p, o) ->
    Hashtbl.remove t.seen (s, p, o);
    let subj_pos = 0 and pred_pos = 1 and obj_pos = 2 in
    (match
       Array.find_opt
         (fun rid ->
           Relsql.Table.cell t.table rid pred_pos = Relsql.Value.Int p
           && Relsql.Table.cell t.table rid obj_pos = Relsql.Value.Int o)
         (Relsql.Table.lookup t.table subj_pos (Relsql.Value.Int s))
     with
     | Some rid -> Relsql.Table.delete_row t.table rid
     | None -> ());
    Dataset_stats.unrecord t.stats ~s ~p ~o
  | _ -> ()

(* Keep the DICT table in step after an update statement and, under
   [compress], merge the tables whose delta is due — the engine's
   write epilogue policy. *)
let after_write t =
  Dict_table.sync t.dict_state t.dict;
  if t.compress then
    ignore (Relsql.Database.merge_due t.db)

let translate t (q : Sparql.Ast.query) : Relsql.Sql_ast.stmt =
  let pt = Sparql.Pattern_tree.of_query q in
  let etree = Bottom_up.exec_tree pt t.stats t.dict in
  let plan = Merge.of_exec (Bottom_up.no_merge_ctx pt) etree in
  Sqlgen.generate_with (Sqlgen.B_triple { table = table_name }) t.dict pt plan q

let query ?timeout t (q : Sparql.Ast.query) : Sparql.Ref_eval.results =
  let stmt = translate t q in
  let r = Relsql.Executor.run ?timeout t.db stmt in
  Results.decode t.dict q r

let query_analyzed ?timeout t (q : Sparql.Ast.query) :
  Sparql.Ref_eval.results * Relsql.Opstats.t =
  let stmt = translate t q in
  let r, stats = Relsql.Executor.run_analyzed ?timeout t.db stmt in
  (Results.decode t.dict q r, stats)

let explain t q =
  let stmt = translate t q in
  Relsql.Sql_pp.to_pretty_string stmt
  ^ "\n"
  ^ Relsql.Executor.explain t.db stmt

let to_store ?(name = "TripleStore") t : Store.t =
  {
    Store.name;
    load = (fun triples -> load t triples);
    delete = (fun triples -> List.iter (delete t) triples);
    query = (fun ?timeout q -> query ?timeout t q);
    analyze =
      (fun ?timeout q ->
        let r, stats = query_analyzed ?timeout t q in
        (r, Some stats));
    explain = (fun q -> explain t q);
    update =
      Store.update_via
        ~query:(fun ?timeout q -> query ?timeout t q)
        ~insert:(fun ts ->
          List.iter (insert t) ts;
          after_write t)
        ~delete:(fun ts ->
          List.iter (delete t) ts;
          after_write t);
    check = (fun () -> Relsql.Database.check t.db);
  }
