(** E12 — insertion, bulk load and update performance: the study the
    paper defers to future work ("we are preparing a study on insertion,
    bulk load and update performance"). Measures, per store:
    - bulk load throughput (triples/second, including any coloring pass);
    - incremental single-triple insertion rate into a warm store;
    - deletion rate. *)

let run (cfg : Harness.config) =
  Harness.section
    (Printf.sprintf
       "E12. Insertion / bulk load / update performance — %d triples (LUBM)"
       cfg.Harness.scale);
  let triples = Workloads.Lubm.generate ~scale:cfg.Harness.scale in
  let n = List.length triples in
  (* A later slice of the dataset arrives incrementally; an earlier
     slice is subsequently deleted. *)
  let incr_n = max 1 (n / 10) in
  let bulk = List.filteri (fun i _ -> i < n - incr_n) triples in
  let incremental = List.filteri (fun i _ -> i >= n - incr_n) triples in
  let to_delete = List.filteri (fun i _ -> i < incr_n) triples in
  let builders =
    [ ("DB2RDF (colored)",
       fun () ->
         let e, _, _ =
           Db2rdf.Engine.create_colored
             ~layout:(Db2rdf.Layout.make ~dph_cols:24 ~rph_cols:24) bulk
         in
         Db2rdf.Engine.to_store e);
      ("DB2RDF (hashed)",
       fun () ->
         let e =
           Db2rdf.Engine.create
             ~layout:(Db2rdf.Layout.make ~dph_cols:24 ~rph_cols:24) ()
         in
         Db2rdf.Engine.load e bulk;
         Db2rdf.Engine.to_store e);
      ("TripleStore",
       fun () ->
         let ts = Db2rdf.Triple_store.create () in
         Db2rdf.Triple_store.load ts bulk;
         Db2rdf.Triple_store.to_store ts);
      ("VertStore",
       fun () ->
         let vs = Db2rdf.Vertical_store.create () in
         Db2rdf.Vertical_store.load vs bulk;
         Db2rdf.Vertical_store.to_store vs);
      ("NativeRef",
       fun () ->
         let ns = Db2rdf.Native_store.create () in
         Db2rdf.Native_store.load ns bulk;
         Db2rdf.Native_store.to_store ns) ]
  in
  let ktps count seconds =
    if seconds <= 0.0 then "-"
    else Printf.sprintf "%.0f" (float_of_int count /. seconds /. 1000.0)
  in
  let rows =
    List.map
      (fun (name, build) ->
        let store, t_bulk = Harness.timed build in
        let (), t_incr =
          Harness.timed (fun () -> store.Db2rdf.Store.load incremental)
        in
        let (), t_del =
          Harness.timed (fun () -> store.Db2rdf.Store.delete to_delete)
        in
        [ name;
          ktps (List.length bulk) t_bulk;
          ktps (List.length incremental) t_incr;
          ktps (List.length to_delete) t_del ])
      builders
  in
  Harness.print_table
    [ "Store"; "bulk load (kt/s)"; "incr. insert (kt/s)"; "delete (kt/s)" ]
    rows
