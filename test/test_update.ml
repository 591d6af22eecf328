(** Tests for update support (the paper's future-work item on insertion
    and update performance): deletion across every store, with the
    reference graph as oracle. *)

open Db2rdf

let term pfx i = Rdf.Term.iri (Printf.sprintf "%s%d" pfx i)

let triple (s, p, o) = Rdf.Triple.make (term "s" s) (term "p" p) (term "o" o)

let test_graph_remove () =
  let g = Rdf.Graph.create () in
  let t1 = triple (1, 1, 1) and t2 = triple (1, 1, 2) in
  Rdf.Graph.add g t1;
  Rdf.Graph.add g t2;
  Rdf.Graph.remove g t1;
  Alcotest.(check int) "size" 1 (Rdf.Graph.size g);
  Alcotest.(check bool) "t1 gone" false (Rdf.Graph.mem g t1);
  Alcotest.(check bool) "t2 kept" true (Rdf.Graph.mem g t2);
  Rdf.Graph.remove g t1;
  Alcotest.(check int) "remove idempotent" 1 (Rdf.Graph.size g)

let test_table_delete_row () =
  let t = Relsql.Table.create "t" (Relsql.Schema.make [ "k" ]) in
  Relsql.Table.create_index_on t "k";
  let r0 = Relsql.Table.insert t [| Relsql.Value.Int 1 |] in
  let _r1 = Relsql.Table.insert t [| Relsql.Value.Int 1 |] in
  Relsql.Table.delete_row t r0;
  Alcotest.(check int) "live count" 1 (Relsql.Table.row_count t);
  Alcotest.(check int) "index updated" 1
    (Array.length (Relsql.Table.lookup t 0 (Relsql.Value.Int 1)));
  (* scans skip tombstones *)
  let seen = ref 0 in
  Relsql.Table.iter (fun _ _ -> incr seen) t;
  Alcotest.(check int) "iter skips dead" 1 !seen

let test_loader_delete_single_valued () =
  let store = Loader.create ~layout:(Layout.make ~dph_cols:4 ~rph_cols:4) () in
  let t1 = triple (1, 1, 1) and t2 = triple (1, 2, 2) in
  Loader.load store [ t1; t2 ];
  Loader.delete store t1;
  Alcotest.(check int) "loaded count" 1 (Loader.triples_loaded store);
  (* Re-inserting after delete works. *)
  Loader.insert store t1;
  Alcotest.(check int) "re-insert" 2 (Loader.triples_loaded store)

let test_loader_delete_multivalued () =
  let store = Loader.create ~layout:(Layout.make ~dph_cols:4 ~rph_cols:4) () in
  (* three values for the same (s, p) *)
  let ts = List.map (fun o -> triple (1, 1, o)) [ 1; 2; 3 ] in
  Loader.load store ts;
  Loader.delete store (triple (1, 1, 2));
  let db = Loader.database store in
  let ds = Relsql.Database.find_exn db "DS" in
  Alcotest.(check int) "one DS element removed" 2 (Relsql.Table.row_count ds);
  (* delete the rest; the primary cell must clear *)
  Loader.delete store (triple (1, 1, 1));
  Loader.delete store (triple (1, 1, 3));
  Alcotest.(check int) "DS empty" 0 (Relsql.Table.row_count ds);
  Alcotest.(check int) "nothing loaded" 0 (Loader.triples_loaded store)

(** End-to-end: load, delete a random subset, compare every store
    against the oracle graph on a probe query. *)
let delete_equivalence =
  QCheck.Test.make ~name:"stores ≡ oracle after random deletions" ~count:40
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_range 5 60)
               (triple (int_range 0 8) (int_range 0 3) (int_range 0 8)))
            (list_size (int_range 0 30)
               (triple (int_range 0 8) (int_range 0 3) (int_range 0 8)))))
    (fun (to_load, to_delete) ->
      let load_triples = List.map triple to_load in
      let delete_triples = List.map triple to_delete in
      let g = Rdf.Graph.create () in
      List.iter (Rdf.Graph.add g) load_triples;
      List.iter (Rdf.Graph.remove g) delete_triples;
      let q =
        Sparql.Parser.parse
          "SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s <p0> ?x }"
      in
      let oracle = Sparql.Ref_eval.eval g q in
      let stores =
        let e = Engine.create ~layout:(Layout.make ~dph_cols:3 ~rph_cols:3) () in
        let ts = Triple_store.create () in
        let vs = Vertical_store.create () in
        let ns = Native_store.create () in
        [ Engine.to_store e; Triple_store.to_store ts; Vertical_store.to_store vs;
          Native_store.to_store ns ]
      in
      List.for_all
        (fun (store : Store.t) ->
          store.Store.load load_triples;
          store.Store.delete delete_triples;
          Sparql.Ref_eval.equal_results oracle (store.Store.query q))
        stores)

(* ------------------------------------------------------------------ *)
(* Engine-level UPDATE                                                 *)
(* ------------------------------------------------------------------ *)

let dump_q = Sparql.Parser.parse "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

let check_engine_matches_graph msg e g =
  let oracle = Sparql.Ref_eval.eval g dump_q in
  Alcotest.(check bool) msg true
    (Sparql.Ref_eval.equal_results oracle (Engine.query e dump_q))

(** DELETE on spilled / multi-valued predicates through the engine's
    UPDATE path: a narrow layout forces spills, repeated (s, p) pairs
    force DS/RS lids, and deletions must keep both in sync. *)
let test_engine_delete_spilled_multivalued () =
  let g = Rdf.Graph.create () in
  let e = Engine.create ~layout:(Layout.make ~dph_cols:2 ~rph_cols:2) () in
  (* 6 distinct predicates on one subject with 2 columns: spills are
     guaranteed; p1 is multi-valued on s1. *)
  let initial =
    List.map triple
      [ (1, 1, 1); (1, 1, 2); (1, 1, 3); (1, 2, 1); (1, 3, 1); (1, 4, 1);
        (1, 5, 1); (1, 6, 1); (2, 1, 1) ]
  in
  List.iter (Rdf.Graph.add g) initial;
  Engine.load e initial;
  check_engine_matches_graph "after load" e g;
  (* delete one value of the multi-valued (s1, p1) cell *)
  let u1 = Sparql.Parser.parse_update "DELETE DATA { <s1> <p1> <o2> }" in
  Engine.update e u1;
  Sparql.Ref_eval.apply_update g u1;
  check_engine_matches_graph "multi-valued element deleted" e g;
  (* delete a predicate that lives in a spill row *)
  let u2 = Sparql.Parser.parse_update "DELETE DATA { <s1> <p6> <o1> }" in
  Engine.update e u2;
  Sparql.Ref_eval.apply_update g u2;
  check_engine_matches_graph "spilled slot deleted" e g;
  (* DELETE WHERE wipes the remaining multi-valued cell *)
  let u3 = Sparql.Parser.parse_update "DELETE WHERE { <s1> <p1> ?o }" in
  Engine.update e u3;
  Sparql.Ref_eval.apply_update g u3;
  check_engine_matches_graph "DELETE WHERE on multi-valued cell" e g

(** INSERT DATA forcing dictionary growth and a fresh predicate slot
    (new coloring/lid on an already-full row). *)
let test_engine_insert_new_slot () =
  let g = Rdf.Graph.create () in
  let e = Engine.create ~layout:(Layout.make ~dph_cols:2 ~rph_cols:2) () in
  let initial = List.map triple [ (1, 1, 1); (1, 2, 1) ] in
  List.iter (Rdf.Graph.add g) initial;
  Engine.load e initial;
  (* both columns of s1's row are occupied; the fresh predicate must be
     placed in a spill row, and the fresh IRIs must grow the dictionary *)
  Engine.update_string e
    "INSERT DATA { <s1> <brand-new-pred> <brand-new-obj> . \
                   <brand-new-subj> <p1> \"42\" }";
  Sparql.Ref_eval.apply_update g
    (Sparql.Parser.parse_update
       "INSERT DATA { <s1> <brand-new-pred> <brand-new-obj> . \
                      <brand-new-subj> <p1> \"42\" }");
  check_engine_matches_graph "fresh predicate and subject inserted" e g;
  (* the same (s, p) again: multi-value path on the freshly made slot *)
  Engine.update_string e "INSERT DATA { <s1> <brand-new-pred> <o9> }";
  Sparql.Ref_eval.apply_update g
    (Sparql.Parser.parse_update "INSERT DATA { <s1> <brand-new-pred> <o9> }");
  check_engine_matches_graph "fresh slot turned multi-valued" e g

(** Boxed ≡ compressed equality over the full update matrix:
    insert / delete / DELETE WHERE on spilled and multi-valued slots,
    across (boxed | compressed) × (domains 1 | 4) × (wide | narrow
    layout), with compressed engines checked both {e pre-merge} (writes
    still resident in the boxed delta side of the packed tables) and
    {e post-merge} (after [Engine.merge] folds every delta back into a
    fresh packed main). *)
let test_engine_update_matrix () =
  let initial =
    List.map triple
      [ (1, 1, 1); (1, 1, 2); (1, 2, 1); (1, 3, 1); (1, 4, 1); (2, 2, 1);
        (3, 1, 2); (4, 3, 4) ]
  in
  (* s1 carries four distinct predicates: under the narrow layout the
     row spills, p1 is multi-valued, and the script below inserts a
     fresh predicate on s1 (forced into a spill row) that immediately
     turns multi-valued, then deletes from both. *)
  let script =
    "INSERT DATA { <s5> <p9> <o1> . <s5> <p10> \"x\" } ;\n\
     DELETE DATA { <s1> <p1> <o2> } ;\n\
     INSERT DATA { <s1> <p1> <o9> . <s1> <p1> <o10> } ;\n\
     INSERT DATA { <s1> <p6> <o1> . <s1> <p6> <o2> } ;\n\
     DELETE DATA { <s1> <p6> <o1> . <s1> <p4> <o1> } ;\n\
     DELETE WHERE { <s2> ?p ?o } ;\n\
     DELETE WHERE { ?s <p1> <o2> }"
  in
  let updates =
    List.filter_map
      (function Sparql.Ast.S_update u -> Some u | Sparql.Ast.S_query _ -> None)
      (Sparql.Parser.parse_script script)
  in
  let g = Rdf.Graph.create () in
  List.iter (Rdf.Graph.add g) initial;
  List.iter (Sparql.Ref_eval.apply_update g) updates;
  List.iter
    (fun ((compress, parallelism), cols) ->
      let options = { Engine.default_options with compress; parallelism } in
      let e =
        Engine.create ~options
          ~layout:(Layout.make ~dph_cols:cols ~rph_cols:cols) ()
      in
      Engine.load e initial;
      List.iter (Engine.update e) updates;
      let tag =
        Printf.sprintf "compress=%b domains=%d cols=%d" compress parallelism
          cols
      in
      if compress then begin
        let db = Loader.database (Engine.loader e) in
        let pending =
          List.fold_left
            (fun acc n ->
              let t = Relsql.Database.find_exn db n in
              acc + Relsql.Table.delta_rows t + Relsql.Table.main_tombstones t)
            0
            (Relsql.Database.table_names db)
        in
        Alcotest.(check bool) (tag ^ ": writes are delta-resident") true
          (pending > 0);
        check_engine_matches_graph (tag ^ " pre-merge") e g;
        ignore (Engine.merge e);
        check_engine_matches_graph (tag ^ " post-merge") e g
      end
      else check_engine_matches_graph tag e g)
    (List.concat_map
       (fun cfg -> [ (cfg, 3); (cfg, 2) ])
       [ (false, 1); (false, 4); (true, 1); (true, 4) ])

(** Regression: a compressed update must NOT re-encode the packed
    table — the delete punches a tombstone (or lands delta-side) while
    the packed main stays resident, and the eager [Engine.merge] folds
    the pending writes back in. *)
let test_engine_compressed_update_refreezes () =
  let options = { Engine.default_options with compress = true } in
  let e =
    Engine.create ~options ~layout:(Layout.make ~dph_cols:3 ~rph_cols:3) ()
  in
  Engine.load e (List.map triple [ (1, 1, 1); (1, 2, 2); (2, 1, 3) ]);
  let db = Loader.database (Engine.loader e) in
  let dph = Relsql.Database.find_exn db "DPH" in
  Alcotest.(check bool) "DPH packed after load" true (Relsql.Table.frozen dph);
  let merges0 = Relsql.Table.merge_count dph in
  Engine.update_string e "DELETE DATA { <s1> <p1> <o1> }";
  Alcotest.(check bool) "DPH still packed after update" true
    (Relsql.Table.frozen dph);
  Alcotest.(check int) "no re-encode: the write stayed delta-resident" merges0
    (Relsql.Table.merge_count dph);
  Alcotest.(check bool) "write is visible in the delta accounting" true
    (Relsql.Table.delta_rows dph + Relsql.Table.main_tombstones dph > 0);
  let r = Engine.query e dump_q in
  Alcotest.(check int) "two triples left" 2
    (List.length r.Sparql.Ref_eval.rows);
  (* Eager compaction folds the delta back in without changing rows. *)
  Alcotest.(check bool) "merge compacts at least one table" true
    (Engine.merge e > 0);
  Alcotest.(check int) "DPH delta empty after merge" 0
    (Relsql.Table.delta_rows dph + Relsql.Table.main_tombstones dph);
  Alcotest.(check bool) "merge counted" true
    (Relsql.Table.merge_count dph > merges0);
  let r = Engine.query e dump_q in
  Alcotest.(check int) "still two triples after merge" 2
    (List.length r.Sparql.Ref_eval.rows)

(** Regression: the triple and vertical baselines apply the engine's
    merge policy after every write statement under [compress], so no
    table's pending delta (rows plus main tombstones) ever outgrows the
    shared bound — before, their write epilogue only packed
    never-packed tables, and deltas grew without bound. *)
let test_baseline_stores_merge_under_compress () =
  let initial =
    List.init 180 (fun i -> triple (i, i mod 3, i + 1000))
  in
  let statements =
    List.init 200 (fun i ->
        if i mod 4 = 3 then
          Printf.sprintf "DELETE DATA { <s%d> <p%d> <o%d> }" (i - 3)
            ((i - 3) mod 3) (i - 3)
        else
          Printf.sprintf "INSERT DATA { <s%d> <p%d> <o%d> }" i (i mod 3) i)
  in
  let merges db =
    List.fold_left
      (fun acc n ->
        acc + Relsql.Table.merge_count (Relsql.Database.find_exn db n))
      0
      (Relsql.Database.table_names db)
  in
  let check name db (store : Store.t) =
    let loaded = merges db in
    List.iteri
      (fun i src ->
        store.Store.update (Sparql.Parser.parse_update src);
        store.Store.check ();
        List.iter
          (fun n ->
            let t = Relsql.Database.find_exn db n in
            if Relsql.Table.merge_due t then
              Alcotest.failf
                "%s stmt %d: %s holds %d delta rows + %d main tombstones \
                 over a main of %d"
                name i n (Relsql.Table.delta_rows t)
                (Relsql.Table.main_tombstones t) (Relsql.Table.main_slots t))
          (Relsql.Database.table_names db))
      statements;
    Alcotest.(check bool) (name ^ ": writes merged") true (merges db > loaded)
  in
  let ts = Triple_store.create ~compress:true () in
  Triple_store.load ts initial;
  check "TripleStore" ts.Triple_store.db (Triple_store.to_store ts);
  let vs = Vertical_store.create ~compress:true () in
  Vertical_store.load vs initial;
  check "VertStore" vs.Vertical_store.db (Vertical_store.to_store vs)

let test_stats_unrecord () =
  let stats = Dataset_stats.create () in
  Dataset_stats.record stats ~s:1 ~p:2 ~o:3;
  Dataset_stats.record stats ~s:1 ~p:2 ~o:4;
  Dataset_stats.unrecord stats ~s:1 ~p:2 ~o:3;
  Alcotest.(check int) "total" 1 (Dataset_stats.total stats);
  Alcotest.(check (option int)) "subject count" (Some 1)
    (Dataset_stats.subject_frequency stats 1);
  Alcotest.(check (option int)) "object gone" None
    (Dataset_stats.object_frequency stats 3)

let suite =
  [ Alcotest.test_case "graph remove" `Quick test_graph_remove;
    Alcotest.test_case "table delete_row" `Quick test_table_delete_row;
    Alcotest.test_case "loader delete (single-valued)" `Quick
      test_loader_delete_single_valued;
    Alcotest.test_case "loader delete (multi-valued)" `Quick
      test_loader_delete_multivalued;
    Alcotest.test_case "stats unrecord" `Quick test_stats_unrecord;
    Alcotest.test_case "engine: delete spilled/multi-valued" `Quick
      test_engine_delete_spilled_multivalued;
    Alcotest.test_case "engine: insert forces new slot" `Quick
      test_engine_insert_new_slot;
    Alcotest.test_case
      "engine: update matrix (boxed/compressed × domains × pre/post-merge)"
      `Quick test_engine_update_matrix;
    Alcotest.test_case "engine: compressed update stays delta-resident" `Quick
      test_engine_compressed_update_refreezes;
    Alcotest.test_case "triple/vertical stores merge deltas under compress"
      `Quick test_baseline_stores_merge_under_compress;
    QCheck_alcotest.to_alcotest delete_equivalence ]
