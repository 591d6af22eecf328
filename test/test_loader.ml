(** Tests for the DB2RDF loader: placement, spills, multi-value
    indirection, and full round-trip of the stored data. *)

open Db2rdf

let small_layout = Layout.make ~dph_cols:4 ~rph_cols:4

(** Reconstruct the triple set from the DPH/DS relations by scanning. *)
let triples_from_dph store : (int * int * int) list =
  let db = Loader.database store in
  let dph = Relsql.Database.find_exn db "DPH" in
  let ds = Relsql.Database.find_exn db "DS" in
  let k = Loader.column_count store Loader.Direct in
  let schema = Relsql.Table.schema dph in
  let pos = Layout.positions schema k in
  let ds_values lid =
    List.filter_map
      (fun rid ->
        match Relsql.Table.get ds rid with
        | [| _; Relsql.Value.Int o |] -> Some o
        | _ -> None)
      (Array.to_list (Relsql.Table.lookup ds 0 (Relsql.Value.Lid lid)))
  in
  Relsql.Table.fold
    (fun acc _ row ->
      let s =
        match row.(pos.Layout.entry_pos) with
        | Relsql.Value.Int s -> s
        | _ -> failwith "bad entry"
      in
      let acc = ref acc in
      for c = 0 to k - 1 do
        match row.(pos.Layout.pred_pos.(c)) with
        | Relsql.Value.Int p ->
          (match row.(pos.Layout.val_pos.(c)) with
           | Relsql.Value.Int o -> acc := (s, p, o) :: !acc
           | Relsql.Value.Lid lid ->
             List.iter (fun o -> acc := (s, p, o) :: !acc) (ds_values lid)
           | _ -> failwith "bad val")
        | Relsql.Value.Null -> ()
        | _ -> failwith "bad pred"
      done;
      !acc)
    [] dph

let ids_of_triples store triples =
  let dict = Loader.dictionary store in
  List.map
    (fun (tr : Rdf.Triple.t) ->
      ( Option.get (Rdf.Dictionary.find dict tr.s),
        Option.get (Rdf.Dictionary.find dict tr.p),
        Option.get (Rdf.Dictionary.find dict tr.o) ))
    triples

let test_roundtrip_fig1 () =
  let triples = Helpers.fig1_triples () in
  let store = Loader.create ~layout:small_layout () in
  Loader.load store triples;
  let stored = List.sort_uniq compare (triples_from_dph store) in
  let expected = List.sort_uniq compare (ids_of_triples store triples) in
  Alcotest.(check int) "same count" (List.length expected) (List.length stored);
  Alcotest.(check bool) "same set" true (stored = expected)

let test_multivalued_registry () =
  let triples = Helpers.fig1_triples () in
  let store = Loader.create ~layout:small_layout () in
  Loader.load store triples;
  let dict = Loader.dictionary store in
  let pid name = Option.get (Rdf.Dictionary.find dict (Rdf.Term.iri name)) in
  Alcotest.(check bool) "industry is multi-valued (direct)" true
    (Loader.is_multivalued store Loader.Direct ~pred_id:(pid "industry"));
  Alcotest.(check bool) "born is single-valued (direct)" false
    (Loader.is_multivalued store Loader.Direct ~pred_id:(pid "born"));
  (* reverse side: founder into Google from two subjects? no — one each;
     but industry "Software" has two incoming industry edges. *)
  Alcotest.(check bool) "industry multi-valued (reverse)" true
    (Loader.is_multivalued store Loader.Reverse ~pred_id:(pid "industry"))

let test_dedup () =
  let store = Loader.create ~layout:small_layout () in
  let t = Rdf.Triple.spo "s" "p" (Rdf.Term.lit "o") in
  Loader.insert store t;
  Loader.insert store t;
  Alcotest.(check int) "loaded once" 1 (Loader.triples_loaded store);
  Alcotest.(check int) "one DPH tuple" 1 (Loader.report store Loader.Direct).Loader.rows

let test_spill_rows_marked () =
  (* Force spills: 1-column layout, subject with 3 distinct predicates. *)
  let layout = Layout.make ~dph_cols:1 ~rph_cols:4 in
  let store =
    Loader.create ~layout ~direct_map:(Pred_map.hashed ~m:1 ~seed:1) ()
  in
  let s = Rdf.Term.iri "s" in
  List.iter
    (fun p -> Loader.insert store (Rdf.Triple.make s (Rdf.Term.iri p) (Rdf.Term.lit p)))
    [ "p1"; "p2"; "p3" ];
  let report = Loader.report store Loader.Direct in
  Alcotest.(check int) "3 rows" 3 report.Loader.rows;
  Alcotest.(check int) "2 spills" 2 report.Loader.spills;
  (* All rows of a spilled entity carry spill = 1. *)
  let dph = Relsql.Database.find_exn (Loader.database store) "DPH" in
  Relsql.Table.iter
    (fun _ row ->
      Alcotest.(check bool) "spill flag" true
        (Relsql.Value.equal row.(1) (Relsql.Value.Int 1)))
    dph;
  (* Spilled predicates are registered; queries still answer. *)
  let dict = Loader.dictionary store in
  let spilled =
    List.filter
      (fun p ->
        Loader.is_spill_involved store Loader.Direct
          ~pred_id:(Option.get (Rdf.Dictionary.find dict (Rdf.Term.iri p))))
      [ "p1"; "p2"; "p3" ]
  in
  Alcotest.(check int) "two spill-involved predicates" 2 (List.length spilled)

let test_null_fraction_and_storage () =
  let triples = Helpers.fig1_triples () in
  let store = Loader.create ~layout:(Layout.make ~dph_cols:8 ~rph_cols:8) () in
  Loader.load store triples;
  let r = Loader.report store Loader.Direct in
  Alcotest.(check bool) "nulls present" true (r.Loader.null_fraction > 0.0);
  Alcotest.(check bool) "storage accounted" true (r.Loader.storage_bytes > 0)

let test_candidate_columns_respect_map () =
  let store = Loader.create ~layout:small_layout () in
  let cands = Loader.candidate_columns store Loader.Direct ~pred_term:(Rdf.Term.iri "p") in
  Alcotest.(check bool) "within layout" true
    (List.for_all (fun c -> c >= 0 && c < 4) cands)

(* Property: round-trip holds for random data under tight layouts
   (heavy spilling) and wide layouts alike, on both sides. *)
let roundtrip_random =
  QCheck.Test.make ~name:"loader round-trip under random data/layout" ~count:40
    QCheck.(
      make
        Gen.(
          pair (int_range 1 6)
            (list_size (int_range 1 150)
               (triple (int_range 0 25) (int_range 0 12) (int_range 0 25)))))
    (fun (k, specs) ->
      let term pfx i = Rdf.Term.iri (Printf.sprintf "%s%d" pfx i) in
      let triples =
        List.map
          (fun (s, p, o) -> Rdf.Triple.make (term "s" s) (term "p" p) (term "o" o))
          specs
      in
      let store = Loader.create ~layout:(Layout.make ~dph_cols:k ~rph_cols:k) () in
      Loader.load store triples;
      let stored = List.sort_uniq compare (triples_from_dph store) in
      let expected = List.sort_uniq compare (ids_of_triples store triples) in
      stored = expected)

(* ------------------------------------------------------------------ *)
(* Loader.check: structural invariants after load and writes           *)
(* ------------------------------------------------------------------ *)

(* Build a colored engine over [triples] with a narrow layout (so even
   small graphs hit hash conflicts, spill rows and lid indirection) and
   require its checks — every table's storage and {!Loader.check} — to
   pass after the bulk load, after deleting every third triple one by
   one (up to 40), and after inserting them again. Returns the engine. *)
let check_load ?(k = 4) name triples =
  let e, _, _ =
    Engine.create_colored ~layout:(Layout.make ~dph_cols:k ~rph_cols:k) triples
  in
  let store = Engine.to_store e in
  let check what =
    match store.Store.check () with
    | () -> ()
    | exception Failure msg -> Alcotest.failf "%s, %s: %s" name what msg
  in
  check "after load";
  let victims =
    List.filteri (fun i _ -> i mod 3 = 0 && i < 120) triples
  in
  List.iteri
    (fun i tr ->
      Engine.delete e tr;
      check (Printf.sprintf "after delete %d" i))
    victims;
  List.iteri
    (fun i tr ->
      Engine.insert e tr;
      check (Printf.sprintf "after re-insert %d" i))
    victims;
  Alcotest.(check int) (name ^ ": every distinct triple is back")
    (List.length (List.sort_uniq compare triples))
    (Loader.triples_loaded (Engine.loader e));
  e

(* The examples/ dataset: the paper's Figure 1(a) graph, multi-valued
   [industry] included. *)
let test_check_fig1 () = ignore (check_load "fig1" (Helpers.fig1_triples ()))

(* Three Gen_graph graphs (the fuzzer's generator: hash conflicts,
   multi-valued bursts, unicode literals) at three sizes. *)
let test_check_generated () =
  List.iter
    (fun (seed, size) ->
      let st = Random.State.make [| seed |] in
      let triples, _ = Fuzz.Gen_graph.generate ~size st in
      ignore (check_load (Printf.sprintf "gen(seed=%d,n=%d)" seed size) triples))
    [ (11, 60); (22, 150); (33, 400) ]

(* A generated workload through the narrowest layout that still colors:
   heavy spilling on both sides. *)
let test_check_spill_heavy () =
  let e = check_load ~k:2 "micro-k2" (Workloads.Micro.generate ~scale:600) in
  Alcotest.(check bool) "the layout spills" true
    ((Loader.report (Engine.loader e) Loader.Direct).Loader.spills > 0)

(* One small vocabulary repeated 40 times: each term is interned once
   and the duplicate triples are dropped. *)
let test_check_duplicate_terms () =
  let block =
    List.map
      (fun (s, p, o) -> Rdf.Triple.spo s p (Rdf.Term.iri o))
      [ ("s1", "p1", "o1"); ("s2", "p1", "o2"); ("s1", "p2", "o1");
        ("s2", "p2", "o2"); ("s3", "p3", "o3") ]
  in
  let e = check_load "dup" (List.concat (List.init 40 (fun _ -> block))) in
  let l = Engine.loader e in
  Alcotest.(check int) "only distinct triples loaded" 5 (Loader.triples_loaded l);
  Alcotest.(check int) "dictionary holds each term once" 9
    (Rdf.Dictionary.size (Loader.dictionary l))

(* The empty store and one- to seven-triple stores (a single entity
   with several predicates). *)
let test_check_empty_and_tiny () =
  let e = check_load "empty" [] in
  Alcotest.(check int) "empty load loads nothing" 0
    (Loader.triples_loaded (Engine.loader e));
  List.iter
    (fun n ->
      ignore
        (check_load (Printf.sprintf "%d-triple" n)
           (List.init n (fun i ->
                Rdf.Triple.spo "s" (Printf.sprintf "p%d" i) (Rdf.Term.int_lit i)))))
    [ 1; 2; 3; 7 ]

(* Unicode terms, raw UTF-8 and \uXXXX escapes through the N-Triples
   parser: the escaped and raw spellings are one term, and the DICT
   relation renders each the way the dictionary does. *)
let test_check_unicode () =
  let escaped = ref [] in
  Rdf.Ntriples.parse_string
    (fun t -> escaped := t :: !escaped)
    "<s1> <p1> \"caf\\u00e9\" .\n\
     <s2> <p1> \"\\u2603 snowman\" .\n\
     <s1> <p2> \"caf\\u00E9\"@fr .\n";
  let raw =
    [ Rdf.Triple.spo "s3" "p1" (Rdf.Term.lit "caf\xc3\xa9");
      Rdf.Triple.spo "s3" "p2" (Rdf.Term.lang_lit "caf\xc3\xa9" "fr");
      Rdf.Triple.spo "s4" "p1" (Rdf.Term.lit "\xe2\x98\x83 snowman") ]
  in
  let triples = List.concat (List.init 12 (fun _ -> List.rev !escaped @ raw)) in
  let e = check_load "unicode" triples in
  Alcotest.(check bool) "escaped and raw café unify" true
    (Rdf.Dictionary.mem (Loader.dictionary (Engine.loader e))
       (Rdf.Term.lit "caf\xc3\xa9"))

(* Multi-valued predicates on both sides, interleaved so lid
   allocations alternate between DS and RS. *)
let test_check_interleaved_lids () =
  let direct_mv =
    List.init 10 (fun i ->
        Rdf.Triple.spo "hub" "likes" (Rdf.Term.iri (Printf.sprintf "t%d" i)))
  in
  let reverse_mv =
    List.init 10 (fun i ->
        Rdf.Triple.spo (Printf.sprintf "f%d" i) "member" (Rdf.Term.iri "group"))
  in
  let rec interleave = function
    | x :: xs, y :: ys -> x :: y :: interleave (xs, ys)
    | [], rest | rest, [] -> rest
  in
  let e = check_load "lids" (interleave (direct_mv, reverse_mv)) in
  let l = Engine.loader e in
  let pid name =
    Option.get (Rdf.Dictionary.find (Loader.dictionary l) (Rdf.Term.iri name))
  in
  Alcotest.(check (list int)) "likes multi-valued on direct side"
    [ pid "likes" ] (Loader.multivalued_predicates l Loader.Direct);
  Alcotest.(check (list int)) "member multi-valued on reverse side"
    [ pid "member" ] (Loader.multivalued_predicates l Loader.Reverse)

(* Mutations: a store that {!Loader.check} accepts, corrupted by hand
   behind the loader's back, must be rejected. *)
let check_rejects what l =
  match Loader.check l with
  | () -> Alcotest.failf "Loader.check accepted %s" what
  | exception Failure _ -> ()

let test_check_rejects_spill_flag () =
  let l = Loader.create ~layout:small_layout () in
  Loader.load l (Helpers.fig1_triples ());
  Loader.check l;
  let dph = Relsql.Database.find_exn (Loader.database l) "DPH" in
  let pos = Layout.positions (Relsql.Table.schema dph) 4 in
  (* fig1 under four columns has single-row entities: flag one spilled. *)
  let rid =
    Relsql.Table.fold
      (fun acc rid row ->
        match acc with
        | Some _ -> acc
        | None ->
          if row.(pos.Layout.spill_pos) = Relsql.Value.Int 0 then Some rid
          else None)
      None dph
  in
  match rid with
  | None -> Alcotest.fail "no unspilled DPH row in fig1"
  | Some rid ->
    ignore (Relsql.Table.set_cell dph rid pos.Layout.spill_pos (Relsql.Value.Int 1));
    check_rejects "a spill flag on a one-row entity" l

let test_check_rejects_orphan_lid () =
  let l = Loader.create ~layout:small_layout () in
  Loader.load l (Helpers.fig1_triples ());
  Loader.check l;
  let ds = Relsql.Database.find_exn (Loader.database l) "DS" in
  ignore (Relsql.Table.insert ds [| Relsql.Value.Lid 0x7fff; Relsql.Value.Int 0 |]);
  check_rejects "a DS row no DPH cell references" l

(* Property: {!Loader.check} holds on random graphs and layouts (the
   same generator as the round-trip property, so heavy spilling is
   covered). *)
let check_random =
  QCheck.Test.make ~name:"Loader.check holds on random graphs" ~count:40
    QCheck.(
      make
        Gen.(
          pair (int_range 1 6)
            (list_size (int_range 1 150)
               (triple (int_range 0 25) (int_range 0 12) (int_range 0 25)))))
    (fun (k, specs) ->
      let term pfx i = Rdf.Term.iri (Printf.sprintf "%s%d" pfx i) in
      let triples =
        List.map
          (fun (s, p, o) -> Rdf.Triple.make (term "s" s) (term "p" p) (term "o" o))
          specs
      in
      let l = Loader.create ~layout:(Layout.make ~dph_cols:k ~rph_cols:k) () in
      Loader.load l triples;
      Loader.check l;
      true)

(* ------------------------------------------------------------------ *)
(* Differential update fuzz: Loader.check after every statement        *)
(* ------------------------------------------------------------------ *)

(** Fixed-seed update-script sweep: random INSERT DATA / DELETE DATA /
    DELETE WHERE statements, after each of which every DB2RDF backend
    passes {!Loader.check} (through its store [check]) and matches the
    reference graph. *)
let test_update_fuzz_sweep_check () =
  let config =
    { Fuzz.Runner.default_config with seed = 2024; cases = 200; updates = true }
  in
  let s = Fuzz.Runner.fuzz config in
  Alcotest.(check int) "no divergences" 0 s.Fuzz.Runner.divergent;
  Alcotest.(check int) "all cases ran" 200 s.Fuzz.Runner.cases_run

let suite =
  [ Alcotest.test_case "round-trip fig1" `Quick test_roundtrip_fig1;
    Alcotest.test_case "multi-valued registry" `Quick test_multivalued_registry;
    Alcotest.test_case "duplicate triples ignored" `Quick test_dedup;
    Alcotest.test_case "spill rows marked" `Quick test_spill_rows_marked;
    Alcotest.test_case "null fraction / storage" `Quick test_null_fraction_and_storage;
    Alcotest.test_case "candidate columns" `Quick test_candidate_columns_respect_map;
    QCheck_alcotest.to_alcotest roundtrip_random;
    Alcotest.test_case "check: fig1" `Quick test_check_fig1;
    Alcotest.test_case "check: generated graphs" `Quick test_check_generated;
    Alcotest.test_case "check: spill-heavy workload" `Quick
      test_check_spill_heavy;
    Alcotest.test_case "check: duplicate terms" `Quick
      test_check_duplicate_terms;
    Alcotest.test_case "check: empty and tiny inputs" `Quick
      test_check_empty_and_tiny;
    Alcotest.test_case "check: unicode terms" `Quick test_check_unicode;
    Alcotest.test_case "check: interleaved multi-valued lids" `Quick
      test_check_interleaved_lids;
    Alcotest.test_case "check rejects a corrupted spill flag" `Quick
      test_check_rejects_spill_flag;
    Alcotest.test_case "check rejects an orphaned lid" `Quick
      test_check_rejects_orphan_lid;
    QCheck_alcotest.to_alcotest check_random;
    Alcotest.test_case "update fuzz sweep with Loader.check" `Slow
      test_update_fuzz_sweep_check ]
