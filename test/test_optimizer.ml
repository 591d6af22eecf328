(** Tests for the hybrid optimizer: cost model (Def 3.1), data flow
    graph (Defs 3.2–3.8, Figure 8), greedy optimal flow tree (Figure 9),
    execution tree with late fusing (Figure 10) and star merging
    (Figure 11). *)

open Db2rdf

let fig6_setup () =
  let triples = Helpers.fig1_triples () in
  let store = Loader.create ~layout:(Layout.make ~dph_cols:6 ~rph_cols:6) () in
  Loader.load store triples;
  let q = Sparql.Parser.parse Helpers.fig6_query_src in
  let pt = Sparql.Pattern_tree.of_query q in
  (store, q, pt)

(* Triple ids in parse order for the Figure 6 query:
   t0 = (?x home "Palo Alto")     [paper's t1]
   t1 = (?x founder ?y)           [t2]
   t2 = (?x member ?y)            [t3]
   t3 = (?y industry "Software")  [t4]
   t4 = (?z developer ?y)         [t5]
   t5 = (?y revenue ?n)           [t6]
   t6 = (?y employees ?m)         [t7] *)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_tmc () =
  let store, _, pt = fig6_setup () in
  let stats = Loader.stats store and dict = Loader.dictionary store in
  let pat i = (Sparql.Pattern_tree.triple pt i).Sparql.Pattern_tree.pat in
  (* Scan costs the whole dataset. *)
  Alcotest.(check (float 0.001)) "sc = total" 21.0 (Cost.tmc stats dict (pat 3) Cost.Sc);
  (* aco on the "Software" constant is its exact frequency (2). *)
  Alcotest.(check (float 0.001)) "aco exact" 2.0 (Cost.tmc stats dict (pat 3) Cost.Aco);
  (* acs with variable subject costs the predicate's subject fan-out
     ("home" is single-valued: 1 triple per subject). *)
  let acs = Cost.tmc stats dict (pat 0) Cost.Acs in
  Alcotest.(check (float 0.001)) "acs per-predicate fan-out" 1.0 acs;
  (* per-predicate averages: "industry" has 5 triples over 2 subjects
     and 4 distinct objects. *)
  let industry = Option.get (Rdf.Dictionary.find dict (Rdf.Term.iri "industry")) in
  Alcotest.(check (float 0.001)) "industry per-subject" 2.5
    (Dataset_stats.avg_per_subject_of_pred stats industry);
  Alcotest.(check (float 0.001)) "industry per-object" 1.25
    (Dataset_stats.avg_per_object_of_pred stats industry);
  (* aco on an unknown constant is cheap (empty). *)
  let q2 = Sparql.Parser.parse "SELECT ?x WHERE { ?x <founder> <Nowhere> }" in
  let pt2 = Sparql.Pattern_tree.of_query q2 in
  let p2 = (Sparql.Pattern_tree.triple pt2 0).Sparql.Pattern_tree.pat in
  Alcotest.(check (float 0.001)) "unknown const" 1.0 (Cost.tmc stats dict p2 Cost.Aco)

let test_produced_required () =
  let _, _, pt = fig6_setup () in
  let pat i = (Sparql.Pattern_tree.triple pt i).Sparql.Pattern_tree.pat in
  let vs set = Sparql.Ast.VarSet.elements set in
  (* t3 = (?y industry "Software"): aco requires nothing, produces y. *)
  Alcotest.(check (list string)) "P(t4,aco)" [ "y" ] (vs (Dataflow.produced (pat 3) Cost.Aco));
  Alcotest.(check (list string)) "R(t4,aco)" [] (vs (Dataflow.required (pat 3) Cost.Aco));
  (* t4 = (?z developer ?y): aco requires y, produces z. *)
  Alcotest.(check (list string)) "R(t5,aco)" [ "y" ] (vs (Dataflow.required (pat 4) Cost.Aco));
  Alcotest.(check (list string)) "P(t5,aco)" [ "z" ] (vs (Dataflow.produced (pat 4) Cost.Aco));
  (* scans require nothing and produce everything. *)
  Alcotest.(check (list string)) "R(t5,sc)" [] (vs (Dataflow.required (pat 4) Cost.Sc));
  Alcotest.(check (list string)) "P(t5,sc)" [ "y"; "z" ] (vs (Dataflow.produced (pat 4) Cost.Sc))

(* ------------------------------------------------------------------ *)
(* Data flow graph (Figure 8)                                          *)
(* ------------------------------------------------------------------ *)

let edge_exists g ~src ~dst =
  let node (m, t) = { Dataflow.triple = t; meth = m } in
  Dataflow.has_edge g (Option.map (fun m -> node (m, snd src)) (fst src)) (node dst)

let test_dataflow_graph () =
  let store, _, pt = fig6_setup () in
  let g = Dataflow.build pt (Loader.stats store) (Loader.dictionary store) in
  (* root -> (t4, aco): constant object, no requirements. *)
  Alcotest.(check bool) "root->(t3,aco)" true
    (edge_exists g ~src:(None, -1) ~dst:(Cost.Aco, 3));
  (* (t4, aco) -> (t2, aco): t4 produces y, t2 requires y via aco. *)
  Alcotest.(check bool) "(t3,aco)->(t1,aco)" true
    (edge_exists g ~src:(Some Cost.Aco, 3) ~dst:(Cost.Aco, 1));
  (* (t2, aco) -> (t1, acs): t2 produces x, t1 requires x. *)
  Alcotest.(check bool) "(t1,aco)->(t0,acs)" true
    (edge_exists g ~src:(Some Cost.Aco, 1) ~dst:(Cost.Acs, 0));
  (* OR-connected triples have no edges between them. *)
  Alcotest.(check bool) "no edge founder->member" false
    (edge_exists g ~src:(Some Cost.Aco, 1) ~dst:(Cost.Acs, 2));
  (* No flow out of the OPTIONAL triple into its mandatory context. *)
  Alcotest.(check bool) "no edge employees->revenue" false
    (edge_exists g ~src:(Some Cost.Acs, 6) ~dst:(Cost.Acs, 5));
  (* ...but flow into the OPTIONAL is allowed. *)
  Alcotest.(check bool) "edge industry->employees" true
    (edge_exists g ~src:(Some Cost.Aco, 3) ~dst:(Cost.Acs, 6))

let test_optimal_flow () =
  let store, _, pt = fig6_setup () in
  let g, flow =
    Dataflow.compute pt (Loader.stats store) (Loader.dictionary store)
  in
  ignore g;
  (* Covers each triple exactly once. *)
  Alcotest.(check int) "7 nodes" 7 (List.length flow.Dataflow.order);
  let triples = List.map (fun n -> n.Dataflow.triple) flow.Dataflow.order in
  Alcotest.(check (list int)) "each triple once" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.sort compare triples);
  (* The flow root is a constant-object access — either "Palo Alto"
     (t0, frequency 1) or "Software" (t3, frequency 2); the paper's
     bounded top-k statistics pick t3, exact counts pick t0. *)
  let root = (List.hd flow.Dataflow.order).Dataflow.triple in
  Alcotest.(check bool) "root is a constant aco access" true
    (List.mem root [ 0; 3 ] && flow.Dataflow.method_of.(root) = Cost.Aco);
  (* Every non-root node's flow parent precedes it. *)
  Array.iteri
    (fun tid parent ->
      match parent with
      | None -> ()
      | Some (p : Dataflow.node) ->
        Alcotest.(check bool) "parent precedes child" true
          (flow.Dataflow.pos_of.(p.Dataflow.triple) < flow.Dataflow.pos_of.(tid)))
    flow.Dataflow.parent_of;
  (* Positions are consistent with order. *)
  List.iteri
    (fun i n -> Alcotest.(check int) "pos" i flow.Dataflow.pos_of.(n.Dataflow.triple))
    flow.Dataflow.order

let test_worst_flow_differs () =
  let store, _, pt = fig6_setup () in
  let _, best = Dataflow.compute ~objective:Dataflow.Best pt (Loader.stats store) (Loader.dictionary store) in
  let _, worst = Dataflow.compute ~objective:Dataflow.Worst pt (Loader.stats store) (Loader.dictionary store) in
  Alcotest.(check bool) "different starting point" true
    ((List.hd best.Dataflow.order) <> (List.hd worst.Dataflow.order))

(* ------------------------------------------------------------------ *)
(* Execution tree (Figure 10)                                          *)
(* ------------------------------------------------------------------ *)

let test_exec_tree_fig10 () =
  let store, _, pt = fig6_setup () in
  let _, flow = Dataflow.compute pt (Loader.stats store) (Loader.dictionary store) in
  let t = Exec_tree.build pt flow in
  (* Every triple exactly once. *)
  Alcotest.(check (list int)) "coverage" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.sort compare (Exec_tree.triples_of t));
  (* Shape: OPT at the root (employees last), t3 evaluated first, the
     OR of founder/member next, then the home filter triple — the
     Figure 10 weave. *)
  (match t with
   | Exec_tree.Opt (main, Exec_tree.Leaf (6, _)) ->
     let rec leftmost = function
       | Exec_tree.Leaf (tid, _) -> tid
       | Exec_tree.And (a, _) | Exec_tree.Opt (a, _) -> leftmost a
       | Exec_tree.Or (p :: _) -> leftmost p
       | Exec_tree.Or [] | Exec_tree.Unit -> -1
     in
     Alcotest.(check bool) "a selective constant access first" true
       (List.mem (leftmost main) [ 0; 3 ])
   | _ -> Alcotest.fail ("unexpected shape: " ^ Exec_tree.to_string pt t));
  (* Late fusing: the pure-filter triple t0 (home) fuses before the
     fresh-variable producers t4 (developer) and t5 (revenue). *)
  let order = ref [] in
  let rec collect = function
    | Exec_tree.Leaf (tid, _) -> order := tid :: !order
    | Exec_tree.And (a, b) | Exec_tree.Opt (a, b) ->
      collect a;
      collect b
    | Exec_tree.Or parts -> List.iter collect parts
    | Exec_tree.Unit -> ()
  in
  collect t;
  let order = List.rev !order in
  let pos tid = Option.get (List.find_index (Int.equal tid) order) in
  Alcotest.(check bool) "home before developer" true (pos 0 < pos 4);
  Alcotest.(check bool) "home before revenue" true (pos 0 < pos 5)

let test_exec_tree_syntactic () =
  let store, _, pt = fig6_setup () in
  let _, flow = Dataflow.compute pt (Loader.stats store) (Loader.dictionary store) in
  let t = Exec_tree.build_syntactic pt flow in
  Alcotest.(check (list int)) "coverage" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.sort compare (Exec_tree.triples_of t));
  (* Syntactic order starts at t0. *)
  let rec leftmost = function
    | Exec_tree.Leaf (tid, _) -> tid
    | Exec_tree.And (a, _) | Exec_tree.Opt (a, _) -> leftmost a
    | Exec_tree.Or (p :: _) -> leftmost p
    | Exec_tree.Or [] | Exec_tree.Unit -> -1
  in
  Alcotest.(check int) "t0 first" 0 (leftmost t)

(* ------------------------------------------------------------------ *)
(* Merging (Figure 11)                                                 *)
(* ------------------------------------------------------------------ *)

let merge_plan ?(merge = true) () =
  let store, q, pt = fig6_setup () in
  let e = Db2rdf.Engine.create ~layout:(Layout.make ~dph_cols:6 ~rph_cols:6) () in
  Db2rdf.Engine.load e (Helpers.fig1_triples ());
  ignore store;
  let options = { Engine.default_options with merge } in
  ignore options;
  let _, flow =
    Dataflow.compute pt (Loader.stats (Engine.loader e)) (Loader.dictionary (Engine.loader e))
  in
  let etree = Exec_tree.build pt flow in
  let ctx = Engine.merge_ctx e pt q in
  let ctx = { ctx with Merge.merging_enabled = merge } in
  (pt, Merge.of_exec ctx etree)

let rec stars = function
  | Merge.Node s -> [ s ]
  | Merge.P_and (a, b) | Merge.P_opt (a, b) -> stars a @ stars b
  | Merge.P_or parts -> List.concat_map stars parts
  | Merge.P_unit -> []

let test_merge_fig11 () =
  let _, plan = merge_plan () in
  let ss = stars plan in
  (* The OR of founder/member merges into one disjunctive star... *)
  Alcotest.(check bool) "or-star exists" true
    (List.exists
       (fun s ->
         s.Merge.sem = Merge.Any
         && List.sort compare s.Merge.star_triples = [ 1; 2 ])
       ss);
  (* ...and employees (t6) OPT-merges into the star of revenue (t5). *)
  Alcotest.(check bool) "opt-merge onto revenue star" true
    (List.exists
       (fun s ->
         List.mem 5 s.Merge.star_triples && s.Merge.opt_triples = [ 6 ])
       ss)

let test_merge_disabled () =
  let _, plan = merge_plan ~merge:false () in
  List.iter
    (fun s ->
      Alcotest.(check int) "singleton star"
        1
        (List.length s.Merge.star_triples + List.length s.Merge.opt_triples))
    (stars plan)

let test_merge_spill_veto () =
  (* A 1-column layout forces spills; star merging must be vetoed and
     answers must still be correct. *)
  let layout = Layout.make ~dph_cols:1 ~rph_cols:1 in
  let e =
    Engine.create ~layout
      ~direct_map:(Pred_map.hashed ~m:1 ~seed:1)
      ~reverse_map:(Pred_map.hashed ~m:1 ~seed:2) ()
  in
  let triples = Helpers.fig1_triples () in
  Engine.load e triples;
  let g = Helpers.oracle_of triples in
  let src = "SELECT ?s WHERE { ?s <industry> \"Software\" . ?s <employees> ?e . ?s <HQ> ?h }" in
  let q = Sparql.Parser.parse src in
  (* All three predicates spill somewhere; the plan must not merge. *)
  let pt = Sparql.Pattern_tree.of_query q in
  let _, flow = Dataflow.compute pt (Loader.stats (Engine.loader e)) (Loader.dictionary (Engine.loader e)) in
  let plan = Merge.of_exec (Engine.merge_ctx e pt q) (Exec_tree.build pt flow) in
  List.iter
    (fun s -> Alcotest.(check int) "no merged star under spills" 1
        (List.length s.Merge.star_triples + List.length s.Merge.opt_triples))
    (stars plan);
  Helpers.check_store_vs_oracle g (Engine.to_store e) src

(* ------------------------------------------------------------------ *)
(* Flow equivalence against the sorted-edge-list greedy                *)
(* ------------------------------------------------------------------ *)

(* The reference data flow builder: every edge materialized, weighted
   by its target's TMC and sorted by (weight, target, source), and the
   greedy of Figure 9 as a first-match scan of that list. OR- and
   OPTIONAL-connectivity are recomputed from ancestor lists. *)
module Ref = struct
  module PT = Sparql.Pattern_tree

  type edge = { src : Dataflow.node option; dst : Dataflow.node; weight : float }

  let lca pt a b =
    let up n = n :: PT.ancestors pt n in
    List.find (fun n -> List.mem n (up b)) (up a)

  (* Ancestors of [p] strictly below LCA(p, p'), nearest first. *)
  let up_to_lca pt p p' =
    let l = lca pt p p' in
    if p = l then []
    else
      let rec take = function x :: r when x <> l -> x :: take r | _ -> [] in
      take (PT.ancestors pt p)

  let or_connected pt a b =
    PT.kind pt (lca pt pt.PT.leaf_node.(a) pt.PT.leaf_node.(b)) = PT.K_or

  let opt_connected pt a b =
    List.exists
      (fun n -> PT.kind pt n = PT.K_opt)
      (up_to_lca pt pt.PT.leaf_node.(b) pt.PT.leaf_node.(a))

  (* Definitions 3.9-3.11 over the two paths up to the LCA. *)
  let mergeable k pt a b =
    let na = pt.PT.leaf_node.(a) and nb = pt.PT.leaf_node.(b) in
    PT.kind pt (lca pt na nb) = k
    && List.for_all (fun n -> PT.kind pt n = k) (up_to_lca pt na nb @ up_to_lca pt nb na)

  let opt_mergeable pt a b =
    let na = pt.PT.leaf_node.(a) and nb = pt.PT.leaf_node.(b) in
    PT.kind pt (lca pt na nb) = PT.K_and
    && List.for_all (fun n -> PT.kind pt n = PT.K_and) (up_to_lca pt na nb)
    && (match up_to_lca pt nb na with
        | guard :: above ->
          PT.kind pt guard = PT.K_opt
          && List.for_all (fun n -> PT.kind pt n = PT.K_and) above
        | [] -> false)

  let build pt stats dict =
    let pat i = (PT.triple pt i).PT.pat in
    let nodes =
      List.concat_map
        (fun i ->
          List.map (fun m -> { Dataflow.triple = i; meth = m }) [ Cost.Sc; Cost.Acs; Cost.Aco ])
        (List.init (PT.n_triples pt) Fun.id)
    in
    let cost (nd : Dataflow.node) = Cost.tmc stats dict (pat nd.triple) nd.meth in
    let edges =
      List.concat_map
        (fun (dst : Dataflow.node) ->
          let r = Dataflow.required (pat dst.triple) dst.meth in
          if Sparql.Ast.VarSet.is_empty r then [ { src = None; dst; weight = cost dst } ]
          else
            List.filter_map
              (fun (src : Dataflow.node) ->
                if
                  src.triple <> dst.triple
                  && Sparql.Ast.VarSet.subset r (Dataflow.produced (pat src.triple) src.meth)
                  && (not (or_connected pt src.triple dst.triple))
                  && not (opt_connected pt dst.triple src.triple)
                then Some { src = Some src; dst; weight = cost dst }
                else None)
              nodes)
        nodes
    in
    let key e =
      ( e.dst.triple, e.dst.meth,
        Option.map (fun (n : Dataflow.node) -> (n.triple, n.meth)) e.src )
    in
    List.sort
      (fun a b ->
        let c = compare a.weight b.weight in
        if c <> 0 then c else compare (key a) (key b))
      edges

  let optimal_flow objective pt edges : Dataflow.flow =
    let n = PT.n_triples pt in
    let edges =
      match objective with
      | Dataflow.Best -> edges
      | Dataflow.Worst ->
        let sc, indexed = List.partition (fun e -> e.dst.meth = Cost.Sc) edges in
        List.rev indexed @ sc
    in
    let in_tree = Hashtbl.create 16 in
    let method_of = Array.make n Cost.Sc and pos_of = Array.make n (-1) in
    let parent_of = Array.make n None in
    let order = ref [] in
    for step = 0 to n - 1 do
      let e =
        List.find
          (fun e ->
            pos_of.(e.dst.triple) < 0
            &&
            match e.src with
            | None -> true
            | Some s -> Hashtbl.mem in_tree (s.Dataflow.triple, s.meth))
          edges
      in
      let t = e.dst.triple in
      method_of.(t) <- e.dst.meth;
      pos_of.(t) <- step;
      parent_of.(t) <- e.src;
      Hashtbl.replace in_tree (t, e.dst.meth) ();
      order := e.dst :: !order
    done;
    { Dataflow.order = List.rev !order; method_of; pos_of; parent_of }
end

let check_flow_equivalent ~what pt stats dict =
  let g = Dataflow.build pt stats dict in
  let edges = Ref.build pt stats dict in
  List.iter
    (fun (objective, oname) ->
      let want = Ref.optimal_flow objective pt edges in
      let got = Dataflow.optimal_flow ~objective pt g in
      let what = Printf.sprintf "%s (%s)" what oname in
      let nodes = List.map Dataflow.id_of_node in
      let parents a = Array.to_list (Array.map (Option.map Dataflow.id_of_node) a) in
      Alcotest.(check (list int)) (what ^ " order") (nodes want.order) (nodes got.order);
      Alcotest.(check (list int)) (what ^ " pos_of")
        (Array.to_list want.pos_of) (Array.to_list got.pos_of);
      Alcotest.(check (list (option int))) (what ^ " parent_of")
        (parents want.parent_of) (parents got.parent_of);
      Alcotest.(check bool) (what ^ " method_of") true (want.method_of = got.method_of))
    [ (Dataflow.Best, "best"); (Dataflow.Worst, "worst") ];
  (* The parse-tree relations the graph and the merger use agree with
     their list-based definitions on every pair of distinct triples. *)
  let n = Sparql.Pattern_tree.n_triples pt in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then
        List.iter
          (fun (r, want, got) ->
            if want pt a b <> got pt a b then Alcotest.failf "%s: %s t%d t%d" what r a b)
          [ ("or_connected", Ref.or_connected, Sparql.Pattern_tree.or_connected);
            ("opt_connected", Ref.opt_connected, Sparql.Pattern_tree.opt_connected);
            ("and_mergeable", Ref.mergeable Sparql.Pattern_tree.K_and,
             Sparql.Pattern_tree.and_mergeable);
            ("or_mergeable", Ref.mergeable Sparql.Pattern_tree.K_or,
             Sparql.Pattern_tree.or_mergeable);
            ("opt_mergeable", Ref.opt_mergeable, Sparql.Pattern_tree.opt_mergeable) ]
    done
  done;
  (* The implicit graph has exactly the reference's edges. *)
  let all = List.init (3 * n) Dataflow.node_of_id in
  List.iter
    (fun dst ->
      List.iter
        (fun src ->
          let want = List.exists (fun (e : Ref.edge) -> e.src = src && e.dst = dst) edges in
          if Dataflow.has_edge g src dst <> want then
            Alcotest.failf "%s: edge %s -> %s" what
              (match src with None -> "root" | Some s -> Dataflow.node_to_string pt s)
              (Dataflow.node_to_string pt dst))
        (None :: List.map Option.some all))
    all

let workload_suites =
  [ ("micro", Workloads.Micro.generate, Workloads.Micro.queries);
    ("lubm", Workloads.Lubm.generate, Workloads.Lubm.queries);
    ("sp2b", Workloads.Sp2b.generate, Workloads.Sp2b.queries);
    ("dbpedia", Workloads.Dbpedia.generate, Workloads.Dbpedia.queries);
    ("prbench", Workloads.Prbench.generate, Workloads.Prbench.queries);
    ("snowflake", Workloads.Snowflake.generate, Workloads.Snowflake.queries) ]

let test_flow_equivalence_workloads () =
  List.iter
    (fun (wname, generate, queries) ->
      let store = Loader.create () in
      Loader.load store (generate ~scale:3000);
      List.iter
        (fun (qname, src) ->
          let pt = Sparql.Pattern_tree.of_query (Sparql.Parser.parse src) in
          check_flow_equivalent ~what:(wname ^ "/" ^ qname) pt (Loader.stats store)
            (Loader.dictionary store))
        queries)
    workload_suites

let rec has p (pat : Sparql.Ast.pattern) =
  p pat
  ||
  match pat with
  | Sparql.Ast.Group ps | Sparql.Ast.Union ps -> List.exists (has p) ps
  | Sparql.Ast.Optional q -> has p q
  | Sparql.Ast.Bgp _ | Sparql.Ast.Filter _ -> false

let test_flow_equivalence_fuzz () =
  let st = Random.State.make [| 2013 |] in
  let opt = ref 0 and union = ref 0 and filter = ref 0 in
  for case = 1 to 500 do
    let triples, vocab = Fuzz.Gen_graph.generate st in
    let store = Loader.create ~layout:(Layout.make ~dph_cols:4 ~rph_cols:4) () in
    Loader.load store triples;
    let q = Fuzz.Gen_query.generate st vocab in
    let count r f = if has f q.Sparql.Ast.where then incr r in
    count opt (function Sparql.Ast.Optional _ -> true | _ -> false);
    count union (function Sparql.Ast.Union _ -> true | _ -> false);
    count filter (function Sparql.Ast.Filter _ -> true | _ -> false);
    check_flow_equivalent ~what:(Printf.sprintf "fuzz case %d" case)
      (Sparql.Pattern_tree.of_query q) (Loader.stats store) (Loader.dictionary store)
  done;
  List.iter
    (fun (name, r) ->
      if !r < 50 then Alcotest.failf "only %d of 500 queries have %s" !r name)
    [ ("OPTIONAL", opt); ("UNION", union); ("FILTER", filter) ]

let suite =
  [ Alcotest.test_case "TMC (Def 3.1)" `Quick test_tmc;
    Alcotest.test_case "produced/required (Defs 3.2/3.3)" `Quick test_produced_required;
    Alcotest.test_case "data flow graph (Fig 8)" `Quick test_dataflow_graph;
    Alcotest.test_case "optimal flow tree (Fig 9)" `Quick test_optimal_flow;
    Alcotest.test_case "worst flow differs" `Quick test_worst_flow_differs;
    Alcotest.test_case "exec tree (Fig 10)" `Quick test_exec_tree_fig10;
    Alcotest.test_case "syntactic exec tree" `Quick test_exec_tree_syntactic;
    Alcotest.test_case "merging (Fig 11)" `Quick test_merge_fig11;
    Alcotest.test_case "merging disabled" `Quick test_merge_disabled;
    Alcotest.test_case "spill veto" `Quick test_merge_spill_veto;
    Alcotest.test_case "flow = reference greedy (workloads)" `Quick
      test_flow_equivalence_workloads;
    Alcotest.test_case "flow = reference greedy (fuzz)" `Quick
      test_flow_equivalence_fuzz ]
