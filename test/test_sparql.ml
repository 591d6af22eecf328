(** Tests for the SPARQL front-end: parser, printer, pattern tree
    (Figure 7 machinery), and the reference evaluator's semantics. *)

open Sparql

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse = Parser.parse

let test_parse_basic () =
  let q = parse "SELECT ?x WHERE { ?x <p> ?y . ?y <q> \"lit\" }" in
  Alcotest.(check int) "two triples" 2 (Ast.pattern_size q.Ast.where);
  Alcotest.(check bool) "projection" true (q.Ast.projection = Ast.Select_vars [ "x" ])

let test_parse_prefixes () =
  let q =
    parse
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x WHERE { ?x foaf:name ?n . ?x a foaf:Person }"
  in
  match q.Ast.where with
  | Ast.Bgp [ t1; t2 ] ->
    Alcotest.(check bool) "prefix expansion" true
      (t1.Ast.tp_p = Ast.Term (Rdf.Term.iri "http://xmlns.com/foaf/0.1/name"));
    Alcotest.(check bool) "a is rdf:type" true (t2.Ast.tp_p = Ast.Term Rdf.Term.rdf_type)
  | _ -> Alcotest.fail "expected a 2-triple BGP"

let test_parse_predicate_object_lists () =
  let q = parse "SELECT * WHERE { ?x <p> ?a , ?b ; <q> ?c . }" in
  Alcotest.(check int) "3 triples from ;/, lists" 3 (Ast.pattern_size q.Ast.where)

let test_parse_union_optional_filter () =
  let q =
    parse
      "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } OPTIONAL { ?x <r> ?z } FILTER (?y > 3 && BOUND(?z)) }"
  in
  match q.Ast.where with
  | Ast.Group [ Ast.Union [ _; _ ]; Ast.Optional _; Ast.Filter _ ] -> ()
  | _ -> Alcotest.fail ("unexpected shape: " ^ Pp.to_string q)

let test_parse_modifiers () =
  let q =
    parse
      "SELECT DISTINCT ?x WHERE { ?x <p> ?y } ORDER BY DESC(?y) ?x LIMIT 10 OFFSET 5"
  in
  Alcotest.(check bool) "distinct" true q.Ast.distinct;
  Alcotest.(check (option int)) "limit" (Some 10) q.Ast.limit;
  Alcotest.(check (option int)) "offset" (Some 5) q.Ast.offset;
  Alcotest.(check int) "2 order conds" 2 (List.length q.Ast.order_by);
  Alcotest.(check bool) "desc first" false (List.hd q.Ast.order_by).Ast.ord_asc

let test_parse_literals () =
  let q =
    parse
      "SELECT * WHERE { ?x <p> 42 . ?x <q> 3.5 . ?x <r> \"s\"@en . ?x <s> \"t\"^^<http://dt> }"
  in
  Alcotest.(check int) "4 triples" 4 (Ast.pattern_size q.Ast.where)

let test_parse_errors () =
  let bad = [ "SELECT"; "SELECT ?x WHERE { ?x <p> }"; "SELECT ?x WHERE { ?x foo:b ?y }" ] in
  List.iter
    (fun src ->
      match parse src with
      | exception Parser.Parse_error _ -> ()
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ src))
    bad

let test_error_positions () =
  let line_col = Alcotest.(pair int int) in
  (* Offsets map to 1-based line and column; a newline ends its line. *)
  let src = "ab\ncd\n\nef" in
  List.iter
    (fun (pos, want) ->
      Alcotest.check line_col (Printf.sprintf "offset %d" pos) want
        (Parser.line_col src pos))
    [ (0, (1, 1)); (1, (1, 2)); (2, (1, 3)); (3, (2, 1)); (4, (2, 2));
      (6, (3, 1)); (7, (4, 1)); (9, (4, 3)) ];
  (* Errors carry the offset of the token the parser failed at. *)
  let at src =
    match parse src with
    | exception Parser.Parse_error (_, pos) -> Parser.line_col src pos
    | exception Lexer.Lex_error (_, pos) -> Parser.line_col src pos
    | _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  Alcotest.check line_col "missing object"
    (3, 10) (at "SELECT ?x\nWHERE {\n  ?x <p> }");
  Alcotest.check line_col "undeclared prefix"
    (2, 6) (at "SELECT ?x WHERE {\n  ?x foo:b ?y }");
  Alcotest.check line_col "lexical error"
    (2, 12) (at "SELECT ?x\nWHERE { ?x & ?y }");
  Alcotest.check line_col "end of input"
    (1, 25) (at "SELECT ?x WHERE { ?x <p>")

(* ------------------------------------------------------------------ *)
(* Printer round trip                                                  *)
(* ------------------------------------------------------------------ *)

let test_pp_roundtrip_cases () =
  let cases =
    [ "SELECT ?x WHERE { ?x <p> ?y }";
      "SELECT DISTINCT ?x ?y WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } } LIMIT 3";
      "SELECT ?x WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } FILTER (!BOUND(?z)) }";
      "SELECT ?x WHERE { ?x <p> \"v\"@en . ?x <q> 7 } ORDER BY ?x OFFSET 2";
      Helpers.fig6_query_src ]
  in
  List.iter
    (fun src ->
      let q = parse src in
      let q2 = parse (Pp.to_string q) in
      (* Compare via a second print: group flattening is idempotent. *)
      Alcotest.(check string) ("pp roundtrip: " ^ src) (Pp.to_string q) (Pp.to_string q2))
    cases

(* ------------------------------------------------------------------ *)
(* Pattern tree: the Figure 7 example                                  *)
(* ------------------------------------------------------------------ *)

(* Triple ids in parse order: t0 = home, t1 = founder, t2 = member,
   t3 = industry, t4 = developer, t5 = revenue, t6 = employees. *)
let fig6_tree () = Pattern_tree.of_query (parse Helpers.fig6_query_src)

let test_tree_shape () =
  let pt = fig6_tree () in
  Alcotest.(check int) "7 triples" 7 (Pattern_tree.n_triples pt);
  Alcotest.(check bool) "root is AND" true
    (Pattern_tree.kind pt pt.Pattern_tree.root = Pattern_tree.K_and)

let test_or_connected () =
  let pt = fig6_tree () in
  Alcotest.(check bool) "founder/member are OR-connected" true
    (Pattern_tree.or_connected pt 1 2);
  Alcotest.(check bool) "founder/industry are not" false
    (Pattern_tree.or_connected pt 1 3)

let test_opt_connected () =
  let pt = fig6_tree () in
  (* employees (t6) is optional w.r.t. revenue (t5): ∩(t5, t6). *)
  Alcotest.(check bool) "employees optional wrt revenue" true
    (Pattern_tree.opt_connected pt 5 6);
  Alcotest.(check bool) "revenue not optional wrt employees" false
    (Pattern_tree.opt_connected pt 6 5)

let test_mergeable () =
  let pt = fig6_tree () in
  Alcotest.(check bool) "ORMergeable(founder, member)" true
    (Pattern_tree.or_mergeable pt 1 2);
  Alcotest.(check bool) "not ORMergeable(founder, developer)" false
    (Pattern_tree.or_mergeable pt 1 4);
  Alcotest.(check bool) "ANDMergeable(industry, revenue)" true
    (Pattern_tree.and_mergeable pt 3 5);
  Alcotest.(check bool) "not ANDMergeable(founder, member)" false
    (Pattern_tree.and_mergeable pt 1 2);
  (* OPTMergeable(revenue, employees) — t6 guarded by OPTIONAL. *)
  Alcotest.(check bool) "OPTMergeable(revenue, employees)" true
    (Pattern_tree.opt_mergeable pt 5 6);
  Alcotest.(check bool) "not OPTMergeable(employees, revenue)" false
    (Pattern_tree.opt_mergeable pt 6 5)

let test_triples_under_and_filters () =
  let pt =
    Pattern_tree.of_query
      (parse "SELECT * WHERE { ?x <p> ?y FILTER (?y > 1) { ?y <q> ?z . ?z <r> ?w } }")
  in
  Alcotest.(check int) "one filter" 1 (List.length pt.Pattern_tree.filters);
  let node, _ = List.hd pt.Pattern_tree.filters in
  Alcotest.(check int) "filter scopes over all 3 triples" 3
    (List.length (Pattern_tree.triples_under pt node))

(* Every relation of a triple with itself: LCA and paths are defined and
   no predicate holds. LQ4's three UNION branches of five triples each
   cover OR, AND and leaf nodes at depth 2. *)
let test_equal_arguments () =
  let pt =
    Pattern_tree.of_query (parse (List.assoc "LQ4" Workloads.Lubm.queries))
  in
  let fig6 = fig6_tree () in
  List.iter
    (fun pt ->
      for t = 0 to Pattern_tree.n_triples pt - 1 do
        let leaf = pt.Pattern_tree.leaf_node.(t) in
        let name r = Printf.sprintf "%s t%d t%d" r t t in
        Alcotest.(check int) (name "lca") leaf (Pattern_tree.lca pt leaf leaf);
        Alcotest.(check (list int)) (name "up_to_lca") []
          (Pattern_tree.up_to_lca pt leaf leaf);
        List.iter
          (fun (r, f) -> Alcotest.(check bool) (name r) false (f pt t t))
          [ ("or_connected", Pattern_tree.or_connected);
            ("opt_connected", Pattern_tree.opt_connected);
            ("and_mergeable", Pattern_tree.and_mergeable);
            ("or_mergeable", Pattern_tree.or_mergeable);
            ("opt_mergeable", Pattern_tree.opt_mergeable) ]
      done;
      (* An interior node with itself: the LCA is the node, the path empty. *)
      let r = pt.Pattern_tree.root in
      Alcotest.(check int) "lca root root" r (Pattern_tree.lca pt r r);
      Alcotest.(check (list int)) "up_to_lca root root" []
        (Pattern_tree.up_to_lca pt r r))
    [ pt; fig6 ]

let test_in_optional () =
  let pt = fig6_tree () in
  Alcotest.(check bool) "t6 in optional" true (Pattern_tree.in_optional pt 6);
  Alcotest.(check bool) "t5 not in optional" false (Pattern_tree.in_optional pt 5)

(* ------------------------------------------------------------------ *)
(* Reference evaluator semantics                                       *)
(* ------------------------------------------------------------------ *)

let mini_graph () =
  let g = Rdf.Graph.create () in
  let add s p o = Rdf.Graph.add g (Rdf.Triple.spo s p o) in
  add "a" "p" (Rdf.Term.iri "b");
  add "a" "p" (Rdf.Term.iri "c");
  add "b" "q" (Rdf.Term.int_lit 1);
  add "c" "q" (Rdf.Term.int_lit 2);
  add "c" "r" (Rdf.Term.lit "only-c");
  g

let count g src = List.length (Ref_eval.eval g (parse src)).Ref_eval.rows

let test_eval_join () =
  let g = mini_graph () in
  Alcotest.(check int) "join" 2 (count g "SELECT ?x ?v WHERE { <a> <p> ?x . ?x <q> ?v }")

let test_eval_optional () =
  let g = mini_graph () in
  (* left join keeps both, binds r only for c *)
  let r = Ref_eval.eval g (parse "SELECT ?x ?r WHERE { <a> <p> ?x OPTIONAL { ?x <r> ?r } }") in
  Alcotest.(check int) "2 solutions" 2 (List.length r.Ref_eval.rows);
  let bound_r = List.filter (fun row -> List.nth row 1 <> None) r.Ref_eval.rows in
  Alcotest.(check int) "one bound" 1 (List.length bound_r)

let test_eval_union () =
  let g = mini_graph () in
  Alcotest.(check int) "union multiset" 3
    (count g "SELECT ?x WHERE { { <a> <p> ?x } UNION { ?x <q> 2 } }")

let test_eval_filter_semantics () =
  let g = mini_graph () in
  Alcotest.(check int) "numeric filter" 1
    (count g "SELECT ?x WHERE { ?x <q> ?v FILTER (?v > 1) }");
  (* error-as-false: comparing an unbound var filters the row out *)
  Alcotest.(check int) "unbound comparison is false" 0
    (count g "SELECT ?x WHERE { <a> <p> ?x FILTER (?nope > 1) }");
  (* but !BOUND on it is true *)
  Alcotest.(check int) "not bound" 2
    (count g "SELECT ?x WHERE { <a> <p> ?x FILTER (!BOUND(?nope)) }");
  Alcotest.(check int) "regex" 1
    (count g "SELECT ?x WHERE { ?x <r> ?v FILTER REGEX(?v, \"only\") }")

let test_eval_filter_scopes_group () =
  let g = mini_graph () in
  (* Filter inside a union branch must not leak to the other branch. *)
  Alcotest.(check int) "filter scoped to branch" 3
    (count g "SELECT ?x WHERE { { ?x <q> ?v FILTER (?v > 1) } UNION { <a> <p> ?x } }")

let test_eval_distinct_order_limit () =
  let g = mini_graph () in
  Alcotest.(check int) "distinct collapses duplicates" 1
    (count g "SELECT DISTINCT ?a WHERE { ?a <p> ?x }");
  let r =
    Ref_eval.eval g (parse "SELECT ?x ?v WHERE { ?x <q> ?v } ORDER BY DESC(?v) LIMIT 1")
  in
  match r.Ref_eval.rows with
  | [ [ Some x; _ ] ] ->
    Alcotest.(check string) "max v is c" "<c>" (Rdf.Term.to_string x)
  | _ -> Alcotest.fail "expected one row"

let test_eval_timeout () =
  let g = Rdf.Graph.create () in
  for i = 0 to 200 do
    Rdf.Graph.add g (Rdf.Triple.spo "s" ("p" ^ string_of_int i) (Rdf.Term.int_lit i));
    Rdf.Graph.add g (Rdf.Triple.spo ("x" ^ string_of_int i) "q" (Rdf.Term.int_lit i))
  done;
  match
    Ref_eval.eval ~timeout:0.0 g
      (parse "SELECT * WHERE { ?a ?b ?c . ?d <q> ?e . ?f <q> ?g . ?h <q> ?i }")
  with
  | exception Ref_eval.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout"

(* ------------------------------------------------------------------ *)
(* Random query ASTs: printing then parsing preserves semantics.       *)
(* ------------------------------------------------------------------ *)

let gen_query : Ast.query QCheck.Gen.t =
  let open QCheck.Gen in
  let vars = [ "a"; "b"; "c" ] in
  let gen_pos =
    oneof
      [ map (fun v -> Ast.Var v) (oneofl vars);
        map (fun i -> Ast.Term (Rdf.Term.iri (Printf.sprintf "n%d" i))) (int_range 0 6);
        map (fun i -> Ast.Term (Rdf.Term.int_lit i)) (int_range 0 9) ]
  in
  let gen_pred =
    oneof
      [ map (fun v -> Ast.Var v) (oneofl vars);
        map (fun i -> Ast.Term (Rdf.Term.iri (Printf.sprintf "p%d" i))) (int_range 0 3) ]
  in
  let gen_tp =
    map3 (fun s p o -> { Ast.tp_s = s; tp_p = p; tp_o = o }) gen_pos gen_pred gen_pos
  in
  let gen_bgp = map (fun tps -> Ast.Bgp tps) (list_size (int_range 1 3) gen_tp) in
  let gen_filter =
    map2
      (fun v i -> Ast.Filter (Ast.E_cmp (Ast.Cgt, Ast.E_var v, Ast.E_const (Rdf.Term.int_lit i))))
      (oneofl vars) (int_range 0 9)
  in
  let gen_pattern =
    fix
      (fun self depth ->
        if depth = 0 then gen_bgp
        else
          frequency
            [ (3, gen_bgp);
              (1, map (fun ps -> Ast.Group ps) (list_size (int_range 1 3) (self (depth - 1))));
              (1, map (fun ps -> Ast.Union ps) (list_size (int_range 2 3) (self (depth - 1))));
              (1, map (fun p -> Ast.Optional p) (self (depth - 1)));
              (1, map2 (fun a f -> Ast.Group [ a; f ]) (self (depth - 1)) gen_filter) ])
      2
  in
  let* where = gen_pattern in
  let* distinct = bool in
  let* limit = opt (int_range 0 20) in
  return
    { Ast.projection = Ast.Select_star; distinct; reduced = false; where;
      group_by = []; aggregates = []; order_by = []; limit; offset = None }

let pp_parse_semantics =
  QCheck.Test.make ~name:"pp/parse preserves query semantics" ~count:300
    (QCheck.make gen_query ~print:Pp.to_string)
    (fun q ->
      (* A fixed pseudo-random graph over the generator's vocabulary. *)
      let g = Rdf.Graph.create () in
      for i = 0 to 80 do
        Rdf.Graph.add g
          (Rdf.Triple.make
             (Rdf.Term.iri (Printf.sprintf "n%d" (i * 7 mod 7)))
             (Rdf.Term.iri (Printf.sprintf "p%d" (i * 3 mod 4)))
             (if i mod 3 = 0 then Rdf.Term.int_lit (i mod 10)
              else Rdf.Term.iri (Printf.sprintf "n%d" (i * 5 mod 7))))
      done;
      let q' = Parser.parse (Pp.to_string q) in
      let r = Ref_eval.eval g q and r' = Ref_eval.eval g q' in
      if q.Ast.limit <> None then
        List.length r.Ref_eval.rows = List.length r'.Ref_eval.rows
      else Ref_eval.equal_results r r')

(* Property: UNION of a pattern with itself doubles the multiset. *)
let union_doubles =
  QCheck.Test.make ~name:"ref_eval: A UNION A has twice the rows of A" ~count:30
    QCheck.(make Gen.(int_range 1 40))
    (fun n ->
      let g = Rdf.Graph.create () in
      for i = 0 to n - 1 do
        Rdf.Graph.add g (Rdf.Triple.spo ("s" ^ string_of_int i) "p" (Rdf.Term.int_lit i))
      done;
      let single = count g "SELECT ?x WHERE { ?x <p> ?y }" in
      let doubled = count g "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <p> ?y } }" in
      doubled = 2 * single)

let suite =
  [ Alcotest.test_case "parse basic" `Quick test_parse_basic;
    Alcotest.test_case "parse prefixes and a" `Quick test_parse_prefixes;
    Alcotest.test_case "parse ;/, lists" `Quick test_parse_predicate_object_lists;
    Alcotest.test_case "parse union/optional/filter" `Quick test_parse_union_optional_filter;
    Alcotest.test_case "parse modifiers" `Quick test_parse_modifiers;
    Alcotest.test_case "parse literals" `Quick test_parse_literals;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse error positions" `Quick test_error_positions;
    Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip_cases;
    Alcotest.test_case "fig7: tree shape" `Quick test_tree_shape;
    Alcotest.test_case "fig7: or-connected" `Quick test_or_connected;
    Alcotest.test_case "fig7: opt-connected" `Quick test_opt_connected;
    Alcotest.test_case "fig7: mergeability defs" `Quick test_mergeable;
    Alcotest.test_case "filter scopes" `Quick test_triples_under_and_filters;
    Alcotest.test_case "in_optional" `Quick test_in_optional;
    Alcotest.test_case "relations with equal arguments" `Quick test_equal_arguments;
    Alcotest.test_case "eval: join" `Quick test_eval_join;
    Alcotest.test_case "eval: optional" `Quick test_eval_optional;
    Alcotest.test_case "eval: union" `Quick test_eval_union;
    Alcotest.test_case "eval: filter semantics" `Quick test_eval_filter_semantics;
    Alcotest.test_case "eval: filter group scope" `Quick test_eval_filter_scopes_group;
    Alcotest.test_case "eval: distinct/order/limit" `Quick test_eval_distinct_order_limit;
    Alcotest.test_case "eval: timeout" `Quick test_eval_timeout;
    QCheck_alcotest.to_alcotest union_doubles;
    QCheck_alcotest.to_alcotest pp_parse_semantics ]
