(** The planner against a reference: the quadratic list-based column
    pruner and catalog-based CTE planning, where each CTE name is
    registered as a schema-only table before the next part is planned.
    The planner proper prunes in one pass over per-alias name sets and
    resolves CTE names from a scope list; both must give identical plans,
    identical [cols] on every node and identical estimates. *)

open Relsql
open Sql_ast
module P = Planner

module Ref = struct
  type needed = All | Only of (string * string) list

  let expr_columns e = List.rev (fold_columns (fun acc q n -> (q, n) :: acc) [] e)

  let refers_only_to aliases e =
    let refs = expr_columns e in
    List.for_all
      (fun (q, _) ->
        match q with
        | Some a -> List.exists (String.equal a) aliases
        | None -> false)
      refs
    || refs = []

  let needed_union a b =
    match a, b with
    | All, _ | _, All -> All
    | Only x, Only y -> Only (List.rev_append x y)

  let needed_of_exprs es =
    let cols = List.concat_map expr_columns es in
    if List.exists (fun (q, _) -> q = None) cols then All
    else Only (List.map (fun (q, n) -> (Option.get q, n)) cols)

  let opt_to_list = function None -> [] | Some e -> [ e ]

  let cols_for alias = function
    | All -> None
    | Only refs ->
      Some
        (List.sort_uniq String.compare
           (List.filter_map (fun (a, n) -> if a = alias then Some n else None) refs))

  let rec prune (needed : needed) (plan : P.plan) : P.plan =
    match plan with
    | P.Empty_row | P.Values_rows _ -> plan
    | P.Scan { table; alias; filter; _ } ->
      P.Scan { table; alias; filter; cols = cols_for alias needed }
    | P.Index_lookup { table; alias; col; keys; filter; _ } ->
      P.Index_lookup { table; alias; col; keys; filter; cols = cols_for alias needed }
    | P.Subplan { plan; alias } -> P.Subplan { plan = prune All plan; alias }
    | P.Inl_join { outer; table; alias; col; key; kind; residual; _ } ->
      let cross =
        match residual with
        | Some e when not (refers_only_to [ alias ] e) -> [ e ]
        | _ -> []
      in
      let cols = cols_for alias (needed_union needed (needed_of_exprs cross)) in
      let outer_needed =
        needed_union needed (needed_of_exprs (key :: opt_to_list residual))
      in
      P.Inl_join
        { outer = prune outer_needed outer; table; alias; col; key; kind;
          residual; cols }
    | P.Hash_join { left; right; left_keys; right_keys; kind; residual } ->
      let n =
        needed_union needed
          (needed_of_exprs (left_keys @ right_keys @ opt_to_list residual))
      in
      P.Hash_join
        { left = prune n left; right = prune n right; left_keys; right_keys;
          kind; residual }
    | P.Nl_join { left; right; kind; cond } ->
      let n = needed_union needed (needed_of_exprs (opt_to_list cond)) in
      P.Nl_join { left = prune n left; right = prune n right; kind; cond }
    | P.Values_join { outer; rows; alias; cols } ->
      let n = needed_union needed (needed_of_exprs (List.concat rows)) in
      P.Values_join { outer = prune n outer; rows; alias; cols }
    | P.Wcoj ({ outputs; _ } as w) ->
      (match needed with
       | All -> plan
       | Only refs ->
         let keep =
           List.filter
             (fun (a, c, _) -> List.exists (fun (a', c') -> a' = a && c' = c) refs)
             outputs
         in
         P.Wcoj { w with outputs = keep })
    | P.Extvp_scan { input; name } -> P.Extvp_scan { input = prune needed input; name }
    | P.Filter (p, e) ->
      P.Filter (prune (needed_union needed (needed_of_exprs [ e ])) p, e)
    | P.Project { input; items; distinct; order_by; limit; offset } ->
      let n =
        needed_of_exprs
          (List.map fst items @ List.map (fun o -> o.sort_expr) order_by)
      in
      P.Project { input = prune n input; items; distinct; order_by; limit; offset }
    | P.Aggregate { input; keys; items; distinct; order_by; limit; offset } ->
      let whole_row_distinct =
        List.exists
          (function P.Ai_agg (_, None, true, _) -> true | _ -> false)
          items
      in
      let n =
        if whole_row_distinct then All
        else
          needed_of_exprs
            (keys
             @ List.concat_map
                 (function
                   | P.Ai_plain (e, _) -> [ e ]
                   | P.Ai_agg (_, arg, _, _) -> opt_to_list arg)
                 items)
      in
      P.Aggregate { input = prune n input; keys; items; distinct; order_by; limit; offset }
    | P.Union_plan { all; parts } ->
      P.Union_plan { all; parts = List.map (prune All) parts }

  (* Undo what pruning fills in, recovering the planner's raw output
     (pruning only ever narrows [cols], so this is exact). Leapfrog
     outputs cannot be widened back; the comparisons run without WCOJ. *)
  let rec unprune (plan : P.plan) : P.plan =
    match plan with
    | P.Empty_row | P.Values_rows _ | P.Wcoj _ -> plan
    | P.Scan s -> P.Scan { s with cols = None }
    | P.Index_lookup s -> P.Index_lookup { s with cols = None }
    | P.Subplan s -> P.Subplan { s with plan = unprune s.plan }
    | P.Inl_join j -> P.Inl_join { j with outer = unprune j.outer; cols = None }
    | P.Hash_join j -> P.Hash_join { j with left = unprune j.left; right = unprune j.right }
    | P.Nl_join j -> P.Nl_join { j with left = unprune j.left; right = unprune j.right }
    | P.Values_join j -> P.Values_join { j with outer = unprune j.outer }
    | P.Extvp_scan x -> P.Extvp_scan { x with input = unprune x.input }
    | P.Filter (p, e) -> P.Filter (unprune p, e)
    | P.Project p -> P.Project { p with input = unprune p.input }
    | P.Aggregate a -> P.Aggregate { a with input = unprune a.input }
    | P.Union_plan u -> P.Union_plan { u with parts = List.map unprune u.parts }

  (* Preorder walk of a plan. *)
  let rec nodes (p : P.plan) = p :: List.concat_map nodes (P.children p)

  (* Catalog-based CTE planning: a copy of the catalog in which every CTE
     planned so far is a registered schema-only table, so its name
     resolves like a table with no index and no rows. Each part comes
     with the estimate of every node, taken against the catalog it was
     planned in. *)
  let plan_stmt db (stmt : stmt) =
    let catalog = Database.snapshot db in
    let plan q =
      let p = prune All (unprune (P.plan_query catalog q)) in
      (p, List.map (P.estimate catalog) (nodes p))
    in
    let ctes =
      List.map
        (fun (name, q) ->
          let part = plan q in
          (* A CTE shadows a same-named table for every later part. *)
          Database.drop_table catalog name;
          ignore (Database.create_table catalog name (Schema.make []));
          (name, part))
        stmt.ctes
    in
    (ctes, plan stmt.body)
end

let node_cols = function
  | P.Scan { cols; _ } | P.Index_lookup { cols; _ } | P.Inl_join { cols; _ } -> cols
  | P.Wcoj { outputs; _ } ->
    Some (List.map (fun (a, c, v) -> Printf.sprintf "%s.%s=%d" a c v) outputs)
  | _ -> None

let check_part ~what db ~ctes ~want:(want, want_est) (got : P.plan) =
  Alcotest.(check string) (what ^ ": plan") (P.plan_to_string want) (P.plan_to_string got);
  let got_nodes = Ref.nodes got in
  Alcotest.(check (list (option (list string)))) (what ^ ": cols")
    (List.map node_cols (Ref.nodes want)) (List.map node_cols got_nodes);
  Alcotest.(check (list int)) (what ^ ": estimates") want_est
    (List.map (P.estimate ~ctes db) got_nodes)

(* Every CTE and the body of [stmt] plan identically both ways. *)
let check_stmt ~what db stmt =
  let ctes, (body_scope, body) = P.plan_stmt db stmt in
  let want_ctes, want_body = Ref.plan_stmt db stmt in
  Alcotest.(check (list string)) (what ^ ": CTE names")
    (List.map fst want_ctes) (List.map (fun (n, _, _) -> n) ctes);
  List.iter2
    (fun (name, want) (_, scope, got) ->
      check_part ~what:(what ^ " CTE " ^ name) db ~ctes:scope ~want got)
    want_ctes ctes;
  check_part ~what:(what ^ " body") db ~ctes:body_scope ~want:want_body body

let workload_suites =
  [ ("micro", Workloads.Micro.generate, Workloads.Micro.queries);
    ("lubm", Workloads.Lubm.generate, Workloads.Lubm.queries);
    ("sp2b", Workloads.Sp2b.generate, Workloads.Sp2b.queries);
    ("dbpedia", Workloads.Dbpedia.generate, Workloads.Dbpedia.queries);
    ("prbench", Workloads.Prbench.generate, Workloads.Prbench.queries);
    ("snowflake", Workloads.Snowflake.generate, Workloads.Snowflake.queries) ]

let test_workloads () =
  List.iter
    (fun (wname, generate, queries) ->
      let e = Db2rdf.Engine.create () in
      Db2rdf.Engine.load e (generate ~scale:2000);
      let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
      List.iter
        (fun (qname, src) ->
          check_stmt ~what:(wname ^ "/" ^ qname) db
            (Db2rdf.Engine.translate e (Sparql.Parser.parse src)))
        queries)
    workload_suites

let test_fuzz () =
  let st = Random.State.make [| 1717 |] in
  for case = 1 to 500 do
    let triples, vocab = Fuzz.Gen_graph.generate st in
    let e =
      Db2rdf.Engine.create ~layout:(Db2rdf.Layout.make ~dph_cols:3 ~rph_cols:3) ()
    in
    Db2rdf.Engine.load e triples;
    let q = Fuzz.Gen_query.generate st vocab in
    check_stmt ~what:(Printf.sprintf "fuzz case %d" case)
      (Db2rdf.Loader.database (Db2rdf.Engine.loader e))
      (Db2rdf.Engine.translate e q)
  done

(* Hand-written SQL the translator never emits: unqualified references
   (nothing prunes), a CTE shadowing a base table, duplicate aliases,
   subqueries, unions, aggregates and lateral VALUES. *)
let test_hand_written () =
  let db = Database.create "p" in
  let t = Database.create_table db "t" (Schema.make [ "a"; "b"; "c" ]) in
  let u = Database.create_table db "u" (Schema.make [ "a"; "d" ]) in
  for i = 0 to 30 do
    ignore (Table.insert t [| Value.Int i; Value.Int (i mod 3); Value.Int (i mod 5) |]);
    ignore (Table.insert u [| Value.Int (i mod 7); Value.Int i |])
  done;
  Table.create_index_on t "a";
  Table.create_index_on u "a";
  List.iteri
    (fun i sql -> check_stmt ~what:(Printf.sprintf "sql %d" i) db (Sql_parser.parse sql))
    [ "SELECT x.b FROM t AS x JOIN u AS y ON y.a = x.a WHERE x.c = 1 AND y.d > 3";
      "SELECT b FROM t AS x JOIN u AS y ON y.a = x.a";
      "WITH t AS (SELECT x.a AS a, x.b AS b FROM t AS x WHERE x.c = 2) \
       SELECT z.b FROM t AS z JOIN u AS y ON y.a = z.a";
      "WITH q AS (SELECT x.a AS a FROM t AS x), r AS (SELECT q.a AS a FROM q AS q) \
       SELECT r.a, y.d FROM r AS r JOIN u AS y ON y.a = r.a ORDER BY y.d";
      "SELECT x.a FROM t AS x JOIN t AS x ON x.a = x.b";
      "SELECT s.k FROM (SELECT x.a AS k, x.c AS m FROM t AS x) AS s WHERE s.m = 1";
      "(SELECT x.a FROM t AS x WHERE x.b = 1) UNION (SELECT y.a FROM u AS y)";
      "SELECT x.b, COUNT(DISTINCT x.c) AS n FROM t AS x JOIN u AS y ON y.a = x.a \
       GROUP BY x.b ORDER BY n";
      "SELECT COUNT(*) AS n FROM t AS x JOIN u AS y ON y.d = x.c + 1";
      "SELECT v.p FROM t AS x JOIN LATERAL (VALUES (x.a), (x.b)) AS v(p) ON TRUE \
       WHERE x.c = 0";
      "SELECT x.a, y.d FROM t AS x LEFT OUTER JOIN u AS y ON y.a = x.a AND y.d < x.c" ]

let suite =
  [ Alcotest.test_case "workload queries match the reference" `Slow test_workloads;
    Alcotest.test_case "500 fuzz queries match the reference" `Slow test_fuzz;
    Alcotest.test_case "hand-written SQL matches the reference" `Quick test_hand_written ]
