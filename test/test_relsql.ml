(** Unit and property tests for the relational engine substrate. *)

open Relsql

let v_int i = Value.Int i
let v_str s = Value.Str s

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_order () =
  Alcotest.(check bool) "null sorts first" true (Value.compare Value.Null (v_int 0) < 0);
  Alcotest.(check bool) "int order" true (Value.compare (v_int 1) (v_int 2) < 0);
  Alcotest.(check bool) "str order" true (Value.compare (v_str "a") (v_str "b") < 0);
  Alcotest.(check bool) "lid distinct from int" false
    (Value.equal (Value.Lid 5) (v_int 5));
  Alcotest.(check int) "null storage is free (bitmap-carried)" 0
    (Value.storage_size Value.Null);
  Alcotest.(check bool) "string storage grows" true
    (Value.storage_size (v_str "hello") > Value.storage_size (v_str "h"))

let test_value_roundtrip () =
  Alcotest.(check string) "escaping" "'it''s'" (Value.to_string (v_str "it's"));
  Alcotest.(check string) "lid form" "lid:7" (Value.to_string (Value.Lid 7))

(* ------------------------------------------------------------------ *)
(* Schema / Table                                                      *)
(* ------------------------------------------------------------------ *)

let test_schema () =
  let s = Schema.make [ "a"; "b"; "c" ] in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check (option int)) "position" (Some 1) (Schema.position s "b");
  Alcotest.(check (option int)) "missing" None (Schema.position s "z");
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.make: duplicate column a") (fun () ->
      ignore (Schema.make [ "a"; "a" ]))

let mk_table () =
  let t = Table.create "t" (Schema.make [ "k"; "v" ]) in
  for i = 0 to 99 do
    ignore (Table.insert t [| v_int (i mod 10); v_str (string_of_int i) |])
  done;
  t

let test_table_index () =
  let t = mk_table () in
  Table.create_index_on t "k";
  Alcotest.(check int) "row count" 100 (Table.row_count t);
  Alcotest.(check int) "index lookup" 10 (Array.length (Table.lookup t 0 (v_int 3)));
  Alcotest.(check int) "miss" 0 (Array.length (Table.lookup t 0 (v_int 42)));
  (* set_cell keeps the index consistent *)
  let rid = (Table.lookup t 0 (v_int 3)).(0) in
  ignore (Table.set_cell t rid 0 (v_int 42));
  Alcotest.(check int) "after update: old key" 9 (Array.length (Table.lookup t 0 (v_int 3)));
  Alcotest.(check int) "after update: new key" 1 (Array.length (Table.lookup t 0 (v_int 42)))

let test_table_growth () =
  let t = Table.create "g" (Schema.make [ "x" ]) in
  for i = 0 to 9999 do
    ignore (Table.insert t [| v_int i |])
  done;
  Alcotest.(check int) "grew" 10000 (Table.row_count t);
  Alcotest.(check bool) "cell" true (Value.equal (Table.cell t 9999 0) (v_int 9999))

let test_null_fraction () =
  let t = Table.create "n" (Schema.make [ "a"; "b" ]) in
  ignore (Table.insert t [| v_int 1; Value.Null |]);
  ignore (Table.insert t [| Value.Null; Value.Null |]);
  Alcotest.(check (float 0.001)) "3 of 4 null" 0.75 (Table.null_fraction t [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let people_db () =
  let db = Database.create "test" in
  let t = Database.create_table db "people" (Schema.make [ "name"; "age"; "city" ]) in
  let ins n a c = ignore (Table.insert t [| v_str n; v_int a; v_str c |]) in
  ins "alice" 30 "nyc";
  ins "bob" 40 "sfo";
  ins "carol" 35 "nyc";
  ins "dave" 25 "nyc";
  Table.create_index_on t "name";
  let pets = Database.create_table db "pets" (Schema.make [ "owner"; "pet" ]) in
  let insp o p = ignore (Table.insert pets [| v_str o; v_str p |]) in
  insp "alice" "cat";
  insp "alice" "dog";
  insp "carol" "fish";
  Table.create_index_on pets "owner";
  db

let run db sql = Executor.run db (Sql_parser.parse sql)

let rows db sql = Batch.to_rows (run db sql)

let test_scan_filter () =
  let db = people_db () in
  Alcotest.(check int) "where" 3
    (List.length (rows db "SELECT p.name FROM people AS p WHERE p.city = 'nyc'"));
  Alcotest.(check int) "and" 2
    (List.length
       (rows db "SELECT p.name FROM people AS p WHERE p.city = 'nyc' AND p.age > 28"))

let test_index_lookup () =
  let db = people_db () in
  let r = rows db "SELECT p.age FROM people AS p WHERE p.name = 'bob'" in
  Alcotest.(check int) "one row" 1 (List.length r);
  Alcotest.(check bool) "value" true (Value.equal (List.hd r).(0) (v_int 40))

let test_inner_join () =
  let db = people_db () in
  let r =
    rows db
      "SELECT p.name AS n, q.pet AS pet FROM people AS p JOIN pets AS q ON q.owner = p.name"
  in
  Alcotest.(check int) "3 pet rows" 3 (List.length r)

let test_left_join () =
  let db = people_db () in
  let r =
    rows db
      "SELECT p.name AS n, q.pet AS pet FROM people AS p LEFT OUTER JOIN pets AS q ON q.owner = p.name"
  in
  (* alice x2, carol x1, bob+dave null-extended *)
  Alcotest.(check int) "5 rows" 5 (List.length r);
  let nulls = List.filter (fun row -> Value.is_null row.(1)) r in
  Alcotest.(check int) "2 null-extended" 2 (List.length nulls)

let test_union_distinct_order () =
  let db = people_db () in
  let r =
    rows db
      "(SELECT p.city AS c FROM people AS p) UNION (SELECT p.city AS c FROM people AS p)"
  in
  Alcotest.(check int) "union dedupes" 2 (List.length r);
  let r =
    rows db
      "(SELECT p.city AS c FROM people AS p) UNION ALL (SELECT p.city AS c FROM people AS p)"
  in
  Alcotest.(check int) "union all keeps" 8 (List.length r);
  let r = rows db "SELECT DISTINCT p.city AS c FROM people AS p ORDER BY c" in
  Alcotest.(check int) "distinct" 2 (List.length r);
  Alcotest.(check bool) "ordered" true (Value.equal (List.hd r).(0) (v_str "nyc"))

let test_limit_offset () =
  let db = people_db () in
  let r = rows db "SELECT p.name AS n FROM people AS p ORDER BY n LIMIT 2 OFFSET 1" in
  Alcotest.(check int) "2 rows" 2 (List.length r);
  Alcotest.(check bool) "second name" true (Value.equal (List.hd r).(0) (v_str "bob"))

let test_cte_chain () =
  let db = people_db () in
  let r =
    rows db
      "WITH ny AS (SELECT p.name AS n, p.age AS a FROM people AS p WHERE p.city = 'nyc'), old AS (SELECT y.n AS n FROM ny AS y WHERE y.a >= 30) SELECT o.n FROM old AS o ORDER BY o.n"
  in
  Alcotest.(check int) "2 rows" 2 (List.length r)

let test_case_coalesce () =
  let db = people_db () in
  let r =
    rows db
      "SELECT CASE WHEN p.age > 32 THEN 'old' ELSE 'young' END AS bucket FROM people AS p WHERE p.name = 'bob'"
  in
  Alcotest.(check bool) "case" true (Value.equal (List.hd r).(0) (v_str "old"));
  let r = rows db "SELECT COALESCE(NULL, p.city) AS c FROM people AS p WHERE p.name = 'bob'" in
  Alcotest.(check bool) "coalesce" true (Value.equal (List.hd r).(0) (v_str "sfo"))

let test_lateral_values () =
  let db = people_db () in
  let r =
    rows db
      "SELECT p.name AS n, L.x AS x FROM people AS p JOIN LATERAL (VALUES (p.age), (p.age + 1)) AS L(x) ON TRUE WHERE p.name = 'alice'"
  in
  Alcotest.(check int) "2 lateral rows" 2 (List.length r)

let test_in_like_isnull () =
  let db = people_db () in
  Alcotest.(check int) "in list" 2
    (List.length (rows db "SELECT p.name FROM people AS p WHERE p.name IN ('alice', 'bob')"));
  Alcotest.(check int) "like" 1
    (List.length (rows db "SELECT p.name FROM people AS p WHERE p.name LIKE '%ob'"));
  Alcotest.(check int) "is null on left join" 2
    (List.length
       (rows db
          "SELECT p.name FROM people AS p LEFT OUTER JOIN pets AS q ON q.owner = p.name WHERE q.pet IS NULL"))

let test_three_valued_logic () =
  let db = people_db () in
  (* NULL comparisons are unknown, so the filter drops them. *)
  let r =
    rows db
      "SELECT p.name FROM people AS p LEFT OUTER JOIN pets AS q ON q.owner = p.name WHERE q.pet <> 'cat'"
  in
  Alcotest.(check int) "unknown filtered" 2 (List.length r)

let test_timeout () =
  let db = Database.create "t" in
  let t = Database.create_table db "big" (Schema.make [ "x" ]) in
  for i = 0 to 400 do
    ignore (Table.insert t [| v_int i |])
  done;
  Alcotest.check_raises "timeout fires" Executor.Timeout (fun () ->
      ignore
        (Executor.run ~timeout:0.0 db
           (Sql_parser.parse
              "SELECT a.x FROM big AS a JOIN big AS b ON TRUE JOIN big AS c ON TRUE WHERE a.x + b.x + c.x = 0")))

let test_hash_join_fallback () =
  let db = people_db () in
  (* join on a non-indexed column pair -> hash join; result correctness *)
  let r =
    rows db
      "SELECT p.name, q.name FROM people AS p JOIN people AS q ON q.city = p.city WHERE p.name = 'alice'"
  in
  Alcotest.(check int) "city self-join" 3 (List.length r)

(* ------------------------------------------------------------------ *)
(* SQL pretty-printer / parser round trip                              *)
(* ------------------------------------------------------------------ *)

let test_pp_parse_cases () =
  let cases =
    [ "SELECT a.x FROM t AS a";
      "SELECT a.x AS y FROM t AS a WHERE a.x = 3 AND a.y <> 'q''uote'";
      "SELECT DISTINCT a.x FROM t AS a ORDER BY a.x DESC LIMIT 5 OFFSET 2";
      "WITH c AS (SELECT a.x FROM t AS a) SELECT c0.x FROM c AS c0";
      "SELECT a.x FROM t AS a LEFT OUTER JOIN u AS b ON b.k = a.x OR b.k IS NULL";
      "SELECT CASE WHEN a.x = 1 THEN 'one' ELSE 'many' END AS w FROM t AS a";
      "SELECT COALESCE(a.x, a.y, 0) FROM t AS a WHERE a.z IN (1, 2, 3)";
      "SELECT a.x FROM t AS a JOIN LATERAL (VALUES (a.p, a.q), (a.r, a.s)) AS L(m, n) ON TRUE WHERE L.m IS NOT NULL";
      "(SELECT a.x FROM t AS a) UNION ALL (SELECT b.x FROM u AS b)";
      "SELECT a.x FROM t AS a WHERE a.s LIKE '%foo%' AND NOT a.b OR a.x <= lid:3" ]
  in
  List.iter
    (fun src ->
      let s1 = Sql_pp.to_string (Sql_parser.parse src) in
      let s2 = Sql_pp.to_string (Sql_parser.parse s1) in
      Alcotest.(check string) ("roundtrip: " ^ src) s1 s2)
    cases

(* Random expression generator for the pp/parse property. *)
let gen_expr : Sql_ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_value =
    oneof
      [ return Value.Null;
        map (fun i -> Value.Int i) (int_range (-100) 100);
        map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Lid i) (int_range 0 50) ]
  in
  let gen_col =
    map2
      (fun q n -> Sql_ast.Col (Some ("t" ^ string_of_int q), "c" ^ string_of_int n))
      (int_range 0 3) (int_range 0 5)
  in
  fix
    (fun self depth ->
      if depth = 0 then oneof [ map (fun v -> Sql_ast.Const v) gen_value; gen_col ]
      else
        frequency
          [ (2, map (fun v -> Sql_ast.Const v) gen_value);
            (2, gen_col);
            ( 3,
              map3
                (fun op a b -> Sql_ast.Binop (op, a, b))
                (oneofl
                   Sql_ast.
                     [ Eq; Neq; Lt; Leq; Gt; Geq; And; Or; Add; Sub; Mul; Div;
                       Concat ])
                (self (depth - 1)) (self (depth - 1)) );
            (1, map (fun e -> Sql_ast.Not e) (self (depth - 1)));
            (1, map (fun e -> Sql_ast.Is_null e) (self (depth - 1)));
            (1, map (fun e -> Sql_ast.Is_not_null e) (self (depth - 1)));
            ( 1,
              map2
                (fun c e -> Sql_ast.Case ([ (c, e) ], Some e))
                (self (depth - 1)) (self (depth - 1)) );
            (1, map (fun es -> Sql_ast.Coalesce es) (list_size (int_range 1 3) (self (depth - 1))));
            ( 1,
              map2
                (fun e vs -> Sql_ast.In_list (e, vs))
                (self (depth - 1))
                (list_size (int_range 1 3) gen_value) ) ])
    3

let expr_roundtrip =
  QCheck.Test.make ~name:"sql expr pp/parse roundtrip" ~count:300
    (QCheck.make gen_expr ~print:Sql_pp.expr_to_string)
    (fun e ->
      let sql =
        Sql_pp.to_string
          (Sql_ast.stmt
             (Sql_ast.Select
                { Sql_ast.empty_select with
                  items = [ { Sql_ast.expr = e; alias = Some "e" } ];
                  from = Some (Sql_ast.From_table { table = "t"; alias = "t0" }) }))
      in
      let reparsed = Sql_parser.parse sql in
      Sql_pp.to_string reparsed = sql)

(* Expression evaluation: compare against a tiny interpreter of 3VL for
   specific identities. *)
let expr_eval_identities =
  QCheck.Test.make ~name:"3VL: NOT (a AND b) = NOT a OR NOT b" ~count:200
    QCheck.(
      make
        Gen.(pair (oneofl [ Some true; Some false; None ]) (oneofl [ Some true; Some false; None ])))
    (fun (a, b) ->
      let v = function
        | Some x -> Value.Bool x
        | None -> Value.Null
      in
      let to_expr x = Sql_ast.Const (v x) in
      let eval e = Expr_eval.eval_const e in
      let lhs = eval (Sql_ast.Not (Sql_ast.Binop (Sql_ast.And, to_expr a, to_expr b))) in
      let rhs =
        eval
          (Sql_ast.Binop (Sql_ast.Or, Sql_ast.Not (to_expr a), Sql_ast.Not (to_expr b)))
      in
      Value.equal lhs rhs)

(* ------------------------------------------------------------------ *)
(* Column resolution                                                   *)
(* ------------------------------------------------------------------ *)

let test_resolve () =
  let layout : Expr_eval.layout =
    [| (Some "T0", "entry"); (Some "T0", "val0"); (Some "T1", "entry");
       (Some "T1", "val1"); (None, "s") |]
  in
  let resolve = Expr_eval.resolve layout in
  (* Qualified: the qualifier picks between two same-named columns. *)
  Alcotest.(check int) "T0.entry" 0 (resolve (Some "T0", "entry"));
  Alcotest.(check int) "T1.entry" 2 (resolve (Some "T1", "entry"));
  (* Unqualified: a name held by one column resolves to it, whatever
     its qualifier. *)
  Alcotest.(check int) "val1" 3 (resolve (None, "val1"));
  Alcotest.(check int) "s" 4 (resolve (None, "s"));
  let raises what want col =
    match resolve col with
    | i -> Alcotest.failf "%s: resolved to %d" what i
    | exception Expr_eval.Unknown_column msg ->
      Alcotest.(check string) what want msg
  in
  raises "ambiguous" "entry (ambiguous)" (None, "entry");
  raises "missing unqualified" "nope" (None, "nope");
  raises "missing qualified" "T2.entry" (Some "T2", "entry");
  raises "qualifier must match" "T1.val0" (Some "T1", "val0");
  (* An unqualified layout column does not answer a qualified name. *)
  raises "qualified vs unqualified" "T0.s" (Some "T0", "s")

let suite =
  [ Alcotest.test_case "value ordering" `Quick test_value_order;
    Alcotest.test_case "value printing" `Quick test_value_roundtrip;
    Alcotest.test_case "schema" `Quick test_schema;
    Alcotest.test_case "table index maintenance" `Quick test_table_index;
    Alcotest.test_case "table growth" `Quick test_table_growth;
    Alcotest.test_case "null fraction" `Quick test_null_fraction;
    Alcotest.test_case "scan + filter" `Quick test_scan_filter;
    Alcotest.test_case "index lookup" `Quick test_index_lookup;
    Alcotest.test_case "inner join" `Quick test_inner_join;
    Alcotest.test_case "left outer join" `Quick test_left_join;
    Alcotest.test_case "union / distinct / order" `Quick test_union_distinct_order;
    Alcotest.test_case "limit / offset" `Quick test_limit_offset;
    Alcotest.test_case "CTE chain" `Quick test_cte_chain;
    Alcotest.test_case "case / coalesce" `Quick test_case_coalesce;
    Alcotest.test_case "lateral values" `Quick test_lateral_values;
    Alcotest.test_case "in / like / is-null" `Quick test_in_like_isnull;
    Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
    Alcotest.test_case "query timeout" `Quick test_timeout;
    Alcotest.test_case "hash join fallback" `Quick test_hash_join_fallback;
    Alcotest.test_case "pp/parse cases" `Quick test_pp_parse_cases;
    Alcotest.test_case "column resolution" `Quick test_resolve;
    QCheck_alcotest.to_alcotest expr_roundtrip;
    QCheck_alcotest.to_alcotest expr_eval_identities ]
