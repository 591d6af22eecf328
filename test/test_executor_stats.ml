(** EXPLAIN ANALYZE instrumentation: the {!Relsql.Opstats} tree that
    {!Relsql.Executor.run_analyzed} returns alongside each result. *)

open Relsql

let v_int i = Value.Int i
let v_str s = Value.Str s

let fixture_db () =
  let db = Database.create "stats" in
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

let analyzed db sql = Executor.run_analyzed db (Sql_parser.parse sql)

(* Structural invariants that must hold for every operator in every
   tree: counters are non-negative, a node consumes at least what its
   inputs produced, and inclusive wall time covers the children's. *)
let check_invariants (stats : Opstats.t) =
  Opstats.iter
    (fun n ->
      Alcotest.(check bool)
        (n.Opstats.label ^ ": rows_out >= 0")
        true (n.Opstats.rows_out >= 0);
      let child_out =
        List.fold_left
          (fun acc c -> acc + c.Opstats.rows_out)
          0 n.Opstats.children
      in
      Alcotest.(check bool)
        (n.Opstats.label ^ ": rows_in >= children's rows_out")
        true (n.Opstats.rows_in >= child_out);
      Alcotest.(check bool)
        (n.Opstats.label ^ ": self time >= 0")
        true (Opstats.self_seconds n >= -1e-9))
    stats

let test_invariants () =
  let db = fixture_db () in
  let _, stats =
    analyzed db
      "SELECT p.name AS n, q.pet AS pet FROM people AS p JOIN pets AS q ON q.owner = p.name WHERE p.city = 'nyc'"
  in
  check_invariants stats;
  (* Statement root: the body wrapper reports the final cardinality
     (alice x2 + carol x1). *)
  Alcotest.(check int) "root rows_out" 3 stats.Opstats.rows_out

let test_scan_counts () =
  let db = fixture_db () in
  let b, stats = analyzed db "SELECT p.name FROM people AS p WHERE p.city = 'nyc'" in
  Alcotest.(check int) "result rows" 3 (Batch.length b);
  let scans = Opstats.find_all stats ~prefix:"SeqScan people" in
  Alcotest.(check int) "one scan node" 1 (List.length scans);
  let scan = List.hd scans in
  (* The fused scan consumed the whole table and emitted the survivors. *)
  Alcotest.(check int) "scan rows_in = table size" 4 scan.Opstats.rows_in;
  Alcotest.(check int) "scan rows_out = survivors" 3 scan.Opstats.rows_out

let test_index_probes () =
  let db = fixture_db () in
  let _, stats =
    analyzed db
      "SELECT p.name AS n, q.pet AS pet FROM people AS p JOIN pets AS q ON q.owner = p.name"
  in
  check_invariants stats;
  match Opstats.find_all stats ~prefix:"IndexNLJoin" with
  | [ j ] ->
    (* One probe per outer row (no NULL keys in the fixture), three
       matching pet rows blitted through. *)
    Alcotest.(check int) "probes = outer rows" 4 j.Opstats.index_probes;
    Alcotest.(check int) "join rows_out" 3 j.Opstats.rows_out
  | l -> Alcotest.failf "expected one IndexNLJoin node, got %d" (List.length l)

let test_hash_build () =
  let db = fixture_db () in
  let _, stats =
    analyzed db
      "SELECT p.name AS n FROM people AS p JOIN pets AS q ON q.pet = p.city"
  in
  check_invariants stats;
  match Opstats.find_all stats ~prefix:"HashJoin" with
  | [ j ] ->
    (* The build side is the pets batch: every row has a non-null key. *)
    Alcotest.(check int) "build rows" 3 j.Opstats.build_rows
  | l -> Alcotest.failf "expected one HashJoin node, got %d" (List.length l)

let test_analyzed_matches_run () =
  let db = fixture_db () in
  let sql =
    "SELECT p.city AS c, q.pet AS pet FROM people AS p LEFT OUTER JOIN pets AS q ON q.owner = p.name ORDER BY c"
  in
  let plain = Executor.run db (Sql_parser.parse sql) in
  let b, stats = analyzed db sql in
  check_invariants stats;
  Alcotest.(check int) "same cardinality" (Batch.length plain) (Batch.length b);
  Alcotest.(check bool) "same rows" true
    (List.for_all2
       (fun a b -> Array.for_all2 Value.equal a b)
       (Batch.to_rows plain) (Batch.to_rows b))

(* Preorder labels of the tree an analyzed run of [stmt] must return:
   the statement, then a [CTE <name>] / [body] wrapper over each part's
   operators, all in plan order. *)
let expected_labels db stmt =
  let rec labels p = Planner.node_label p :: List.concat_map labels (Planner.children p) in
  let ctes, (_, body) = Planner.plan_stmt db stmt in
  ("statement" :: List.concat_map (fun (n, _, p) -> ("CTE " ^ n) :: labels p) ctes)
  @ ("body" :: labels body)

(* Every workload query returns bit-identical batches from [run] and
   [run_analyzed] (same columns, rows and order) on a boxed and a
   compressed engine, sequentially and on two domains with the
   parallel threshold lowered so small inputs fan out too. Every
   analyzed tree keeps the invariants and mirrors the plan. *)
let test_analyzed_matches_run_workloads () =
  let saved = !Executor.par_min_rows in
  Executor.par_min_rows := 2;
  Fun.protect ~finally:(fun () -> Executor.par_min_rows := saved) @@ fun () ->
  List.iter
    (fun compress ->
      List.iter
        (fun (wname, generate, queries) ->
          let options = { Db2rdf.Engine.default_options with compress } in
          let e = Db2rdf.Engine.create ~options () in
          Db2rdf.Engine.load e (generate ~scale:1500);
          let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
          List.iter
            (fun (qname, src) ->
              let stmt = Db2rdf.Engine.translate e (Sparql.Parser.parse src) in
              let labels = expected_labels db stmt in
              List.iter
                (fun domains ->
                  let what =
                    Printf.sprintf "%s/%s compress=%b domains=%d" wname qname compress
                      domains
                  in
                  let plain = Executor.run ~domains db stmt in
                  let b, stats = Executor.run_analyzed ~domains db stmt in
                  Alcotest.(check (list string)) (what ^ ": columns")
                    (Executor.column_names plain) (Executor.column_names b);
                  Alcotest.(check int) (what ^ ": cardinality")
                    (Batch.length plain) (Batch.length b);
                  Alcotest.(check bool) (what ^ ": same rows, same order") true
                    (List.for_all2
                       (fun x y -> Array.for_all2 Value.equal x y)
                       (Batch.to_rows plain) (Batch.to_rows b));
                  check_invariants stats;
                  Alcotest.(check (list string)) (what ^ ": tree mirrors the plan") labels
                    (List.rev (Opstats.fold (fun acc n -> n.Opstats.label :: acc) [] stats)))
                [ 1; 2 ])
            queries)
        [ ("micro", Workloads.Micro.generate, Workloads.Micro.queries);
          ("lubm", Workloads.Lubm.generate, Workloads.Lubm.queries);
          ("sp2b", Workloads.Sp2b.generate, Workloads.Sp2b.queries);
          ("dbpedia", Workloads.Dbpedia.generate, Workloads.Dbpedia.queries);
          ("prbench", Workloads.Prbench.generate, Workloads.Prbench.queries) ])
    [ false; true ]

(* The soft timeout must still fire under the batch executor: its row
   ticker is the mechanism behind the paper's timeout classification. *)
let test_timeout_still_fires () =
  let db = Database.create "t" in
  let t = Database.create_table db "big" (Schema.make [ "x" ]) in
  for i = 0 to 400 do
    ignore (Table.insert t [| v_int i |])
  done;
  Alcotest.check_raises "timeout fires" Executor.Timeout (fun () ->
      ignore
        (Executor.run_analyzed ~timeout:0.0 db
           (Sql_parser.parse
              "SELECT a.x FROM big AS a JOIN big AS b ON TRUE JOIN big AS c ON TRUE WHERE a.x + b.x + c.x = 0")))

let test_explain_analyze_text () =
  let db = fixture_db () in
  let s =
    Executor.explain ~analyze:true db
      (Sql_parser.parse "SELECT p.name FROM people AS p WHERE p.city = 'nyc'")
  in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains needle))
    [ "body:"; "SeqScan people"; "analyze:"; "out="; "time=" ]

let suite =
  [ Alcotest.test_case "opstats invariants" `Quick test_invariants;
    Alcotest.test_case "scan rows in/out" `Quick test_scan_counts;
    Alcotest.test_case "index probes counted" `Quick test_index_probes;
    Alcotest.test_case "hash build size" `Quick test_hash_build;
    Alcotest.test_case "analyzed run matches run" `Quick test_analyzed_matches_run;
    Alcotest.test_case "analyzed run matches run on every workload query" `Slow
      test_analyzed_matches_run_workloads;
    Alcotest.test_case "timeout under analyze" `Quick test_timeout_still_fires;
    Alcotest.test_case "explain analyze text" `Quick test_explain_analyze_text ]
