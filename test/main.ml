(** Test entry point: one alcotest run over every suite. *)

let () =
  Alcotest.run "db2rdf"
    [ ("relsql", Test_relsql.suite);
      ("rdf", Test_rdf.suite);
      ("sparql", Test_sparql.suite);
      ("coloring", Test_coloring.suite);
      ("loader", Test_loader.suite);
      ("optimizer", Test_optimizer.suite);
      ("planner", Test_planner.suite);
      ("baselines", Test_baselines.suite);
      ("engine", Test_engine.suite);
      ("workloads", Test_workloads.suite);
      ("inference", Test_inference.suite);
      ("update", Test_update.suite);
      ("snapshot", Test_snapshot.suite);
      ("paths", Test_paths.suite);
      ("executor-stats", Test_executor_stats.suite);
      ("sqlgen", Test_sqlgen.suite);
      ("aggregates", Test_aggregates.suite);
      ("fuzz", Test_fuzz.suite);
      ("parallel", Test_parallel.suite);
      ("join", Test_join.suite);
      ("compress", Test_compress.suite);
      ("cell", Test_cell.suite);
      ("wcoj", Test_wcoj.suite);
      ("extvp", Test_extvp.suite);
      ("bench", Test_bench.suite) ]
