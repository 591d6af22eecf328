(** E14 — radix-partitioned hash-join builds: join-heavy queries over
    the Micro workload measured at domain counts doubling from 1 up to
    [--domains], on one shared store so only the domain count varies.
    Each hash-join build splits into the executor's automatic partition
    count: 1 on one domain, twice the domain count otherwise.

    The hash-join shapes come from OPTIONAL group joins (the planner
    hash-joins a subquery against a subquery; star BGPs fuse into
    scans or index nested-loop joins instead), plus two stars whose
    index-probe loop exercises the parallel probe side. Every domain
    count is asserted row-for-row, order-included equal to the
    sequential run before it is timed.

    With [--json-dir] the experiment writes BENCH_join.json: every
    domain count's timings, per-query speedups of the largest against
    the sequential baseline, their geometric mean, how many partitions
    each query's builds used there, and the host's core count — on a
    single-core host the curve measures partitioning overhead, not
    speedup, and the JSON says so next to the numbers. *)

let ns = "http://microbench.org/"

(** OPTIONAL group joins produce HashJoin(left) operators whose build
    side is a real subquery — the partitioned build's target. The three
    variants scale the build side from one predicate to a chain. *)
let hash_join_queries =
  [ ("HJ1",
     Printf.sprintf
       "SELECT ?a ?b ?c WHERE { ?a <%sSV1> ?b . \
        OPTIONAL { ?c <%sSV2> ?b . ?c <%sSV3> ?d } }"
       ns ns ns);
    ("HJ2",
     Printf.sprintf
       "SELECT ?a ?b ?c WHERE { ?a <%sSV2> ?b . \
        OPTIONAL { ?c <%sSV3> ?b . ?c <%sSV4> ?d . ?c <%sSV5> ?e } }"
       ns ns ns ns);
    ("HJ3",
     Printf.sprintf
       "SELECT ?a ?b ?c ?x WHERE { ?a <%sSV1> ?b . ?a <%sSV4> ?x . \
        OPTIONAL { ?c <%sMV1> ?b } }"
       ns ns ns) ]

let star_queries =
  List.filter (fun (n, _) -> List.mem n [ "Q2"; "Q5" ]) Workloads.Micro.queries

let queries () = hash_join_queries @ star_queries

let curve top =
  let rec up d = if d >= top then [ top ] else d :: up (2 * d) in
  List.sort_uniq compare (up 1)

let geomean = function
  | [] -> None
  | xs ->
    Some
      (exp
         (List.fold_left (fun a x -> a +. log x) 0.0 xs
          /. float_of_int (List.length xs)))

let batch_strings b =
  List.map
    (fun row ->
      String.concat "\t"
        (List.map Relsql.Value.to_string (Array.to_list row)))
    (Relsql.Batch.to_rows b)

let run (cfg : Harness.config) =
  Harness.section
    (Printf.sprintf
       "E14. Partitioned hash-join build over domains — %d triples"
       cfg.Harness.scale);
  let cores = Domain.recommended_domain_count () in
  let top = max 1 cfg.Harness.domains in
  let counts = curve top in
  Printf.printf "host reports %d available core(s); domains {%s}\n%!" cores
    (String.concat " " (List.map string_of_int counts));
  let triples = Workloads.Micro.generate ~scale:cfg.Harness.scale in
  let (engine, _, _), load_seconds =
    Harness.timed (fun () ->
        Db2rdf.Engine.create_colored
          ~layout:(Db2rdf.Layout.make ~dph_cols:24 ~rph_cols:24) triples)
  in
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader engine) in
  let qs =
    List.map (fun (n, src) -> (n, Sparql.Parser.parse src)) (queries ())
  in
  (* Equality gate: every domain count must reproduce the sequential
     rows exactly (same rows, same order) before anything is timed. *)
  let stmts =
    List.map (fun (n, q) -> (n, Db2rdf.Engine.translate engine q)) qs
  in
  List.iter
    (fun (qname, stmt) ->
      let expect = batch_strings (Relsql.Executor.run ~domains:1 db stmt) in
      List.iter
        (fun d ->
          let got = batch_strings (Relsql.Executor.run ~domains:d db stmt) in
          if got <> expect then
            failwith
              (Printf.sprintf
                 "E14 equality violation: %s at domains=%d diverges from the \
                  sequential executor"
                 qname d))
        counts)
    stmts;
  Printf.printf
    "equality: every domain count matches the sequential rows\n%!";
  (* How many partitions each query's builds use at the top domain
     count — stars fuse into scans, so only the HJ queries are expected
     to partition. *)
  let partitioned_ops =
    List.map
      (fun (qname, stmt) ->
        let _, stats = Relsql.Executor.run_analyzed ~domains:top db stmt in
        let parts =
          Relsql.Opstats.fold
            (fun acc n -> max acc n.Relsql.Opstats.partitions)
            0 stats
        in
        (qname, parts))
      stmts
  in
  let sweep d : (string * Harness.measurement) list =
    Relsql.Database.set_parallelism db d;
    let sys =
      { Harness.sys_name = Printf.sprintf "%dd" d;
        store = Db2rdf.Engine.to_store engine; load_seconds }
    in
    List.map (fun (qname, q) -> (qname, Harness.measure cfg sys qname q)) qs
  in
  let grid = List.map (fun d -> (d, sweep d)) counts in
  Relsql.Database.set_parallelism db 1;
  let base = List.assoc 1 grid in
  let speedup_at key qname =
    match (List.assoc_opt qname base, List.assoc_opt key grid) with
    | Some b, Some ms ->
      (match (b.Harness.m_outcome, List.assoc_opt qname ms) with
       | `Complete _, Some m when m.Harness.m_outcome <> `Timeout
                                  && m.Harness.m_seconds > 0.0 ->
         Some (b.Harness.m_seconds /. m.Harness.m_seconds)
       | _ -> None)
    | _ -> None
  in
  Harness.subsection
    (Printf.sprintf
       "Join queries over domains (ms; speedup at %dd)" top);
  Harness.print_table
    ("Query"
     :: List.map (fun (d, _) -> Printf.sprintf "%dd" d) grid
     @ [ "x@top" ])
    (List.map
       (fun (qname, _) ->
         qname
         :: List.map
              (fun (_, ms) -> Harness.outcome_cell (List.assoc qname ms))
              grid
         @ [ (match speedup_at top qname with
              | Some s -> Printf.sprintf "%.2fx" s
              | None -> "-") ])
       qs);
  let gm =
    geomean
      (List.filter_map (fun (qname, _) -> speedup_at top qname) qs)
  in
  (match gm with
   | Some g ->
     Printf.printf
       "\ngeomean speedup at %d domains: %.2fx (host has %d core(s) — \
        speedup > 1 requires real cores)\n%!"
       top g cores
   | None -> Printf.printf "\ngeomean speedup: n/a\n%!");
  Harness.write_json cfg ~file:"BENCH_join.json"
    (Harness.J_obj
       [ ("experiment", Harness.J_str "partitioned-hash-join");
         ("workload", Harness.J_str "micro");
         ("scale", Harness.J_int cfg.Harness.scale);
         ("runs", Harness.J_int cfg.Harness.runs);
         ("host_cores", Harness.J_int cores);
         ( "note",
           Harness.J_str
             (Printf.sprintf
                "domain counts share one store; hash-join builds split \
                 into 1 partition on one domain and 2 x domains otherwise. \
                 Speedups are bounded by the %d core(s) of this host — on \
                 a single-core host the curve measures partitioning \
                 overhead, not speedup. Every domain count was asserted \
                 row-identical to the sequential executor before timing."
                cores) );
         ("equality_checked", Harness.J_str "all domain counts vs sequential");
         ( "partitioned_operators",
           Harness.J_obj
             (List.map
                (fun (qname, parts) -> (qname, Harness.J_int parts))
                partitioned_ops) );
         ( "grid",
           Harness.J_list
             (List.map
                (fun (d, ms) ->
                  Harness.J_obj
                    [ ("domains", Harness.J_int d);
                      ( "measurements",
                        Harness.J_list
                          (List.map
                             (fun (qname, m) ->
                               Harness.J_obj
                                 [ ("query", Harness.J_str qname);
                                   ("m", Harness.measurement_json m) ])
                             ms) ) ])
                grid) );
         ( "speedup_vs_sequential",
           Harness.J_obj
             (List.filter_map
                (fun (qname, _) ->
                  Option.map
                    (fun s -> (qname, Harness.J_float s))
                    (speedup_at top qname))
                qs) );
         ( "geomean_speedup",
           match gm with
           | Some g -> Harness.J_float g
           | None -> Harness.J_str "n/a" ) ])
