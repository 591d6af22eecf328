(** Morsel-driven parallel execution: domain-pool unit tests, the LRU
    behind the scan cache, engine reads across a write, batch growth,
    and — the load-bearing property — exact (row-for-row,
    order-included) equality between sequential and parallel execution
    of the same statements. *)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let with_pool n f =
  let pool = Relsql.Dpool.create n in
  Fun.protect ~finally:(fun () -> Relsql.Dpool.shutdown pool) (fun () -> f pool)

let test_dpool_empty () =
  with_pool 4 (fun pool ->
      let called = ref false in
      let participants =
        Relsql.Dpool.run pool ~morsels:0 (fun ~worker:_ _ -> called := true)
      in
      Alcotest.(check int) "no participants on empty job" 0 participants;
      Alcotest.(check bool) "body never called" false !called)

let test_dpool_each_morsel_once () =
  with_pool 4 (fun pool ->
      let m = 200 in
      let hits = Array.init m (fun _ -> Atomic.make 0) in
      let participants =
        Relsql.Dpool.run pool ~morsels:m (fun ~worker:_ i ->
            ignore (Atomic.fetch_and_add hits.(i) 1))
      in
      Alcotest.(check bool) "at least the submitter participated" true
        (participants >= 1 && participants <= 4);
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "morsel %d ran exactly once" i)
            1 (Atomic.get c))
        hits)

let test_dpool_worker_ids_in_bounds () =
  with_pool 4 (fun pool ->
      let used = Array.init 8 (fun _ -> Atomic.make false) in
      let oob = Atomic.make false in
      ignore
        (Relsql.Dpool.run pool ~morsels:64 (fun ~worker i ->
             if worker < 0 || worker >= 4 then Atomic.set oob true
             else Atomic.set used.(worker) true;
             (* a little work so other domains get a chance to join *)
             if i land 7 = 0 then Domain.cpu_relax ()));
      Alcotest.(check bool) "worker ids within [0, size)" false
        (Atomic.get oob);
      Alcotest.(check bool) "worker 0 (a participant) ran" true
        (Array.exists Atomic.get used))

exception Boom of int

let test_dpool_exception_propagates () =
  with_pool 4 (fun pool ->
      let raised =
        match
          Relsql.Dpool.run pool ~morsels:100 (fun ~worker:_ i ->
              if i = 37 then raise (Boom i))
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      Alcotest.(check (option int)) "Boom re-raised in submitter" (Some 37)
        raised;
      (* The pool survives a failed job and runs the next one. *)
      let n = Atomic.make 0 in
      ignore
        (Relsql.Dpool.run pool ~morsels:50 (fun ~worker:_ _ ->
             ignore (Atomic.fetch_and_add n 1)));
      Alcotest.(check int) "pool usable after exception" 50 (Atomic.get n))

let test_dpool_nested_runs_inline () =
  with_pool 4 (fun pool ->
      let inner_participants = ref (-1) in
      ignore
        (Relsql.Dpool.run pool ~morsels:4 (fun ~worker:_ i ->
             if i = 0 then
               inner_participants :=
                 Relsql.Dpool.run pool ~morsels:4 (fun ~worker:_ _ -> ())));
      (* The nested job must complete (no deadlock) and degrade to the
         inline sequential path: exactly one participant. *)
      Alcotest.(check int) "nested run degrades to inline" 1
        !inner_participants)

(* ------------------------------------------------------------------ *)
(* Plan cache (the scan cache's LRU) and engine reads                  *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_lru () =
  let c = Relsql.Plan_cache.create ~capacity:2 () in
  Relsql.Plan_cache.add c "a" 1;
  Relsql.Plan_cache.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Relsql.Plan_cache.find c "a");
  (* "b" is now least recently used; adding "c" evicts it. *)
  Relsql.Plan_cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Relsql.Plan_cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1)
    (Relsql.Plan_cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3)
    (Relsql.Plan_cache.find c "c");
  let s = Relsql.Plan_cache.stats c in
  Alcotest.(check int) "hits" 3 s.Relsql.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 s.Relsql.Plan_cache.misses;
  Alcotest.(check int) "entries" 2 s.Relsql.Plan_cache.entries

let test_plan_cache_clear_keeps_counters () =
  let c = Relsql.Plan_cache.create ~capacity:4 () in
  Relsql.Plan_cache.add c "a" 1;
  ignore (Relsql.Plan_cache.find c "a");
  ignore (Relsql.Plan_cache.find c "zz");
  Relsql.Plan_cache.clear c;
  let s = Relsql.Plan_cache.stats c in
  Alcotest.(check int) "entries dropped" 0 s.Relsql.Plan_cache.entries;
  Alcotest.(check int) "hit counter survives clear" 1 s.Relsql.Plan_cache.hits;
  Alcotest.(check int) "miss counter survives clear" 1
    s.Relsql.Plan_cache.misses;
  Alcotest.(check (option int)) "entry gone" None
    (Relsql.Plan_cache.find c "a")

let count_query = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"

let first_int (r : Sparql.Ref_eval.results) =
  match r.Sparql.Ref_eval.rows with
  | [ [ Some (Rdf.Term.Lit { Rdf.Term.lex; _ }) ] ] -> int_of_string lex
  | _ -> Alcotest.fail "expected one single-column integer row"

let test_engine_reads_see_writes () =
  let e = Db2rdf.Engine.create () in
  Db2rdf.Engine.load e (Helpers.fig1_triples ());
  let n0 = first_int (Db2rdf.Engine.query_string e count_query) in
  let n1 = first_int (Db2rdf.Engine.query_string e count_query) in
  Alcotest.(check int) "repeat gives same count" n0 n1;
  (* Translation depends on dataset statistics; every read translates
     against the current ones, so a read after a write sees it. *)
  Db2rdf.Engine.insert e
    (Rdf.Triple.spo "fresh-s" "fresh-p" (Rdf.Term.iri "fresh-o"));
  let n2 = first_int (Db2rdf.Engine.query_string e count_query) in
  Alcotest.(check int) "post-insert count sees the new triple" (n0 + 1) n2;
  let n3 = first_int (Db2rdf.Engine.query_string e count_query) in
  Alcotest.(check int) "repeat after the insert gives the same count" n2 n3

(* ------------------------------------------------------------------ *)
(* Batch growth                                                        *)
(* ------------------------------------------------------------------ *)

let test_batch_growth () =
  (* Start from a 0-capacity hint and push enough rows to force many
     doublings; contents must survive every reallocation. *)
  let layout = [| (Some "t", "a"); (Some "t", "b") |] in
  let b = Relsql.Batch.create ~capacity:0 layout in
  let scratch = Array.make 2 Relsql.Value.Null in
  for i = 0 to 9_999 do
    scratch.(0) <- Relsql.Value.Int i;
    scratch.(1) <- (if i land 1 = 0 then Relsql.Value.Str (string_of_int i)
                    else Relsql.Value.Null);
    Relsql.Batch.push_row b scratch
  done;
  Alcotest.(check int) "length" 10_000 (Relsql.Batch.length b);
  for i = 0 to 9_999 do
    (match Relsql.Batch.get b i 0 with
     | Relsql.Value.Int j when j = i -> ()
     | v -> Alcotest.failf "row %d col 0: %s" i (Relsql.Value.to_string v));
    match Relsql.Batch.get b i 1 with
    | Relsql.Value.Str s when i land 1 = 0 && s = string_of_int i -> ()
    | Relsql.Value.Null when i land 1 = 1 -> ()
    | v -> Alcotest.failf "row %d col 1: %s" i (Relsql.Value.to_string v)
  done

(* ------------------------------------------------------------------ *)
(* Sequential ≡ parallel                                               *)
(* ------------------------------------------------------------------ *)

(** Lower the parallel threshold so even tiny inputs take the morsel
    paths, run [f], and restore. *)
let with_tiny_morsels f =
  let saved = !Relsql.Executor.par_min_rows in
  Relsql.Executor.par_min_rows := 2;
  Fun.protect
    ~finally:(fun () -> Relsql.Executor.par_min_rows := saved)
    f

let batch_strings b =
  List.map
    (fun row ->
      String.concat "\t"
        (List.map Relsql.Value.to_string (Array.to_list row)))
    (Relsql.Batch.to_rows b)

(** Queries stressing every parallel operator: fused scan, hash-join
    probe, grouped/global aggregation (with DISTINCT), and the parallel
    sort — plus LIMIT/OFFSET so the k-way merge's tie-breaking shows. *)
let par_queries =
  [ ("scan", "SELECT ?s ?o WHERE { ?s ?p ?o }");
    ("sort", "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s");
    ("sort-window",
     "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) LIMIT 37 OFFSET 11");
    ("distinct", "SELECT DISTINCT ?p WHERE { ?s ?p ?o }");
    ("join",
     "SELECT ?a ?b ?v WHERE { ?a <http://microbench.org/SV1> ?b . \
      ?a <http://microbench.org/SV2> ?v }");
    ("group-count",
     "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p");
    ("group-distinct",
     "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p");
    ("group-minmax",
     "SELECT ?p (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE { ?s ?p ?o } \
      GROUP BY ?p");
    ("global-count", "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }") ]

let test_seq_equals_par () =
  with_tiny_morsels (fun () ->
      let triples = Workloads.Micro.generate ~scale:3_000 in
      let e, _, _ =
        Db2rdf.Engine.create_colored
          ~layout:(Db2rdf.Layout.make ~dph_cols:8 ~rph_cols:8) triples
      in
      let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
      let check (name, src) =
        let stmt = Db2rdf.Engine.translate e (Sparql.Parser.parse src) in
        let seq = Relsql.Executor.run ~domains:1 db stmt in
        let par = Relsql.Executor.run ~domains:4 db stmt in
        Alcotest.(check (list string))
          (name ^ ": parallel rows and order match sequential")
          (batch_strings seq) (batch_strings par)
      in
      List.iter check par_queries;
      List.iter
        (fun (name, src) ->
          check ("micro " ^ name, src))
        Workloads.Micro.queries)

(** Numeric aggregation (SUM/AVG over ints and decimals) under merged
    per-worker partial states, checked against the reference evaluator
    through the fuzzer's own differential comparison. *)
let test_par_numeric_aggregates_vs_oracle () =
  let buf = Buffer.create 4096 in
  for i = 0 to 199 do
    Buffer.add_string buf
      (Printf.sprintf
         "<s%d> <v> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
         i (i mod 17));
    Buffer.add_string buf
      (Printf.sprintf
         "<s%d> <w> \"%s\"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n"
         i (if i land 1 = 0 then "2.5" else "-1.5"));
    Buffer.add_string buf (Printf.sprintf "<s%d> <g> <k%d> .\n" i (i mod 5))
  done;
  let r =
    Fuzz.Repro.of_string
      ("-- query\nSELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }\n-- data\n"
       ^ Buffer.contents buf)
  in
  let queries =
    [ "SELECT (SUM(?o) AS ?t) (AVG(?o) AS ?a) WHERE { ?s <v> ?o }";
      "SELECT (SUM(?o) AS ?t) WHERE { ?s <w> ?o }";
      "SELECT ?k (SUM(?o) AS ?t) (COUNT(DISTINCT ?o) AS ?d) \
       WHERE { ?s <g> ?k . ?s <v> ?o } GROUP BY ?k";
      "SELECT ?k (AVG(?o) AS ?a) (MIN(?o) AS ?lo) \
       WHERE { ?s <g> ?k . ?s <w> ?o } GROUP BY ?k" ]
  in
  List.iter
    (fun src ->
      let q = Sparql.Parser.parse src in
      match Fuzz.Runner.run_case ~domains:4 r.Fuzz.Repro.triples q with
      | Fuzz.Runner.Agree -> ()
      | Fuzz.Runner.Skipped why -> Alcotest.failf "%s skipped: %s" src why
      | Fuzz.Runner.Diverged ds ->
        Alcotest.failf "%s diverged on %s" src
          (String.concat ", "
             (List.map (fun d -> d.Fuzz.Runner.backend) ds)))
    queries

(** Replay the committed reproducer corpus with 4 executor domains. *)
let test_corpus_replay_parallel () =
  let files =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let r = Fuzz.Repro.read (Filename.concat "corpus" f) in
      match Fuzz.Runner.check_repro ~domains:4 r with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s (domains=4): %s" f msg)
    files

(** Fixed-seed differential sweep with parallel executors: 200 random
    (graph, query) cases, every backend vs the reference evaluator. *)
let test_fuzz_sweep_parallel () =
  let config =
    { Fuzz.Runner.default_config with seed = 1337; cases = 200; domains = 4 }
  in
  let s = Fuzz.Runner.fuzz config in
  Alcotest.(check int) "no divergences with domains=4" 0
    s.Fuzz.Runner.divergent;
  Alcotest.(check int) "all cases ran" 200 s.Fuzz.Runner.cases_run

let suite =
  [ Alcotest.test_case "dpool: empty job" `Quick test_dpool_empty;
    Alcotest.test_case "dpool: each morsel exactly once" `Quick
      test_dpool_each_morsel_once;
    Alcotest.test_case "dpool: worker ids in bounds" `Quick
      test_dpool_worker_ids_in_bounds;
    Alcotest.test_case "dpool: exception propagates, pool survives" `Quick
      test_dpool_exception_propagates;
    Alcotest.test_case "dpool: nested run degrades inline" `Quick
      test_dpool_nested_runs_inline;
    Alcotest.test_case "plan cache: LRU eviction + stats" `Quick
      test_plan_cache_lru;
    Alcotest.test_case "plan cache: clear keeps counters" `Quick
      test_plan_cache_clear_keeps_counters;
    Alcotest.test_case "engine reads see writes" `Quick
      test_engine_reads_see_writes;
    Alcotest.test_case "batch: growth preserves contents" `Quick
      test_batch_growth;
    Alcotest.test_case "sequential ≡ parallel (rows and order)" `Slow
      test_seq_equals_par;
    Alcotest.test_case "parallel numeric aggregates vs oracle" `Quick
      test_par_numeric_aggregates_vs_oracle;
    Alcotest.test_case "corpus replay with domains=4" `Quick
      test_corpus_replay_parallel;
    Alcotest.test_case "fuzz sweep with domains=4 (200 cases)" `Slow
      test_fuzz_sweep_parallel ]
