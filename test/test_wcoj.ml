(** Worst-case-optimal multiway join: flat-form emission and its
    eligibility guards, leapfrog execution against the star-merged
    pipeline (bit-identical across compression and parallelism),
    characteristic-set statistics and their budgeted merge, the
    cost-model selector, per-view plans under {!Db2rdf.Engine.with_options},
    and the merge→query→write→query cache epoch invariant. *)

let wcoj_on = { Db2rdf.Engine.default_options with wcoj = true }

(** Replace the engine's cost-model selector with an unconditional yes,
    so the leapfrog operator runs whenever the plan shape allows — the
    datasets here are far too small for the CS chooser to pick it. *)
let force_wcoj e =
  Relsql.Database.set_wcoj_selector
    (Db2rdf.Loader.database (Db2rdf.Engine.loader e))
    (Some (fun _ -> { Relsql.Wcoj.use_wcoj = true; est_rows = 0 }))

let micro_triples = lazy (Workloads.Micro.generate ~scale:600)

let load_engine ?(options = Db2rdf.Engine.default_options) () =
  let e = Db2rdf.Engine.create ~options () in
  Db2rdf.Engine.load e (Lazy.force micro_triples);
  e

let star3 =
  Printf.sprintf "SELECT ?s ?a ?b ?c WHERE { ?s <%s> ?a . ?s <%s> ?b . ?s <%s> ?c . }"
    (Workloads.Micro.sv 1) (Workloads.Micro.sv 2) (Workloads.Micro.sv 3)

let parse = Sparql.Parser.parse

(* ------------------------------------------------------------------ *)
(* Flat-form emission and guards                                       *)
(* ------------------------------------------------------------------ *)

let test_flat_form_emitted () =
  let e = load_engine () in
  (* The selector gates emission at translation time too; force it so
     the lone-star shape (which the cost model declines) still emits. *)
  force_wcoj e;
  let sql_of options =
    Relsql.Sql_pp.to_string
      (Db2rdf.Engine.translate ~options e (parse star3))
  in
  Alcotest.(check bool)
    "wcoj option emits the flat WCOJ CTE" true
    (Helpers.contains (sql_of wcoj_on) "WCOJ");
  Alcotest.(check bool)
    "default translation has no WCOJ CTE" false
    (Helpers.contains (sql_of Db2rdf.Engine.default_options) "WCOJ")

let test_multivalued_guard () =
  let e = load_engine () in
  (* Force the selector so the only thing standing between this query
     and the flat form is the multi-valued guard itself. MV1's rows
     live behind the DS relation, which the flat single-CTE form cannot
     reach — it must bail out. *)
  force_wcoj e;
  let q =
    Printf.sprintf
      "SELECT ?s ?a ?b ?c WHERE { ?s <%s> ?a . ?s <%s> ?b . ?s <%s> ?c . }"
      (Workloads.Micro.sv 1) (Workloads.Micro.sv 2) (Workloads.Micro.mv 1)
  in
  let sql =
    Relsql.Sql_pp.to_string
      (Db2rdf.Engine.translate ~options:wcoj_on e (parse q))
  in
  Alcotest.(check bool) "multi-valued predicate vetoes the flat form" false
    (Helpers.contains sql "WCOJ")

let test_storage_columns () =
  let e = load_engine () in
  let loader = Db2rdf.Engine.loader e in
  let dict = Db2rdf.Engine.dictionary e in
  let pid name = Option.get (Rdf.Dictionary.find dict (Rdf.Term.iri name)) in
  let cols = Db2rdf.Loader.storage_columns loader Db2rdf.Loader.Direct
      ~pred_id:(pid (Workloads.Micro.sv 1)) in
  Alcotest.(check bool) "SV1 stored in exactly one direct column" true
    (List.length cols = 1);
  let cands =
    Db2rdf.Loader.candidate_columns loader Db2rdf.Loader.Direct
      ~pred_term:(Rdf.Term.iri (Workloads.Micro.sv 1))
  in
  Alcotest.(check bool) "storage columns are a subset of the candidates" true
    (List.for_all (fun c -> List.mem c cands) cols);
  Alcotest.(check (list int)) "unknown predicate has no storage columns" []
    (Db2rdf.Loader.storage_columns loader Db2rdf.Loader.Direct
       ~pred_id:999_999)

(* ------------------------------------------------------------------ *)
(* Leapfrog execution                                                  *)
(* ------------------------------------------------------------------ *)

let test_leapfrog_runs_and_matches () =
  let base = load_engine () in
  let e = load_engine ~options:wcoj_on () in
  force_wcoj e;
  let q = parse star3 in
  let text = Db2rdf.Engine.explain e q in
  Alcotest.(check bool) "physical plan contains the leapfrog operator"
    true
    (Helpers.contains text "LeapfrogJoin");
  let want = Db2rdf.Engine.query base q in
  let got = Db2rdf.Engine.query e q in
  Alcotest.(check bool) "leapfrog answers match the binary-join pipeline"
    true
    (Sparql.Ref_eval.equal_results want got)

let test_leapfrog_deterministic_across_physical_knobs () =
  let q = parse star3 in
  let run options =
    let e = load_engine ~options () in
    force_wcoj e;
    (Db2rdf.Engine.query e q).Sparql.Ref_eval.rows
  in
  let seq = run wcoj_on in
  let packed = run { wcoj_on with compress = true } in
  let par = run { wcoj_on with parallelism = 4 } in
  Alcotest.(check bool) "leapfrog rows identical under compression" true
    (seq = packed);
  Alcotest.(check bool) "leapfrog rows identical under parallelism" true
    (seq = par)

let test_leapfrog_constant_object () =
  (* Pin one object to a constant: the flat form must still agree. *)
  let base = load_engine () in
  let e = load_engine ~options:wcoj_on () in
  force_wcoj e;
  let some_object =
    (* first object of an SV2 triple in the dataset *)
    List.find_map
      (fun tr ->
        if tr.Rdf.Triple.p = Rdf.Term.iri (Workloads.Micro.sv 2) then
          Some (Rdf.Term.to_string tr.Rdf.Triple.o)
        else None)
      (Lazy.force micro_triples)
    |> Option.get
  in
  let q =
    parse
      (Printf.sprintf
         "SELECT ?s ?a ?c WHERE { ?s <%s> ?a . ?s <%s> %s . ?s <%s> ?c . }"
         (Workloads.Micro.sv 1) (Workloads.Micro.sv 2) some_object
         (Workloads.Micro.sv 3))
  in
  Alcotest.(check bool) "constant-object star matches" true
    (Sparql.Ref_eval.equal_results
       (Db2rdf.Engine.query base q)
       (Db2rdf.Engine.query e q))

(* ------------------------------------------------------------------ *)
(* Characteristic sets                                                 *)
(* ------------------------------------------------------------------ *)

let cs_stats () =
  (* Subjects 1,2 carry {10,11}; 3 carries {10}; 4 carries {10,11,12}. *)
  let st = Db2rdf.Dataset_stats.create () in
  let r s p = Db2rdf.Dataset_stats.record st ~s ~p ~o:(100 + s) in
  r 1 10; r 1 11;
  r 2 10; r 2 11;
  r 3 10;
  r 4 10; r 4 11; r 4 12;
  st

let test_cs_partition () =
  let st = cs_stats () in
  let sets = Db2rdf.Dataset_stats.characteristic_sets st in
  let as_list =
    Array.to_list sets |> List.map (fun (k, c) -> (Array.to_list k, c))
  in
  Alcotest.(check (list (pair (list int) int)))
    "exact partition below budget"
    [ ([ 10 ], 1); ([ 10; 11 ], 2); ([ 10; 11; 12 ], 1) ]
    as_list;
  Alcotest.(check int) "covering count for [10]" 4
    (Db2rdf.Dataset_stats.cs_subject_count st [ 10 ]);
  Alcotest.(check int) "covering count for [10;11]" 3
    (Db2rdf.Dataset_stats.cs_subject_count st [ 10; 11 ]);
  Alcotest.(check int) "covering count for [12]" 1
    (Db2rdf.Dataset_stats.cs_subject_count st [ 12 ]);
  Alcotest.(check int) "covering count for unknown predicate" 0
    (Db2rdf.Dataset_stats.cs_subject_count st [ 99 ])

let test_cs_budget_merge () =
  let st = cs_stats () in
  let sets = Db2rdf.Dataset_stats.characteristic_sets ~budget:2 st in
  Alcotest.(check bool) "merged partition fits the budget" true
    (Array.length sets <= 2);
  Alcotest.(check int) "subject mass preserved by merging" 4
    (Array.fold_left (fun acc (_, c) -> acc + c) 0 sets);
  (* Merging only widens sets, so superset counts stay
     over-approximations of the exact partition's. *)
  Alcotest.(check bool) "covering count stays an over-approximation" true
    (Db2rdf.Dataset_stats.cs_subject_count ~budget:2 st [ 10; 11 ] >= 3);
  Alcotest.(check int) "all subjects still cover [10]" 4
    (Db2rdf.Dataset_stats.cs_subject_count ~budget:2 st [ 10 ])

let test_cs_invalidation () =
  let st = cs_stats () in
  ignore (Db2rdf.Dataset_stats.characteristic_sets st);
  Db2rdf.Dataset_stats.record st ~s:5 ~p:12 ~o:105;
  Alcotest.(check int) "new subject visible after cache invalidation" 2
    (Db2rdf.Dataset_stats.cs_subject_count st [ 12 ])

(* ------------------------------------------------------------------ *)
(* Cost-model selector                                                 *)
(* ------------------------------------------------------------------ *)

let star_atom alias ~entry ~pred ~v : Relsql.Wcoj.atom =
  { Relsql.Wcoj.w_table = "DPH";
    w_alias = alias;
    w_cols =
      [ ("entry", entry);
        ("pred0", Relsql.Wcoj.W_const (Relsql.Value.Int pred));
        ("val0", v) ] }

let test_decision_cyclic () =
  (* Triangle x→y→z→x: 6 incidences > 3 atoms + 3 vars - 1. *)
  let open Relsql.Wcoj in
  let atoms =
    [ star_atom "W0" ~entry:(W_var 0) ~pred:10 ~v:(W_var 1);
      star_atom "W1" ~entry:(W_var 1) ~pred:11 ~v:(W_var 2);
      star_atom "W2" ~entry:(W_var 2) ~pred:12 ~v:(W_var 0) ]
  in
  let d =
    Db2rdf.Cost.wcoj_decision
      (Db2rdf.Dataset_stats.create ())
      { atoms; n_vars = 3; binary_est = 1 }
  in
  Alcotest.(check bool) "cyclic region always chooses WCOJ" true
    d.use_wcoj

(* The acyclic chooser refuses tiny stores outright; the fixtures here
   are a handful of triples, so the floor is lifted for the duration. *)
let without_scan_floor f () =
  let saved = !Db2rdf.Cost.wcoj_scan_floor in
  Db2rdf.Cost.wcoj_scan_floor := 0;
  Fun.protect ~finally:(fun () -> Db2rdf.Cost.wcoj_scan_floor := saved) f

let test_decision_star () =
  let open Relsql.Wcoj in
  let st = cs_stats () in
  let star =
    [ star_atom "W0" ~entry:(W_var 0) ~pred:10 ~v:(W_var 1);
      star_atom "W1" ~entry:(W_var 0) ~pred:11 ~v:(W_var 2);
      star_atom "W2" ~entry:(W_var 0) ~pred:12 ~v:(W_var 3) ]
  in
  (* A lone star — however wide, however favourable the margin — stays
     on the default pipeline: one star is one merged scan already. *)
  let lone =
    Db2rdf.Cost.wcoj_decision st { atoms = star; n_vars = 4; binary_est = 1000 }
  in
  Alcotest.(check bool) "single star keeps the merged scan" false
    lone.use_wcoj;
  (* A snowflake — the W2 value chains into a second star region — with
     a binary estimate far above the CS estimate takes the leapfrog. *)
  let snowflake =
    star @ [ star_atom "W3" ~entry:(W_var 3) ~pred:10 ~v:(W_var 4) ]
  in
  let cheap =
    Db2rdf.Cost.wcoj_decision st
      { atoms = snowflake; n_vars = 5; binary_est = 1000 }
  in
  Alcotest.(check bool) "snowflake with margin chooses WCOJ" true
    cheap.use_wcoj;
  (* Star V0 covers {10,11,12} (1 subject); star V3 is referenced
     through W2's value, so its covering count (4 of 4 subjects) enters
     as a selectivity of 1, not as a multiplier. *)
  Alcotest.(check int) "referenced star filters, never multiplies" 1
    cheap.est_rows;
  (* ...while a binary plan already estimated cheaper keeps the tree. *)
  let tight =
    Db2rdf.Cost.wcoj_decision st
      { atoms = snowflake; n_vars = 5; binary_est = 2 }
  in
  Alcotest.(check bool) "no margin keeps the binary tree" false
    tight.use_wcoj;
  (* Two width-2 stars never qualify on hub width. *)
  let narrow =
    Db2rdf.Cost.wcoj_decision st
      { atoms =
          [ List.nth star 0; List.nth star 1;
            star_atom "W3" ~entry:(W_var 2) ~pred:10 ~v:(W_var 3);
            star_atom "W4" ~entry:(W_var 2) ~pred:11 ~v:(W_var 4) ];
        n_vars = 5; binary_est = 1000 }
  in
  Alcotest.(check bool) "width-2 stars keep the binary tree" false
    narrow.use_wcoj

let test_decision_vetoes () =
  let open Relsql.Wcoj in
  let st = cs_stats () in
  let snowflake =
    [ star_atom "W0" ~entry:(W_var 0) ~pred:10 ~v:(W_var 1);
      star_atom "W1" ~entry:(W_var 0) ~pred:11 ~v:(W_var 2);
      star_atom "W2" ~entry:(W_var 0) ~pred:12 ~v:(W_var 3);
      star_atom "W3" ~entry:(W_var 3) ~pred:10 ~v:(W_var 4) ]
  in
  let req = { atoms = snowflake; n_vars = 5; binary_est = 1000 } in
  (* With the default floor the 8-triple fixture always declines... *)
  Alcotest.(check bool) "tiny store declines on the scan floor" false
    (Db2rdf.Cost.wcoj_decision st req).use_wcoj;
  without_scan_floor
    (fun () ->
      (* ...without it, the same request qualifies (see decision star). *)
      Alcotest.(check bool) "floor lifted, snowflake qualifies" true
        (Db2rdf.Cost.wcoj_decision st req).use_wcoj;
      (* A selective constant object (103 appears once in 8 triples)
         hands the binary tree an object-index probe chain — veto. *)
      let shortcut =
        { atoms =
            [ List.nth snowflake 0;
              star_atom "W1" ~entry:(W_var 0) ~pred:11
                ~v:(W_const (Relsql.Value.Int 103));
              List.nth snowflake 2; List.nth snowflake 3 ];
          n_vars = 4; binary_est = 1000 }
      in
      Alcotest.(check bool) "selective constant object declines" false
        (Db2rdf.Cost.wcoj_decision st shortcut).use_wcoj)
    ()

(* ------------------------------------------------------------------ *)
(* Options views                                                       *)
(* ------------------------------------------------------------------ *)

let test_options_fingerprint_distinct () =
  let fp = Db2rdf.Engine.options_fingerprint in
  let d = Db2rdf.Engine.default_options in
  Alcotest.(check bool) "wcoj flips the fingerprint" true
    (fp d <> fp { d with wcoj = true });
  Alcotest.(check bool) "merge flips the fingerprint" true
    (fp d <> fp { d with merge = false });
  Alcotest.(check bool) "parallelism flips the fingerprint" true
    (fp d <> fp { d with parallelism = 4 })

(* A [with_options] view shares the store but translates under its own
   options: alternating calls on the same text each run their own plan
   shape, and the answers agree. *)
let test_options_view_own_plan () =
  let e = load_engine () in
  let e' = Db2rdf.Engine.with_options e wcoj_on in
  force_wcoj e';
  let want = Db2rdf.Engine.query_string e star3 in
  for round = 1 to 2 do
    let what = Printf.sprintf "round %d: " round in
    Alcotest.(check bool) (what ^ "wcoj view answers identically") true
      (Sparql.Ref_eval.equal_results want (Db2rdf.Engine.query_string e' star3));
    Alcotest.(check bool) (what ^ "default answers identically") true
      (Sparql.Ref_eval.equal_results want (Db2rdf.Engine.query_string e star3));
    Alcotest.(check bool) (what ^ "per-call override answers identically") true
      (Sparql.Ref_eval.equal_results want
         (Db2rdf.Engine.query_string ~options:wcoj_on e star3))
  done;
  Alcotest.(check bool) "the view's plan is the leapfrog join" true
    (Helpers.contains (Db2rdf.Engine.explain e' (parse star3)) "LeapfrogJoin");
  Alcotest.(check bool) "the default plan is not" false
    (Helpers.contains (Db2rdf.Engine.explain e (parse star3)) "LeapfrogJoin")

(* ------------------------------------------------------------------ *)
(* Merge → query → write → query (cache epochs)                        *)
(* ------------------------------------------------------------------ *)

(* Rounds of merge, query, delta write, query: every merge and every
   write moves the epoch, so no cached scan computed before it may be
   served after it. Each answer is compared with a boxed engine that
   applied the same writes. *)
let test_merge_query_write_query () =
  let e = load_engine () and boxed = load_engine () in
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
  let same what =
    let want = Db2rdf.Engine.query_string boxed star3 in
    Alcotest.(check bool) what true
      (Sparql.Ref_eval.equal_results want (Db2rdf.Engine.query_string e star3))
  in
  (* Warm the scan cache on the never-merged store. *)
  same "boxed answers";
  same "boxed answers (cached)";
  for round = 1 to 2 do
    let what = Printf.sprintf "round %d" round in
    ignore (Relsql.Database.merge_all db);
    same (what ^ ": merged answers match");
    let ins =
      Printf.sprintf "INSERT DATA { <http://example.org/r%d> <%s> \"a\" . \
                      <http://example.org/r%d> <%s> \"b\" . \
                      <http://example.org/r%d> <%s> \"c\" }"
        round (Workloads.Micro.sv 1) round (Workloads.Micro.sv 2) round
        (Workloads.Micro.sv 3)
    in
    Db2rdf.Engine.update_string e ins;
    Db2rdf.Engine.update_string boxed ins;
    same (what ^ ": answers over the live delta match")
  done

let suite =
  [ Alcotest.test_case "flat form emitted" `Quick test_flat_form_emitted;
    Alcotest.test_case "multivalued guard" `Quick test_multivalued_guard;
    Alcotest.test_case "storage columns" `Quick test_storage_columns;
    Alcotest.test_case "leapfrog runs and matches" `Quick
      test_leapfrog_runs_and_matches;
    Alcotest.test_case "leapfrog deterministic across knobs" `Quick
      test_leapfrog_deterministic_across_physical_knobs;
    Alcotest.test_case "leapfrog constant object" `Quick
      test_leapfrog_constant_object;
    Alcotest.test_case "cs partition" `Quick test_cs_partition;
    Alcotest.test_case "cs budget merge" `Quick test_cs_budget_merge;
    Alcotest.test_case "cs invalidation" `Quick test_cs_invalidation;
    Alcotest.test_case "decision cyclic" `Quick test_decision_cyclic;
    Alcotest.test_case "decision star" `Quick
      (without_scan_floor test_decision_star);
    Alcotest.test_case "decision vetoes" `Quick test_decision_vetoes;
    Alcotest.test_case "options fingerprint distinct" `Quick
      test_options_fingerprint_distinct;
    Alcotest.test_case "options view runs its own plan" `Quick
      test_options_view_own_plan;
    Alcotest.test_case "merge query write query" `Quick
      test_merge_query_write_query ]
