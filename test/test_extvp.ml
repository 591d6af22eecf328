(** ExtVP-style semi-join reductions: the name codec, the registry's
    lazy build / threshold / budget / stamp lifecycle, planner
    substitution (an ExtvpScan in the physical plan), insert/delete and
    merge invalidation, the options fingerprint, bit-identical
    results across the (domains × join-partitions × storage) matrix —
    and the packed range-predicate leaves that ride along in this PR. *)

let extvp_on = { Db2rdf.Engine.default_options with extvp = true }

(** Reductions are advisable only under the ScaleUB threshold, which
    no uniform toy dataset clears — force the registry so substitution
    exercises the full path regardless of measured selectivity. *)
let force_extvp e =
  match Db2rdf.Engine.extvp_registry e with
  | Some r -> Relsql.Extvp.set_force r true
  | None -> Alcotest.fail "engine has no reduction registry"

let registry e = Option.get (Db2rdf.Engine.extvp_registry e)
let micro_triples = lazy (Workloads.Micro.generate ~scale:600)

let load_engine ?(options = Db2rdf.Engine.default_options) () =
  let e = Db2rdf.Engine.create ~options () in
  Db2rdf.Engine.load e (Lazy.force micro_triples);
  e

let star3 =
  Printf.sprintf
    "SELECT ?s ?a ?b ?c WHERE { ?s <%s> ?a . ?s <%s> ?b . ?s <%s> ?c . }"
    (Workloads.Micro.sv 1) (Workloads.Micro.sv 2) (Workloads.Micro.sv 3)

let parse = Sparql.Parser.parse

(* ------------------------------------------------------------------ *)
(* Name codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_name_codec () =
  List.iter
    (fun corr ->
      let key = { Relsql.Extvp.p1 = 12; p2 = 345; corr } in
      let name = Relsql.Extvp.name_of_key key in
      Alcotest.(check bool) "reduction names are recognizable" true
        (Relsql.Extvp.is_extvp_name name);
      match Relsql.Extvp.key_of_name name with
      | Some k -> Alcotest.(check bool) "codec round-trips" true (k = key)
      | None -> Alcotest.failf "name %s does not parse back" name)
    [ Relsql.Extvp.SS; Relsql.Extvp.SO; Relsql.Extvp.OS ];
  Alcotest.(check bool) "base tables are not reduction names" false
    (Relsql.Extvp.is_extvp_name "DPH");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "garbage name %S rejected" bad)
        true
        (Relsql.Extvp.key_of_name bad = None))
    [ "extvp$"; "extvp$xx$1$2"; "extvp$ss$one$2"; "extvp$ss$1"; "DPH" ]

(* ------------------------------------------------------------------ *)
(* Registry lifecycle on synthetic hooks                               *)
(* ------------------------------------------------------------------ *)

let toy_schema = Relsql.Schema.make [ "entry"; "v" ]

let mk_table name n =
  let t = Relsql.Table.create name toy_schema in
  for i = 0 to n - 1 do
    ignore
      (Relsql.Table.insert t [| Relsql.Value.Int i; Relsql.Value.Int (2 * i) |])
  done;
  t

(** A registry over synthetic hooks: predicate 1 reductions keep 10 of
    100 source rows (selective), predicate 2 reductions keep 90
    (rejected by the default 0.25 threshold); the stamp is a settable
    cell standing in for the database version counters. *)
let toy_registry () =
  let reg = Relsql.Extvp.create () in
  let version = ref 0 in
  let built = ref 0 in
  Relsql.Extvp.set_hooks reg
    ~builder:(fun key ->
      incr built;
      let kept = if key.Relsql.Extvp.p1 = 1 then 10 else 90 in
      (mk_table (Relsql.Extvp.name_of_key key) kept, 100, kept))
    ~stamp:(fun () -> !version)
    ~estimator:(fun key -> if key.Relsql.Extvp.p1 = 1 then 0.1 else 0.9);
  (reg, version, built)

let k_good = { Relsql.Extvp.p1 = 1; p2 = 2; corr = Relsql.Extvp.SS }
let k_bad = { Relsql.Extvp.p1 = 2; p2 = 1; corr = Relsql.Extvp.SO }

let test_registry_lazy_build () =
  let reg, _, built = toy_registry () in
  Alcotest.(check bool) "selective key advisable from the estimate" true
    (Relsql.Extvp.advisable reg k_good);
  Alcotest.(check int) "advisable never builds" 0 !built;
  let name = Relsql.Extvp.name_of_key k_good in
  (match Relsql.Extvp.resolve reg name with
   | Some t -> Alcotest.(check int) "reduction has the kept rows" 10
                 (Relsql.Table.row_count t)
   | None -> Alcotest.fail "resolve failed");
  Alcotest.(check int) "first resolve builds" 1 !built;
  ignore (Relsql.Extvp.resolve reg name);
  Alcotest.(check int) "second resolve is a cache hit" 1 !built;
  let c = Relsql.Extvp.counters reg in
  Alcotest.(check int) "one hit counted" 1 c.Relsql.Extvp.hits;
  Alcotest.(check int) "one miss counted" 1 c.Relsql.Extvp.misses;
  Alcotest.(check bool) "non-reduction names resolve to nothing" true
    (Relsql.Extvp.resolve reg "DPH" = None)

let test_registry_threshold_rejection () =
  let reg, _, built = toy_registry () in
  Alcotest.(check bool) "unselective key not advisable" false
    (Relsql.Extvp.advisable reg k_bad);
  (* An executor may still demand the table (a statement naming it
     directly): the build must succeed, but the measured
     selectivity lands it in the rejected memo, not the cache. *)
  let name = Relsql.Extvp.name_of_key k_bad in
  Alcotest.(check bool) "rejected reduction still resolves" true
    (Relsql.Extvp.resolve reg name <> None);
  Alcotest.(check int) "rejection counted" 1
    (Relsql.Extvp.counters reg).Relsql.Extvp.rejections;
  Alcotest.(check int) "rejected build not cached" 0
    (Relsql.Extvp.cached_count reg);
  Alcotest.(check bool) "measured-over-threshold key stays unadvisable"
    false
    (Relsql.Extvp.advisable reg k_bad);
  (* The one-slot scratch serves repeated resolves without rebuilding. *)
  ignore (Relsql.Extvp.resolve reg name);
  Alcotest.(check int) "re-resolve reuses the scratch slot" 1 !built;
  (* Forcing flips both decisions without touching the counters' past. *)
  Relsql.Extvp.set_force reg true;
  Alcotest.(check bool) "forced mode makes everything advisable" true
    (Relsql.Extvp.advisable reg k_bad)

let test_registry_budget_lru () =
  let reg, _, _ = toy_registry () in
  let resolve k = ignore (Relsql.Extvp.resolve reg (Relsql.Extvp.name_of_key k)) in
  resolve k_good;
  let one =
    match Relsql.Extvp.cached reg with
    | [ (_, _, bytes) ] -> bytes
    | _ -> Alcotest.fail "expected exactly one cached reduction"
  in
  (* Budget for one and a half reductions: caching a second evicts the
     least recently used first one. *)
  Relsql.Extvp.set_budget_bytes reg (one * 3 / 2);
  resolve { k_good with p2 = 3 };
  Alcotest.(check int) "LRU eviction keeps one entry" 1
    (Relsql.Extvp.cached_count reg);
  Alcotest.(check int) "eviction counted" 1
    (Relsql.Extvp.counters reg).Relsql.Extvp.evictions;
  (* The evicted reduction rebuilds on demand — deterministically, so
     no invalidation is involved. *)
  resolve k_good;
  Alcotest.(check int) "no invalidation on eviction rebuild" 0
    (Relsql.Extvp.counters reg).Relsql.Extvp.invalidations

let test_registry_stamp_invalidation () =
  let reg, version, built = toy_registry () in
  let name = Relsql.Extvp.name_of_key k_good in
  ignore (Relsql.Extvp.resolve reg name);
  incr version;
  (match Relsql.Extvp.resolve reg name with
   | Some t -> Alcotest.(check int) "rebuilt at the new stamp" 10
                 (Relsql.Table.row_count t)
   | None -> Alcotest.fail "resolve failed after stamp change");
  Alcotest.(check int) "stale entry rebuilt" 2 !built;
  Alcotest.(check int) "invalidation counted" 1
    (Relsql.Extvp.counters reg).Relsql.Extvp.invalidations

(* ------------------------------------------------------------------ *)
(* Planner substitution                                                *)
(* ------------------------------------------------------------------ *)

let test_substitution_in_plan () =
  let base = load_engine () in
  let e = load_engine ~options:extvp_on () in
  force_extvp e;
  let q = parse star3 in
  Alcotest.(check bool) "physical plan substitutes a reduction" true
    (Helpers.contains (Db2rdf.Engine.explain e q) "ExtvpScan");
  Alcotest.(check bool) "default plan does not" false
    (Helpers.contains (Db2rdf.Engine.explain base q) "ExtvpScan");
  Alcotest.(check bool) "reduced answers match the base pipeline" true
    (Sparql.Ref_eval.equal_results
       (Db2rdf.Engine.query base q)
       (Db2rdf.Engine.query e q));
  Alcotest.(check bool) "queries populated the registry" true
    (Relsql.Extvp.cached_count (registry e) > 0)

let test_options_fingerprint_distinct () =
  let fp = Db2rdf.Engine.options_fingerprint in
  let d = Db2rdf.Engine.default_options in
  Alcotest.(check bool) "extvp flips the fingerprint" true
    (fp d <> fp { d with extvp = true });
  Alcotest.(check bool) "threshold flips the fingerprint" true
    (fp extvp_on <> fp { extvp_on with extvp_threshold = 0.5 });
  Alcotest.(check bool) "budget flips the fingerprint" true
    (fp extvp_on <> fp { extvp_on with extvp_budget_mb = 8 })

(* ------------------------------------------------------------------ *)
(* Insert / delete invalidation                                        *)
(* ------------------------------------------------------------------ *)

let test_insert_delete_invalidation () =
  let base = load_engine () in
  let e = load_engine ~options:extvp_on () in
  force_extvp e;
  let q = parse star3 in
  let check msg =
    Alcotest.(check bool) msg true
      (Sparql.Ref_eval.equal_results
         (Db2rdf.Engine.query base q)
         (Db2rdf.Engine.query e q))
  in
  check "reduced answers match before the update";
  let tr =
    Rdf.Triple.make
      (Rdf.Term.iri "http://example.org/new-subject")
      (Rdf.Term.iri (Workloads.Micro.sv 1))
      (Rdf.Term.lit "fresh")
  in
  Db2rdf.Engine.insert base tr;
  Db2rdf.Engine.insert e tr;
  check "reduced answers match after an insert";
  Alcotest.(check bool) "stale reductions were invalidated" true
    ((Relsql.Extvp.counters (registry e)).Relsql.Extvp.invalidations > 0);
  Db2rdf.Engine.delete base tr;
  Db2rdf.Engine.delete e tr;
  check "reduced answers match after a delete"

(* ------------------------------------------------------------------ *)
(* Merge invalidation                                                  *)
(* ------------------------------------------------------------------ *)

let test_merge_invalidation () =
  let base = load_engine () in
  let e = load_engine ~options:extvp_on () in
  force_extvp e;
  let reg = registry e in
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
  let q = parse star3 in
  let check msg =
    Alcotest.(check bool) msg true
      (Sparql.Ref_eval.equal_results
         (Db2rdf.Engine.query base q)
         (Db2rdf.Engine.query e q))
  in
  check "boxed reduced answers match";
  let resolved_frozen () =
    match Relsql.Extvp.cached reg with
    | (name, _, _) :: _ ->
      Relsql.Table.frozen (Option.get (Relsql.Extvp.resolve reg name))
    | [] -> Alcotest.fail "no cached reduction"
  in
  Alcotest.(check bool) "boxed store yields boxed reductions" false
    (resolved_frozen ());
  (* A merge bumps every merged table's epoch: the stamp folds it, so
     the cached reductions are stale — each round must rebuild rather
     than serve a reduction across the epoch change, and the rebuilds
     inherit the packed representation. *)
  let invalidations () = (Relsql.Extvp.counters reg).Relsql.Extvp.invalidations in
  for round = 1 to 2 do
    let what = Printf.sprintf "round %d" round in
    let i0 = invalidations () in
    ignore (Relsql.Database.merge_all db);
    check (what ^ ": merged reduced answers match");
    Alcotest.(check bool) (what ^ ": merge invalidated the reductions") true
      (invalidations () > i0);
    Alcotest.(check bool) (what ^ ": merged store yields packed reductions") true
      (resolved_frozen ());
    (* a delta-resident write moves the epoch too *)
    let i1 = invalidations () in
    let tr =
      Rdf.Triple.make
        (Rdf.Term.iri (Printf.sprintf "http://example.org/round-%d" round))
        (Rdf.Term.iri (Workloads.Micro.sv 1))
        (Rdf.Term.lit "fresh")
    in
    Db2rdf.Engine.insert base tr;
    Db2rdf.Engine.insert e tr;
    check (what ^ ": reduced answers match over a live delta");
    Alcotest.(check bool) (what ^ ": delta write invalidated the reductions") true
      (invalidations () > i1)
  done

(* ------------------------------------------------------------------ *)
(* Equality matrix                                                     *)
(* ------------------------------------------------------------------ *)

let chain2 =
  (* Two stars coupled through ?a — exercises the cross-star SO/OS
     candidates, not just the intra-star SS prefilter. Micro objects
     are literals, so the second star matches nothing; the empty result
     must be empty on every path. *)
  Printf.sprintf
    "SELECT ?s ?a ?b WHERE { ?s <%s> ?a . ?s <%s> ?b . ?a <%s> ?c . }"
    (Workloads.Micro.sv 1) (Workloads.Micro.sv 2) (Workloads.Micro.sv 3)

let test_equality_matrix () =
  let queries = [ parse star3; parse chain2 ] in
  let base = load_engine () in
  let want = List.map (Db2rdf.Engine.query base) queries in
  List.iter
    (fun domains ->
      List.iter
        (fun join_partitions ->
          List.iter
            (fun compress ->
              let e =
                load_engine
                  ~options:
                    { extvp_on with
                      parallelism = domains; join_partitions; compress }
                  ()
              in
              force_extvp e;
              List.iter2
                (fun q w ->
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "reduced ≡ base (domains=%d partitions=%d %s)" domains
                       join_partitions
                       (if compress then "packed" else "boxed"))
                    true
                    (Sparql.Ref_eval.equal_results w (Db2rdf.Engine.query e q)))
                queries want)
            [ false; true ])
        [ 1; 16 ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Packed range predicates (satellite)                                 *)
(* ------------------------------------------------------------------ *)

let test_packed_range_codes () =
  let nrows = 3000 in
  let cell rid _ =
    if rid mod 7 = 0 then Relsql.Value.Null else Relsql.Value.Int (rid mod 50)
  in
  let pk = Relsql.Packed.pack ~ncols:1 ~nrows cell ~live:(fun _ -> true) in
  let layout = [| (Some "T", "v") |] in
  let col = Relsql.Sql_ast.Col (Some "T", "v") in
  let exprs =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun v ->
            [ Relsql.Sql_ast.Binop (op, col, Relsql.Sql_ast.Const v);
              Relsql.Sql_ast.Binop (op, Relsql.Sql_ast.Const v, col) ])
          [ Relsql.Value.Int 25; Relsql.Value.Int 0; Relsql.Value.Int 49;
            Relsql.Value.Real 24.5; Relsql.Value.Real 3.0 ])
      [ Relsql.Sql_ast.Lt; Relsql.Sql_ast.Leq; Relsql.Sql_ast.Gt;
        Relsql.Sql_ast.Geq ]
  in
  List.iter
    (fun e ->
      match Relsql.Packed.compile_code_pred pk layout e with
      | None -> Alcotest.fail "range over a Direct column must compile"
      | Some f ->
        let want = Relsql.Expr_eval.compile_pred layout e in
        for rid = 0 to nrows - 1 do
          let row = [| cell rid 0 |] in
          if f rid <> want row then
            Alcotest.failf "row %d disagrees on %s" rid
              (Relsql.Sql_pp.expr_to_string e)
        done)
    exprs;
  (* Non-numeric constants stay on the decoded path. *)
  Alcotest.(check bool) "string range falls back to decoded evaluation" true
    (Relsql.Packed.compile_code_pred pk layout
       (Relsql.Sql_ast.Binop
          (Relsql.Sql_ast.Lt, col, Relsql.Sql_ast.Const (Relsql.Value.Str "x")))
     = None)

let suite =
  [ Alcotest.test_case "name codec" `Quick test_name_codec;
    Alcotest.test_case "registry lazy build" `Quick test_registry_lazy_build;
    Alcotest.test_case "registry threshold rejection" `Quick
      test_registry_threshold_rejection;
    Alcotest.test_case "registry budget LRU" `Quick test_registry_budget_lru;
    Alcotest.test_case "registry stamp invalidation" `Quick
      test_registry_stamp_invalidation;
    Alcotest.test_case "substitution in plan" `Quick test_substitution_in_plan;
    Alcotest.test_case "options fingerprint distinct" `Quick
      test_options_fingerprint_distinct;
    Alcotest.test_case "insert/delete invalidation" `Quick
      test_insert_delete_invalidation;
    Alcotest.test_case "merge invalidation" `Quick test_merge_invalidation;
    Alcotest.test_case "equality matrix" `Slow test_equality_matrix;
    Alcotest.test_case "packed range codes" `Quick test_packed_range_codes ]
