(** Radix-partitioned hash-join build and the shared scan cache:
    partitioning/permutation units, [Table.Join_hash] and
    [Table.epoch] units, scan-cache semantics, and the load-bearing
    property — bit-identical join results at every
    (domains, partitions) combination. *)

open Relsql

let with_pool n f =
  let pool = Dpool.create n in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) (fun () -> f pool)

(** Lower the parallel threshold so even tiny inputs take the morsel
    and partitioned-build paths, run [f], and restore. *)
let with_tiny_morsels f =
  let saved = !Executor.par_min_rows in
  Executor.par_min_rows := 2;
  Fun.protect ~finally:(fun () -> Executor.par_min_rows := saved) f

let batch_strings b =
  List.map
    (fun row ->
      String.concat "\t" (List.map Value.to_string (Array.to_list row)))
    (Batch.to_rows b)

(* ------------------------------------------------------------------ *)
(* Dpool.partition                                                     *)
(* ------------------------------------------------------------------ *)

let test_partition_histogram_scatter () =
  with_pool 4 (fun pool ->
      let n = 1_000 and parts = 8 in
      let part_of i = i * 7 mod parts in
      let starts, perm = Dpool.partition pool ~n ~parts ~part_of in
      Alcotest.(check int) "starts has parts+1 entries" (parts + 1)
        (Array.length starts);
      Alcotest.(check int) "first boundary is 0" 0 starts.(0);
      Alcotest.(check int) "last boundary covers all items" n starts.(parts);
      Alcotest.(check int) "perm covers all items" n (Array.length perm);
      let seen = Array.make n false in
      for p = 0 to parts - 1 do
        for s = starts.(p) to starts.(p + 1) - 1 do
          let i = perm.(s) in
          Alcotest.(check bool)
            (Printf.sprintf "item %d appears once" i)
            false seen.(i);
          seen.(i) <- true;
          Alcotest.(check int)
            (Printf.sprintf "item %d landed in its partition" i)
            p (part_of i);
          (* Items must ascend within each bucket: this is what makes
             the partitioned build replay global build order. *)
          if s > starts.(p) then
            Alcotest.(check bool) "ascending within bucket" true
              (perm.(s - 1) < i)
        done
      done;
      Alcotest.(check bool) "every item scattered" true
        (Array.for_all Fun.id seen))

let test_partition_drops_negative () =
  with_pool 4 (fun pool ->
      let n = 500 in
      (* Drop every third item, as the join build drops NULL keys. *)
      let part_of i = if i mod 3 = 0 then -1 else i land 3 in
      let starts, perm = Dpool.partition pool ~n ~parts:4 ~part_of in
      let kept = ref 0 in
      for i = 0 to n - 1 do
        if part_of i >= 0 then incr kept
      done;
      Alcotest.(check int) "dropped items excluded" !kept starts.(4);
      Array.iter
        (fun i ->
          Alcotest.(check bool) "no dropped item in perm" true
            (part_of i >= 0))
        perm)

let test_partition_single_bucket () =
  with_pool 4 (fun pool ->
      let n = 64 in
      let starts, perm = Dpool.partition pool ~n ~parts:1 ~part_of:(fun _ -> 0) in
      Alcotest.(check (array int)) "single bucket is the identity"
        (Array.init n Fun.id) perm;
      Alcotest.(check int) "all in bucket 0" n starts.(1))

(* ------------------------------------------------------------------ *)
(* Table.Join_hash                                                     *)
(* ------------------------------------------------------------------ *)

let test_join_hash_build_order () =
  let jh = Table.Join_hash.create ~parts:4 in
  Alcotest.(check int) "parts" 4 (Table.Join_hash.parts jh);
  (* Route each key to its partition and add rows in ascending order —
     the contract the partitioned build maintains. *)
  let side = Cell.side () in
  let keys = Array.init 40 (fun i -> Cell.encode side (Value.Int (i mod 5))) in
  Array.iteri
    (fun rid k -> Table.Join_hash.add jh (Table.Join_hash.part_of jh side k) side k rid)
    keys;
  for v = 0 to 4 do
    let got = ref [] in
    Table.Join_hash.iter_matches jh side (Cell.encode side (Value.Int v)) (fun rid ->
        got := rid :: !got);
    let got = List.rev !got in
    let expect =
      List.filter (fun rid -> rid mod 5 = v) (List.init 40 Fun.id)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "key %d matches in build order" v)
      expect got
  done;
  let none = ref 0 in
  Table.Join_hash.iter_matches jh side (Cell.encode side (Value.Int 99)) (fun _ -> incr none);
  Alcotest.(check int) "absent key matches nothing" 0 !none;
  Alcotest.check_raises "parts must be a power of two"
    (Invalid_argument "Join_hash.create: parts must be a positive power of two")
    (fun () -> ignore (Table.Join_hash.create ~parts:3))

(* ------------------------------------------------------------------ *)
(* Table.epoch                                                         *)
(* ------------------------------------------------------------------ *)

(* Every write and every merge moves the epoch — on a never-merged
   table and on the delta and main sides of a merged one; an
   equal-value write and an idle merge do not. *)
let test_table_epoch_bumps () =
  let t = Table.create "v" (Schema.make [ "a"; "b" ]) in
  let bumps what f =
    let e0 = Table.epoch t in
    let r = f () in
    Alcotest.(check bool) (what ^ " bumps the epoch") true (Table.epoch t > e0);
    r
  in
  let keeps what f =
    let e0 = Table.epoch t in
    f ();
    Alcotest.(check int) (what ^ " keeps the epoch") e0 (Table.epoch t)
  in
  let rid = bumps "insert" (fun () -> Table.insert t [| Value.Int 1; Value.Str "x" |]) in
  ignore (bumps "set_cell" (fun () -> Table.set_cell t rid 1 (Value.Str "y")));
  keeps "equal set_cell" (fun () -> ignore (Table.set_cell t rid 1 (Value.Str "y")));
  let rid2 = bumps "insert" (fun () -> Table.insert t [| Value.Int 2; Value.Str "z" |]) in
  let rid3 = bumps "insert" (fun () -> Table.insert t [| Value.Int 3; Value.Null |]) in
  bumps "delete_row" (fun () -> Table.delete_row t rid);
  bumps "merge" (fun () -> Table.merge t);
  keeps "idle merge" (fun () -> Table.merge t);
  ignore (bumps "main relocation" (fun () -> Table.set_cell t rid2 1 (Value.Str "w")));
  bumps "main delete_row" (fun () -> Table.delete_row t rid3);
  bumps "merge" (fun () -> Table.merge t)

(* ------------------------------------------------------------------ *)
(* Scan cache                                                          *)
(* ------------------------------------------------------------------ *)

let some_filter =
  (* Any expression works: the key only fingerprints its structure. *)
  Some
    (Sql_ast.Binop
       (Sql_ast.Eq, Sql_ast.Col (Some "t", "a"), Sql_ast.Const (Value.Int 1)))

let test_scan_cache_key_versioning () =
  let key ?(epoch = 1) ?(filter = some_filter) ?(cols = None) () =
    Scan_cache.key ~table:"t" ~epoch ~filter ~cols
  in
  let k1 = key () in
  Alcotest.(check bool) "epoch is part of the key" true
    (k1 <> key ~epoch:2 ());
  Alcotest.(check bool) "filter is part of the key" true
    (k1 <> key ~filter:None ());
  Alcotest.(check bool) "columns are part of the key" true
    (k1 <> key ~cols:(Some [ "a" ]) ());
  Alcotest.(check string) "key is deterministic" k1 (key ())

let test_scan_cache_copies () =
  let c = Scan_cache.create () in
  let layout = [| (Some "t", "a") |] in
  let b = Batch.create ~capacity:4 layout in
  Batch.push_row b [| Value.Int 7 |];
  Scan_cache.add c "k" b;
  (* Mutating the original after caching must not reach the cache. *)
  Batch.push_row b [| Value.Int 8 |];
  (match Scan_cache.find c "k" with
   | None -> Alcotest.fail "expected a hit"
   | Some got ->
     Alcotest.(check int) "stored a private copy" 1 (Batch.length got);
     (* And mutating a served copy must not poison later hits. *)
     Batch.push_row got [| Value.Int 9 |]);
  (match Scan_cache.find c "k" with
   | None -> Alcotest.fail "expected a second hit"
   | Some got -> Alcotest.(check int) "served copies are private" 1
       (Batch.length got));
  Alcotest.(check bool) "miss on unknown key" true
    (Scan_cache.find c "zz" = None);
  let s = Scan_cache.stats c in
  Alcotest.(check int) "hits" 2 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses;
  Alcotest.(check int) "entries" 1 s.Plan_cache.entries

let test_scan_cache_size_bound () =
  let c = Scan_cache.create () in
  let layout = [| (Some "t", "a") |] in
  let n = Scan_cache.max_cells + 1 in
  (* Over the boxed budget but highly compressible: kept bit-packed and
     decompressed on hit. *)
  let big = Batch.create ~capacity:n layout in
  let row = [| Value.Int 0 |] in
  for _ = 1 to n do
    Batch.push_row big row
  done;
  Scan_cache.add c "big" big;
  (match Scan_cache.find c "big" with
   | None -> Alcotest.fail "compressible oversized result should be cached"
   | Some got ->
     Alcotest.(check int) "round-trips every row" n (Batch.length got);
     Alcotest.(check bool) "round-trips the values" true
       (Value.equal (Batch.get got 0 0) (Value.Int 0)
        && Value.equal (Batch.get got (n - 1) 0) (Value.Int 0)));
  (* All-distinct reals defeat the dictionary: the packed image itself
     busts the budget, so the entry is dropped. *)
  let wide = Batch.create ~capacity:n layout in
  for i = 1 to n do
    Batch.push_row wide [| Value.Real (float_of_int i) |]
  done;
  Scan_cache.add c "wide" wide;
  Alcotest.(check bool) "incompressible oversized result not cached" true
    (Scan_cache.find c "wide" = None)

(** The executor consults the cache for fused filter/projection scans:
    same statement twice → second run hits; a write in between →
    version changes, miss again. *)
let test_scan_cache_in_executor () =
  let db = Database.create "scantest" in
  let t = Database.create_table db "t" (Schema.make [ "k"; "v" ]) in
  for i = 0 to 99 do
    ignore (Table.insert t [| Value.Int (i mod 10); Value.Int i |])
  done;
  let stmt = Sql_parser.parse "SELECT a.v FROM t AS a WHERE a.k = 3" in
  let sum_stats f stats =
    Opstats.fold (fun acc n -> acc + f n) 0 stats
  in
  let r1, s1 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "first run misses" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s1);
  let r2, s2 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "second run hits" 1
    (sum_stats (fun n -> n.Opstats.cache_hits) s2);
  Alcotest.(check (list string)) "hit serves identical rows"
    (batch_strings r1) (batch_strings r2);
  Alcotest.(check bool) "ANALYZE surfaces the hit" true
    (Helpers.contains (Opstats.to_string s2) "scan_cache=hit");
  (* A write bumps Table.epoch: the old entry's key is dead. *)
  ignore (Table.insert t [| Value.Int 3; Value.Int 1_000 |]);
  let r3, s3 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "post-write run misses again" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s3);
  Alcotest.(check int) "post-write run sees the new row"
    (List.length (batch_strings r1) + 1)
    (List.length (batch_strings r3))

(** Delta-main regression: a cached packed scan must be invalidated by
    a delta-side insert (the packed image is untouched — the write only
    moves the epoch), and invalidated again by
    the merge that folds the delta back in (same rows, fresh packed
    main), with identical rows served across both boundaries. *)
let test_scan_cache_delta_invalidation () =
  let db = Database.create "deltascan" in
  let t = Database.create_table db "t" (Schema.make [ "k"; "v" ]) in
  for i = 0 to 99 do
    ignore (Table.insert t [| Value.Int (i mod 10); Value.Int i |])
  done;
  Table.merge t;
  let stmt = Sql_parser.parse "SELECT a.v FROM t AS a WHERE a.k = 3" in
  let sum_stats f stats = Opstats.fold (fun acc n -> acc + f n) 0 stats in
  let r1, s1 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "first packed run misses" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s1);
  let _, s2 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "second packed run hits" 1
    (sum_stats (fun n -> n.Opstats.cache_hits) s2);
  ignore (Table.insert t [| Value.Int 3; Value.Int 1_000 |]);
  Alcotest.(check bool) "insert stayed delta-side" true
    (Table.frozen t && Table.delta_rows t = 1);
  let r3, s3 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "delta insert invalidates the cached scan" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s3);
  Alcotest.(check (list string)) "delta row served after the packed rows"
    (batch_strings r1 @ [ "1000" ])
    (batch_strings r3);
  let _, s4 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "delta-resident scan re-cached" 1
    (sum_stats (fun n -> n.Opstats.cache_hits) s4);
  Table.merge t;
  let r5, s5 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "merge invalidates the cached scan" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s5);
  Alcotest.(check (list string)) "merge preserves the rows"
    (batch_strings r3) (batch_strings r5);
  let _, s6 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "post-merge scan re-cached" 1
    (sum_stats (fun n -> n.Opstats.cache_hits) s6)

(* ------------------------------------------------------------------ *)
(* Partitioned build: metrics and edge cases                           *)
(* ------------------------------------------------------------------ *)

(** Two index-free tables joined on one key — the planner has no choice
    but a single-key hash join, which is the partitioned build's
    territory. *)
let join_db ~left ~right =
  let db = Database.create "joindb" in
  let lt = Database.create_table db "lt" (Schema.make [ "k"; "v" ]) in
  let rt = Database.create_table db "rt" (Schema.make [ "k"; "w" ]) in
  List.iter (fun (k, v) -> ignore (Table.insert lt [| k; Value.Int v |])) left;
  List.iter (fun (k, w) -> ignore (Table.insert rt [| k; Value.Int w |])) right;
  db

let join_sql =
  "SELECT a.v, b.w FROM lt AS a JOIN rt AS b ON b.k = a.k"

let left_join_sql =
  "SELECT a.v, b.w FROM lt AS a LEFT JOIN rt AS b ON b.k = a.k"

let test_partitioned_build_metrics () =
  with_tiny_morsels (fun () ->
      let rows n = List.init n (fun i -> (Value.Int (i mod 7), i)) in
      let db = join_db ~left:(rows 200) ~right:(rows 100) in
      let stmt = Sql_parser.parse join_sql in
      let seq = Executor.run ~domains:1 db stmt in
      (* 4 domains build into 2 x 4 = 8 radix partitions. *)
      let par, stats = Executor.run_analyzed ~domains:4 db stmt in
      Alcotest.(check (list string)) "partitioned join ≡ sequential"
        (batch_strings seq) (batch_strings par);
      let node =
        List.find_opt
          (fun n -> n.Opstats.partitions > 0)
          (Opstats.fold (fun acc n -> n :: acc) [] stats)
      in
      match node with
      | None -> Alcotest.fail "no operator reported a partitioned build"
      | Some n ->
        Alcotest.(check int) "partitions: twice the domains" 8
          n.Opstats.partitions;
        Alcotest.(check bool) "build workers reported" true
          (n.Opstats.build_workers >= 1);
        Alcotest.(check bool) "build time reported" true
          (n.Opstats.build_ms >= 0.0);
        Alcotest.(check int) "build rows counted (NULL-free input)" 100
          n.Opstats.build_rows;
        Alcotest.(check bool) "rendering shows parts=" true
          (Helpers.contains (Opstats.to_string n) "parts=8"))

let test_partitioned_all_null_and_skew () =
  with_tiny_morsels (fun () ->
      let checks =
        [ (* All-NULL keys on both sides: inner join empty, left join
             pads every left row. *)
          ( "all-null",
            List.init 50 (fun i -> (Value.Null, i)),
            List.init 50 (fun i -> (Value.Null, i)) );
          (* Every build row under one key: one partition gets all the
             data, the others stay empty. *)
          ( "single-key skew",
            List.init 40 (fun i -> (Value.Int 1, i)),
            List.init 60 (fun i -> (Value.Int 1, i)) );
          (* NULLs mixed into both sides. *)
          ( "null-mixed",
            List.init 60 (fun i ->
                ((if i mod 3 = 0 then Value.Null else Value.Int (i mod 5)), i)),
            List.init 60 (fun i ->
                ((if i mod 4 = 0 then Value.Null else Value.Int (i mod 5)), i))
          ) ]
      in
      List.iter
        (fun (name, left, right) ->
          let db = join_db ~left ~right in
          List.iter
            (fun sql ->
              let stmt = Sql_parser.parse sql in
              let seq = Executor.run ~domains:1 db stmt in
              (* 1, 4 and 16 build partitions. *)
              List.iter
                (fun d ->
                  let par = Executor.run ~domains:d db stmt in
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s (domains=%d)" name d)
                    (batch_strings seq) (batch_strings par))
                [ 1; 2; 8 ])
            [ join_sql; left_join_sql ])
        checks)

(* Computed probe keys: a key that is not a plain column is evaluated
   per left row and looked up by value. Parallel probe morsels share
   the probe closure, so these keys — strings and reals, which have no
   inline cell — must give the rows of a one-domain run. *)
let test_computed_probe_keys () =
  with_tiny_morsels (fun () ->
      let n = 300 in
      let cases =
        [ ( "concatenated string key",
            List.init n (fun i -> (Value.Str (Printf.sprintf "s%d" (i mod 17)), i)),
            List.init 40 (fun i -> (Value.Str (Printf.sprintf "s%dx" (i mod 20)), i)),
            "a.k || 'x' = b.k" );
          ( "real key",
            List.init n (fun i -> (Value.Int (i mod 13), i)),
            List.init 40 (fun i -> (Value.Real (float_of_int (i mod 15) +. 0.5), i)),
            "a.k + 0.5 = b.k" ) ]
      in
      List.iter
        (fun (name, left, right, on) ->
          let db = join_db ~left ~right in
          List.iter
            (fun kind ->
              let stmt =
                Sql_parser.parse
                  (Printf.sprintf "SELECT a.v, b.w FROM lt AS a %s rt AS b ON %s" kind on)
              in
              let seq = Executor.run ~domains:1 db stmt in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s matches some rows" name kind)
                true
                (List.exists
                   (fun r -> r.(1) <> Value.Null)
                   (Batch.to_rows seq));
              List.iter
                (fun d ->
                  for round = 1 to 5 do
                    Alcotest.(check (list string))
                      (Printf.sprintf "%s %s (domains=%d, run %d)" name kind d
                         round)
                      (batch_strings seq)
                      (batch_strings (Executor.run ~domains:d db stmt))
                  done)
                [ 1; 2 ])
            [ "JOIN"; "LEFT JOIN" ])
        cases)

(* ------------------------------------------------------------------ *)
(* Sequential ≡ partitioned, full matrix                               *)
(* ------------------------------------------------------------------ *)

let matrix_queries =
  [ ("join-star",
     "SELECT ?a ?b ?v WHERE { ?a <http://microbench.org/SV1> ?b . \
      ?a <http://microbench.org/SV2> ?v }");
    ("join-sorted",
     "SELECT ?a ?b ?v WHERE { ?a <http://microbench.org/SV1> ?b . \
      ?a <http://microbench.org/SV3> ?v } ORDER BY ?v ?a");
    ("join-optional",
     "SELECT ?a ?b ?v WHERE { ?a <http://microbench.org/SV1> ?b . \
      OPTIONAL { ?a <http://microbench.org/MV1> ?v } }");
    ("join-agg",
     "SELECT ?b (COUNT(?a) AS ?n) WHERE { ?a <http://microbench.org/SV1> ?b . \
      ?a <http://microbench.org/SV2> ?v } GROUP BY ?b") ]

(** The tentpole property: for every dataset (fig1, generated micro,
    spill-heavy micro under a starved layout) and every domain count
    (hash-join builds of 1, 4, 8 and 16 radix partitions), results are
    row-for-row, order-included identical to the sequential executor. *)
let test_seq_equals_partitioned_matrix () =
  with_tiny_morsels (fun () ->
      let datasets =
        [ ("fig1", Helpers.fig1_triples (), Db2rdf.Layout.default,
           [ ("fig1-star",
              "SELECT ?f ?i WHERE { ?p <founder> ?f . ?f <industry> ?i }") ]);
          ("micro",
           Workloads.Micro.generate ~scale:2_000,
           Db2rdf.Layout.make ~dph_cols:8 ~rph_cols:8,
           matrix_queries);
          (* 2-column layout: most predicates spill, so the executor
             joins spill tables back in — a join-heavy plan shape. *)
          ("micro-spill",
           Workloads.Micro.generate ~scale:1_000,
           Db2rdf.Layout.make ~dph_cols:2 ~rph_cols:2,
           matrix_queries)
        ]
      in
      List.iter
        (fun (dname, triples, layout, queries) ->
          let e, _, _ = Db2rdf.Engine.create_colored ~layout triples in
          let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
          List.iter
            (fun (qname, src) ->
              let stmt = Db2rdf.Engine.translate e (Sparql.Parser.parse src) in
              let seq = Executor.run ~domains:1 db stmt in
              let expect = batch_strings seq in
              List.iter
                (fun domains ->
                  let got = Executor.run ~domains db stmt in
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s/%s domains=%d" dname qname domains)
                    expect (batch_strings got))
                [ 1; 2; 4; 8 ])
            queries)
        datasets)

(* ------------------------------------------------------------------ *)
(* Property: random relations, partitioned ≡ sequential                *)
(* ------------------------------------------------------------------ *)

let gen_relation : (Value.t * int) list QCheck.Gen.t =
  let open QCheck.Gen in
  (* Keys from a small domain with NULLs and heavy skew mixed in, so
     partitions collide, stay empty, or take all the rows. *)
  let key =
    frequency
      [ (2, return Value.Null);
        (5, return (Value.Int 0));
        (3, map (fun i -> Value.Int i) (int_range 0 4));
        (1, map (fun i -> Value.Int i) (int_range 0 1000));
        (1, map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'c')
                                          (int_range 0 3))) ]
  in
  list_size (int_range 0 60) (pair key (int_range 0 1_000_000))

let print_relation rel =
  String.concat "; "
    (List.map
       (fun (k, v) -> Printf.sprintf "(%s,%d)" (Value.to_string k) v)
       rel)

let partitioned_join_matches_sequential =
  QCheck.Test.make
    ~name:"partitioned hash join ≡ sequential on random relations"
    ~count:120
    (QCheck.make
       QCheck.Gen.(pair gen_relation gen_relation)
       ~print:(fun (l, r) ->
         Printf.sprintf "left=[%s] right=[%s]" (print_relation l)
           (print_relation r)))
    (fun (left, right) ->
      with_tiny_morsels (fun () ->
          let db = join_db ~left ~right in
          List.for_all
            (fun sql ->
              let stmt = Sql_parser.parse sql in
              let seq = Executor.run ~domains:1 db stmt in
              let expect = batch_strings seq in
              List.for_all
                (fun d -> expect = batch_strings (Executor.run ~domains:d db stmt))
                [ 2; 4; 8 ])
            [ join_sql; left_join_sql ]))

(* ------------------------------------------------------------------ *)
(* Differential fuzz with partitioned joins                            *)
(* ------------------------------------------------------------------ *)

(** Fixed-seed differential sweep with parallel execution AND
    partitioned join builds (4 domains build into 8 partitions): every
    backend vs the reference evaluator. *)
let test_fuzz_sweep_partitioned () =
  let config =
    { Fuzz.Runner.default_config with seed = 4242; cases = 200; domains = 4 }
  in
  let s = Fuzz.Runner.fuzz config in
  Alcotest.(check int) "no divergences with domains=4 partitions=8" 0
    s.Fuzz.Runner.divergent;
  Alcotest.(check int) "all cases ran" 200 s.Fuzz.Runner.cases_run

let suite =
  [ Alcotest.test_case "dpool.partition: histogram/scatter" `Quick
      test_partition_histogram_scatter;
    Alcotest.test_case "dpool.partition: drops negatives" `Quick
      test_partition_drops_negative;
    Alcotest.test_case "dpool.partition: single bucket" `Quick
      test_partition_single_bucket;
    Alcotest.test_case "join_hash: build order + validation" `Quick
      test_join_hash_build_order;
    Alcotest.test_case "table: version bumps on every write" `Quick
      test_table_epoch_bumps;
    Alcotest.test_case "scan cache: key versioning" `Quick
      test_scan_cache_key_versioning;
    Alcotest.test_case "scan cache: private copies + counters" `Quick
      test_scan_cache_copies;
    Alcotest.test_case "scan cache: size bound" `Quick
      test_scan_cache_size_bound;
    Alcotest.test_case "scan cache: executor hit/miss/invalidate" `Quick
      test_scan_cache_in_executor;
    Alcotest.test_case "scan cache: delta insert + merge invalidate" `Quick
      test_scan_cache_delta_invalidation;
    Alcotest.test_case "partitioned build: metrics in ANALYZE" `Quick
      test_partitioned_build_metrics;
    Alcotest.test_case "partitioned build: all-NULL and skew keys" `Quick
      test_partitioned_all_null_and_skew;
    Alcotest.test_case "parallel probe: computed string and real keys" `Quick
      test_computed_probe_keys;
    Alcotest.test_case "sequential ≡ partitioned (full matrix)" `Slow
      test_seq_equals_partitioned_matrix;
    QCheck_alcotest.to_alcotest partitioned_join_matches_sequential;
    Alcotest.test_case "fuzz sweep with domains=4 partitions=8" `Slow
      test_fuzz_sweep_partitioned ]
