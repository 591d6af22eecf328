(** Copy-on-write snapshot isolation: a reader's snapshot is
    bit-stable while a writer commits, snapshots carry their own
    scan-cache and no reduction registry, and the epoch-stamped caches
    serve each snapshot at its own stamp. *)

open Db2rdf

let term pfx i = Rdf.Term.iri (Printf.sprintf "%s%d" pfx i)

let triple (s, p, o) = Rdf.Triple.make (term "s" s) (term "p" p) (term "o" o)

let dump_src = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

(* Canonical, order-insensitive rendering of a result set. *)
let canon (r : Sparql.Ref_eval.results) : string list =
  List.sort String.compare
    (List.map
       (fun row ->
         String.concat "\t"
           (List.map
              (function Some t -> Rdf.Term.to_string t | None -> "")
              row))
       r.Sparql.Ref_eval.rows)

let initial =
  List.map triple
    [ (1, 1, 1); (1, 1, 2); (1, 2, 1); (2, 2, 1); (3, 1, 2); (4, 3, 4) ]

let make_engine ?(options = Engine.default_options) () =
  let e =
    Engine.create ~options ~layout:(Layout.make ~dph_cols:3 ~rph_cols:3) ()
  in
  Engine.load e initial;
  e

(* ------------------------------------------------------------------ *)
(* Sequential isolation                                                *)
(* ------------------------------------------------------------------ *)

(** A snapshot pins the committed state at capture: later commits are
    invisible to it, visible to fresh snapshots and the live engine. *)
let test_snapshot_pins_state () =
  let e = make_engine () in
  let s0 = Engine.snapshot e in
  let before = canon (Engine.snapshot_query_string s0 dump_src) in
  Alcotest.(check int) "baseline size" (List.length initial)
    (List.length before);
  Engine.update_string e "INSERT DATA { <w1> <p9> <o1> }";
  Engine.update_string e "DELETE WHERE { <s1> <p1> ?o }";
  let s1 = Engine.snapshot e in
  Alcotest.(check (list string)) "old snapshot unchanged" before
    (canon (Engine.snapshot_query_string s0 dump_src));
  let after = canon (Engine.snapshot_query_string s1 dump_src) in
  Alcotest.(check bool) "new snapshot sees commits" true (after <> before);
  Alcotest.(check (list string)) "live engine agrees with new snapshot" after
    (canon (Engine.query_string e dump_src));
  Alcotest.(check bool) "stamps differ across commits" true
    (Engine.snapshot_stamp s0 <> Engine.snapshot_stamp s1)

(** Same pinning property when the store is compressed: capture shares
    the packed mains, and the writer's relocations and merges must not
    leak into the snapshot's shared packed columns. *)
let test_snapshot_pins_compressed () =
  let e =
    make_engine ~options:{ Engine.default_options with compress = true } ()
  in
  let s0 = Engine.snapshot e in
  let before = canon (Engine.snapshot_query_string s0 dump_src) in
  Engine.update_string e "DELETE DATA { <s1> <p1> <o1> }";
  Engine.update_string e "INSERT DATA { <s9> <p9> <o9> . <s9> <p1> <o1> }";
  Alcotest.(check (list string)) "compressed snapshot unchanged" before
    (canon (Engine.snapshot_query_string s0 dump_src));
  Alcotest.(check int) "live engine moved on"
    (List.length initial + 1)
    (List.length (canon (Engine.query_string e dump_src)))

(* ------------------------------------------------------------------ *)
(* Concurrent writer / reader stress                                   *)
(* ------------------------------------------------------------------ *)

(** Readers each capture a private snapshot, then re-run the dump while
    the main domain commits a stream of updates. Every reader must see
    its own baseline, bit-identical, on every round. *)
let stress ~parallelism ~readers:n_readers () =
  let e =
    make_engine ~options:{ Engine.default_options with parallelism } ()
  in
  let stop = Atomic.make false in
  let readers =
    List.init n_readers (fun _ ->
        Domain.spawn (fun () ->
            let s = Engine.snapshot e in
            let baseline = canon (Engine.snapshot_query_string s dump_src) in
            let ok = ref true in
            let rounds = ref 0 in
            while (not (Atomic.get stop)) && !rounds < 100 do
              incr rounds;
              if canon (Engine.snapshot_query_string s dump_src) <> baseline
              then ok := false
            done;
            (!ok, !rounds)))
  in
  (* writer: a stream of inserts and deletes on the main domain *)
  for i = 0 to 39 do
    Engine.update_string e
      (Printf.sprintf "INSERT DATA { <w%d> <p1> <o%d> . <w%d> <p9> \"v\" }" i
         (i mod 5) i);
    if i mod 4 = 3 then
      Engine.update_string e (Printf.sprintf "DELETE WHERE { <w%d> ?p ?o }" (i - 2))
  done;
  Atomic.set stop true;
  let results = List.map Domain.join readers in
  List.iteri
    (fun i (ok, rounds) ->
      Alcotest.(check bool)
        (Printf.sprintf "reader %d bit-stable over %d rounds" i rounds)
        true ok)
    results;
  (* the writer's commits are all visible to a fresh snapshot *)
  let final = canon (Engine.query_string e dump_src) in
  let snap = canon (Engine.snapshot_query_string (Engine.snapshot e) dump_src) in
  Alcotest.(check (list string)) "fresh snapshot = live state" final snap

let test_stress_seq () = stress ~parallelism:1 ~readers:2 ()
let test_stress_par2 () = stress ~parallelism:2 ~readers:2 ()
let test_stress_par4 () = stress ~parallelism:4 ~readers:3 ()

(* ------------------------------------------------------------------ *)
(* Versioned caches                                                    *)
(* ------------------------------------------------------------------ *)

(** The statement cache serves entries per snapshot stamp: an old
    snapshot keeps answering from its own data version after a commit
    re-translates for the live one, and both answers are right. *)
let test_statement_cache_per_snapshot () =
  let e = make_engine () in
  let q = "SELECT ?o WHERE { <s1> <p1> ?o }" in
  (* populate the cache on the live path *)
  ignore (Engine.query_string e q);
  let s0 = Engine.snapshot e in
  let before = canon (Engine.snapshot_query_string s0 q) in
  Alcotest.(check int) "two objects before" 2 (List.length before);
  Engine.update_string e "INSERT DATA { <s1> <p1> <o7> }";
  let s1 = Engine.snapshot e in
  (* stale-stamped entry must not leak fresh data into s0, nor pin s1
     to the old answer *)
  Alcotest.(check (list string)) "old snapshot's answer stable" before
    (canon (Engine.snapshot_query_string s0 q));
  Alcotest.(check int) "new snapshot sees the insert" 3
    (List.length (canon (Engine.snapshot_query_string s1 q)));
  Alcotest.(check int) "live path agrees" 3
    (List.length (canon (Engine.query_string e q)));
  let st = Engine.plan_cache_stats e in
  Alcotest.(check bool) "statement cache in use" true
    (st.Relsql.Plan_cache.entries > 0
     && st.Relsql.Plan_cache.hits + st.Relsql.Plan_cache.misses > 0)

(** [Database.snapshot] gives the snapshot its own scan cache (no
    sharing with the live writer) and no reduction registry. *)
let test_database_snapshot_caches () =
  let e = make_engine () in
  let db = Loader.database (Engine.loader e) in
  let snap = Relsql.Database.snapshot db in
  Alcotest.(check bool) "own scan cache" true
    (Relsql.Database.scan_cache snap != Relsql.Database.scan_cache db);
  let dph = Relsql.Database.find_exn db "DPH"
  and sdph = Relsql.Database.find_exn snap "DPH" in
  Alcotest.(check int) "snapshot shares the source's main"
    (Relsql.Table.main_slots dph) (Relsql.Table.main_slots sdph);
  let n0 = Relsql.Table.row_count sdph in
  (* mutate the live table; the snapshot view must not move *)
  Relsql.Table.delete_row dph 0;
  Alcotest.(check int) "snapshot row_count pinned" n0
    (Relsql.Table.row_count sdph);
  Alcotest.(check int) "live row_count moved" (n0 - 1)
    (Relsql.Table.row_count dph)

(** Capturing a boxed (never-merged) engine copies its delta as it is
    and leaves the source untouched: every source table keeps an empty
    main and its epoch. The snapshot stays bit-stable while the source
    rewrites delta rows in place and deletes rows. *)
let test_snapshot_boxed_source () =
  let e = make_engine () in
  let db = Loader.database (Engine.loader e) in
  let tables = Relsql.Database.table_names db in
  let epochs () =
    List.map (fun n -> Relsql.Table.epoch (Relsql.Database.find_exn db n)) tables
  in
  let e0 = epochs () in
  let es = Engine.snapshot e in
  let snap = Relsql.Database.snapshot db in
  List.iter
    (fun n ->
      Alcotest.(check int) (n ^ ": source main stays empty") 0
        (Relsql.Table.main_slots (Relsql.Database.find_exn db n)))
    tables;
  Alcotest.(check (list int)) "source epochs untouched" e0 (epochs ());
  Alcotest.(check int) "snapshot stamp is the source epoch"
    (Relsql.Database.epoch db) (Engine.snapshot_stamp es);
  let dump = canon (Engine.snapshot_query_string es dump_src) in
  let dph = Relsql.Database.find_exn db "DPH"
  and sdph = Relsql.Database.find_exn snap "DPH" in
  let rows t = Relsql.Table.fold (fun acc rid row -> (rid, Array.copy row) :: acc) [] t in
  let before = rows sdph and n0 = Relsql.Table.row_count sdph in
  (* a statement through the engine, then raw writes: rewrite every
     cell of a live delta row in place and delete another row *)
  Engine.update_string e "DELETE WHERE { ?s <p1> ?o }";
  let live = List.rev_map fst (rows dph) in
  let rid = List.hd live in
  for pos = 0 to Relsql.Schema.arity (Relsql.Table.schema dph) - 1 do
    Alcotest.(check int) "delta write stays in place" rid
      (Relsql.Table.set_cell dph rid pos (Relsql.Value.Int (1000 + pos)))
  done;
  Relsql.Table.delete_row dph (List.nth live 1);
  Relsql.Table.check dph;
  Relsql.Table.check sdph;
  Alcotest.(check bool) "snapshot rows bit-stable" true
    (Stdlib.compare before (rows sdph) = 0);
  Alcotest.(check int) "snapshot row_count pinned" n0 (Relsql.Table.row_count sdph);
  Alcotest.(check (list string)) "engine snapshot answers pinned" dump
    (canon (Engine.snapshot_query_string es dump_src));
  Alcotest.(check int) "source still never merged" 0 (Relsql.Table.main_slots dph)

(** A snapshot captured while the compressed store carries a {e live
    delta} (writes resident in the packed tables' boxed delta side, not
    yet merged) is bit-stable: the packed main is shared, the delta
    rows and tombstone bitmap are deep-copied, so neither further live
    writes nor the live side's merge — which rebuilds its packed main —
    can leak into the capture. *)
let test_snapshot_with_live_delta () =
  let e =
    make_engine ~options:{ Engine.default_options with compress = true } ()
  in
  let db = Loader.database (Engine.loader e) in
  let pending () =
    List.fold_left
      (fun acc n ->
        let t = Relsql.Database.find_exn db n in
        acc + Relsql.Table.delta_rows t + Relsql.Table.main_tombstones t)
      0
      (Relsql.Database.table_names db)
  in
  (* put the store into a delta-resident state *)
  Engine.update_string e "DELETE DATA { <s1> <p1> <o1> }";
  Engine.update_string e "INSERT DATA { <s8> <p8> <o8> }";
  Alcotest.(check bool) "live store carries a delta" true (pending () > 0);
  let s0 = Engine.snapshot e in
  let before = canon (Engine.snapshot_query_string s0 dump_src) in
  Alcotest.(check int) "capture sees the delta-resident writes"
    (List.length initial)
    (List.length before);
  (* keep writing, then fold the live delta back into a fresh main *)
  Engine.update_string e "INSERT DATA { <s9> <p9> <o9> }";
  Alcotest.(check bool) "merge folds at least one table" true
    (Engine.merge e > 0);
  Alcotest.(check int) "live delta folded" 0 (pending ());
  Alcotest.(check (list string)) "snapshot with live delta bit-stable" before
    (canon (Engine.snapshot_query_string s0 dump_src));
  Engine.update_string e "DELETE WHERE { <s8> ?p ?o }";
  Alcotest.(check (list string)) "stable across post-merge writes too" before
    (canon (Engine.snapshot_query_string s0 dump_src));
  let final = canon (Engine.query_string e dump_src) in
  Alcotest.(check (list string)) "fresh snapshot = live state" final
    (canon (Engine.snapshot_query_string (Engine.snapshot e) dump_src))

(** ExtVP reductions revalidate by stamp: a commit invalidates resident
    entries, later queries rebuild and still agree with the reference
    answer; snapshot reads (which carry no registry) agree too. *)
let test_extvp_stamps_across_commit () =
  let options =
    { Engine.default_options with extvp = true; extvp_threshold = 1.0 }
  in
  let e = make_engine ~options () in
  (match Engine.extvp_registry e with
   | Some reg -> Relsql.Extvp.set_force reg true
   | None -> Alcotest.fail "extvp registry missing");
  let q = "SELECT ?x WHERE { ?x <p1> ?a . ?x <p2> ?b }" in
  let before = canon (Engine.query_string e q) in
  (* s1 matches, with its multi-valued p1 contributing two bindings *)
  Alcotest.(check int) "star matches s1 initially" 2 (List.length before);
  let s0 = Engine.snapshot e in
  Engine.update_string e "INSERT DATA { <s7> <p1> <o1> . <s7> <p2> <o2> }";
  let after = canon (Engine.query_string e q) in
  Alcotest.(check int) "rebuilt reduction sees new star" 3
    (List.length after);
  Alcotest.(check (list string)) "old snapshot still pre-commit" before
    (canon (Engine.snapshot_query_string s0 q));
  (match Engine.extvp_registry e with
   | Some reg ->
     let c = Relsql.Extvp.counters reg in
     Alcotest.(check bool) "reductions were built" true
       (c.Relsql.Extvp.builds > 0)
   | None -> ())

let suite =
  [ Alcotest.test_case "snapshot pins state" `Quick test_snapshot_pins_state;
    Alcotest.test_case "snapshot pins compressed state" `Quick
      test_snapshot_pins_compressed;
    Alcotest.test_case "writer/reader stress (seq)" `Quick test_stress_seq;
    Alcotest.test_case "writer/reader stress (2 domains)" `Quick
      test_stress_par2;
    Alcotest.test_case "writer/reader stress (4 domains)" `Quick
      test_stress_par4;
    Alcotest.test_case "statement cache per snapshot" `Quick
      test_statement_cache_per_snapshot;
    Alcotest.test_case "database snapshot caches" `Quick
      test_database_snapshot_caches;
    Alcotest.test_case "snapshot with live delta bit-stable" `Quick
      test_snapshot_with_live_delta;
    Alcotest.test_case "snapshot of a boxed engine leaves it boxed" `Quick
      test_snapshot_boxed_source;
    Alcotest.test_case "extvp stamps across commit" `Quick
      test_extvp_stamps_across_commit ]
