(** The DB2RDF engine facade: create a store (optionally bulk-loading
    with graph coloring), load triples, and evaluate SPARQL through the
    full pipeline of the paper — parse tree → data flow → optimal flow
    tree → execution tree (late fusing) → merged query plan → SQL →
    relational execution. *)

type options = {
  optimize : bool;  (** hybrid optimizer on (Best flow) vs naive (Worst) *)
  merge : bool;  (** star merging in the translator *)
  late_fuse : bool;  (** late fusing in the query plan builder *)
  parallelism : int;
      (** domains the executor may spread hot operators over
          (1 = sequential) *)
  compress : bool;
      (** merge tables into bit-packed columnar storage (zone maps +
          word-at-a-time scans) after bulk load, and after a write
          statement whenever [Table.merge_due] says so; purely
          physical, results are bit-identical *)
  wcoj : bool;
      (** allow the worst-case-optimal (leapfrog) multiway join:
          eligible conjunctive queries translate to the flat join form
          and the planner picks between the binary join tree and the
          leapfrog operator from characteristic-set statistics; purely
          a plan-shape knob, results are bit-identical *)
  extvp : bool;
      (** allow ExtVP-style semi-join reductions: the SQL generator may
          substitute a lazily materialized DPH row-subset for a star's
          base scan when a join edge matches a (predicate pair,
          correlation) signature with low estimated selectivity; purely
          a plan-shape knob, results are bit-identical *)
  extvp_build : bool;
      (** eagerly materialize every advisable reduction at bulk-load
          time instead of on first planner request *)
  extvp_threshold : float;
      (** keep a reduction only when its measured selectivity (kept
          rows / source rows) is below this (S2RDF's ScaleUB) *)
  extvp_budget_mb : int;
      (** global byte budget for cached reductions; least recently used
          are evicted beyond it *)
}

let default_options =
  { optimize = true; merge = true; late_fuse = true; parallelism = 1;
    compress = false; wcoj = false;
    extvp = false; extvp_build = false;
    extvp_threshold = Relsql.Extvp.default_threshold; extvp_budget_mb = 64 }

(* A compact id of an options record, covering every knob: benchmark
   headers print it so two result files can tell their configurations
   apart. *)
let options_fingerprint (o : options) =
  Printf.sprintf "O%b%b%b|p%d|c%b|w%b|e%b|eb%b|et%.4f|em%d"
    o.optimize o.merge o.late_fuse o.parallelism o.compress o.wcoj o.extvp
    o.extvp_build o.extvp_threshold o.extvp_budget_mb

type t = {
  loader : Loader.t;
  dict_state : Dict_table.state;
  options : options;
  lock : Mutex.t;
      (* serializes writers and the snapshot/translate/decode critical
         sections against them; snapshot readers execute unlocked on
         their private table copies *)
}

(* Materialize one semi-join reduction: the subset of DPH rows whose
   entity can contribute to a join edge with the key's signature,
   under DPH's own schema so every star template runs against it
   unchanged. Membership comes from the statistics' (pred, id) seen
   sets, which deletes never shrink — the subset is always a safe
   superset of the contributing rows, and the surrounding pred/val
   conditions of the star template restore the exact multiset. All
   rows of a qualifying entity are kept (spill rows included), so
   spill chasing inside a star is unaffected. Deterministic at a
   fixed catalog stamp: rebuilding after an LRU eviction yields a
   bit-identical table. *)
let extvp_builder loader (key : Relsql.Extvp.key) =
  let db = Loader.database loader in
  let dph = Relsql.Database.find_exn db "DPH" in
  let schema = Relsql.Table.schema dph in
  let pos = Layout.positions schema (Loader.column_count loader Loader.Direct) in
  let stats = Loader.stats loader in
  let p1 = key.Relsql.Extvp.p1 and p2 = key.Relsql.Extvp.p2 in
  let entry_keep test row =
    match row.(pos.Layout.entry_pos) with
    | Relsql.Value.Int e ->
      Dataset_stats.subject_has_pred stats ~p:p1 ~s:e && test e
    | _ -> false
  in
  let keep =
    match key.Relsql.Extvp.corr with
    | Relsql.Extvp.SS ->
      entry_keep (fun e -> Dataset_stats.subject_has_pred stats ~p:p2 ~s:e)
    | Relsql.Extvp.SO ->
      entry_keep (fun e -> Dataset_stats.object_of_pred stats ~p:p2 ~o:e)
    | Relsql.Extvp.OS ->
      (* Row-level, not entity-level: the row must itself carry [p1]
         and its value must be a known subject of [p2]. A multi-valued
         cell ([Lid]) is kept outright — resolving the secondary list
         is not worth it for a pruning structure, and supersets are
         always safe. *)
      let cols = Loader.storage_columns loader Loader.Direct ~pred_id:p1 in
      fun row ->
        List.exists
          (fun c ->
            row.(pos.Layout.pred_pos.(c)) = Relsql.Value.Int p1
            && (match row.(pos.Layout.val_pos.(c)) with
                | Relsql.Value.Int v ->
                  Dataset_stats.subject_has_pred stats ~p:p2 ~s:v
                | Relsql.Value.Lid _ -> true
                | _ -> false))
          cols
  in
  let out = Relsql.Table.create (Relsql.Extvp.name_of_key key) schema in
  let total = ref 0 and kept = ref 0 in
  Relsql.Table.iter
    (fun _ row ->
      incr total;
      if keep row then begin
        incr kept;
        (* [insert] takes ownership of the array *)
        ignore (Relsql.Table.insert out (Array.copy row))
      end)
    dph;
  Relsql.Table.create_index_on out "entry";
  if Relsql.Table.frozen dph then Relsql.Table.merge out;
  (out, !total, !kept)

(** Create an empty engine with hash-composition predicate mappings. *)
let create ?(layout = Layout.default) ?(options = default_options) ?direct_map
    ?reverse_map () =
  let loader = Loader.create ~layout ?direct_map ?reverse_map () in
  Relsql.Database.set_parallelism (Loader.database loader) options.parallelism;
  Relsql.Database.set_wcoj (Loader.database loader) options.wcoj;
  (* The relational planner cannot see RDF statistics; the engine
     bridges the layers by installing the CS-informed chooser as a
     closure over the loader's statistics. *)
  Relsql.Database.set_wcoj_selector (Loader.database loader)
    (Some (fun req -> Cost.wcoj_decision (Loader.stats loader) req));
  (* The reduction registry is installed unconditionally (the hooks are
     cheap closures); whether the planner may substitute reductions is
     the per-call [extvp] option, checked at translation time. The
     stamp is the catalog epoch, so every write and every merge
     retires reductions — a packed store must serve packed reductions
     over current rows. *)
  let db = Loader.database loader in
  let reg = Relsql.Extvp.create () in
  Relsql.Extvp.set_hooks reg
    ~builder:(fun key -> extvp_builder loader key)
    ~stamp:(fun () -> Relsql.Database.epoch db)
    ~estimator:(fun key -> Cost.extvp_selectivity (Loader.stats loader) key);
  (* A recycled reduction name restarts its table's epoch at 0, so a
     stale drop must clear the scan cache — same-name same-epoch
     entries of the previous generation would otherwise be served. *)
  Relsql.Extvp.set_on_invalidate reg (fun () ->
    Relsql.Scan_cache.clear (Relsql.Database.scan_cache db));
  Relsql.Extvp.set_threshold reg options.extvp_threshold;
  Relsql.Extvp.set_budget_bytes reg (options.extvp_budget_mb * 1024 * 1024);
  Relsql.Database.set_extvp db (Some reg);
  let dict_state = Dict_table.create db in
  { loader; dict_state; options; lock = Mutex.create () }

(** A view of the same store under different options: shares the loader
    (data, statistics, dictionary); every read translates under the
    view's own options. *)
let with_options t options = { t with options }

(** The store's semi-join reduction registry (always installed). *)
let extvp_registry t = Relsql.Database.extvp (Loader.database t.loader)

(* Views created by [with_options] share the registry; align its
   retention knobs with the effective options of this call before any
   resolve can fire a build. *)
let sync_extvp t (options : options) =
  match extvp_registry t with
  | None -> ()
  | Some reg ->
    Relsql.Extvp.set_threshold reg options.extvp_threshold;
    Relsql.Extvp.set_budget_bytes reg (options.extvp_budget_mb * 1024 * 1024)

(** Eagerly materialize every advisable reduction over the current
    predicates — the [extvp_build] batch mode; a no-op for pairs the
    estimator prices over the threshold. *)
let build_reductions t =
  match extvp_registry t with
  | None -> ()
  | Some reg ->
    sync_extvp t t.options;
    let preds = Dataset_stats.predicates (Loader.stats t.loader) in
    List.iter
      (fun p1 ->
        List.iter
          (fun p2 ->
            if p1 <> p2 then
              List.iter
                (fun corr ->
                  let key = { Relsql.Extvp.p1; p2; corr } in
                  if Relsql.Extvp.advisable reg key then
                    ignore
                      (Relsql.Extvp.resolve reg (Relsql.Extvp.name_of_key key)))
                [ Relsql.Extvp.SS; Relsql.Extvp.SO; Relsql.Extvp.OS ])
          preds)
      preds

let loader t = t.loader
let dictionary t = Loader.dictionary t.loader

(* Data changes need no explicit cache hooks: every write path bumps
   Table.epoch, which shifts Database.epoch, which retires scan-cache
   entries (the epoch is part of their key). A bulk load still clears
   the scan cache outright — after a load the dataset shape has
   typically changed wholesale, so keeping capacity's worth of dead
   entries around until the LRU cycles them out is pure memory waste. *)
let load ?parse_s t triples =
  Relsql.Scan_cache.clear (Relsql.Database.scan_cache (Loader.database t.loader));
  Option.iter Relsql.Extvp.clear (extvp_registry t);
  Loader.load ?parse_s t.loader triples;
  Dict_table.sync t.dict_state (Loader.dictionary t.loader);
  if t.options.compress then
    ignore (Relsql.Database.merge_all (Loader.database t.loader));
  if t.options.extvp && t.options.extvp_build then build_reductions t

(** Timings of the most recent bulk load. *)
let load_stats t = Loader.last_load_stats t.loader

(** Graph-color (a sample of) [triples] into direct and reverse
    predicate mappings (Sections 2.2/2.3). [sample] < 1.0 colors only
    that fraction of the data. *)
let color_predicates ?(layout = Layout.default) ?(sample = 1.0)
    (triples : Rdf.Triple.t list) =
  let sampled = Coloring.sample_triples ~fraction:sample triples in
  (* One scan of the sample builds both interference graphs. *)
  let dgraph, rgraph = Coloring.interference_graphs sampled in
  let dcol = Coloring.color ~max_colors:layout.Layout.dph_cols dgraph in
  let rcol = Coloring.color ~max_colors:layout.Layout.rph_cols rgraph in
  ( Coloring.to_pred_map ~m:layout.Layout.dph_cols dcol,
    Coloring.to_pred_map ~m:layout.Layout.rph_cols rcol,
    dcol,
    rcol )

(** Create an engine whose predicate mappings come from graph-coloring
    (a sample of) [triples], then bulk-load them. *)
let create_colored ?(layout = Layout.default) ?options ?sample triples =
  let direct_map, reverse_map, dcol, rcol = color_predicates ~layout ?sample triples in
  let e = create ~layout ?options ~direct_map ~reverse_map () in
  load e triples;
  (e, dcol, rcol)

let insert t triple =
  Loader.insert t.loader triple;
  Dict_table.sync t.dict_state (Loader.dictionary t.loader)

(** Delete a triple (no-op when absent). *)
let delete t triple = Loader.delete t.loader triple

(* Write epilogue of a SPARQL UPDATE statement: keep the DICT table in
   step with dictionary growth, and under [--compress] keep the catalog
   packed without paying a re-encode per statement — the write itself
   landed in the touched tables' deltas, so the epilogue only merges
   the tables whose delta the shared policy says is due. *)
let after_write t =
  Dict_table.sync t.dict_state (Loader.dictionary t.loader);
  if t.options.compress then
    ignore (Relsql.Database.merge_due (Loader.database t.loader))

(** Under [compress], eagerly fold every table's delta into its packed
    main ([rdfstore merge]); returns how many tables actually merged.
    A store built without [compress] never packs, so this does nothing
    on it. Runs under the writer lock — a concurrent snapshot sees the
    store before or after, never mid-compaction (and either way reads
    the same rows: merging is purely physical). *)
let merge t =
  if not t.options.compress then 0
  else
    Mutex.protect t.lock (fun () ->
      Relsql.Database.merge_all (Loader.database t.loader))

(** Always zero: reads are not cached; kept for the benchmark's report. *)
let plan_cache_stats _ = { Relsql.Plan_cache.hits = 0; misses = 0; entries = 0 }

(** Hit/miss/occupancy counters of the shared scan cache. *)
let scan_cache_stats t =
  Relsql.Scan_cache.stats (Relsql.Database.scan_cache (Loader.database t.loader))

(* ------------------------------------------------------------------ *)
(* Translation pipeline                                                *)
(* ------------------------------------------------------------------ *)

let access_side = function
  | Cost.Aco -> Loader.Reverse
  | Cost.Acs | Cost.Sc -> Loader.Direct

let merge_ctx t (pt : Sparql.Pattern_tree.t) (q : Sparql.Ast.query) : Merge.ctx =
  let dict = Loader.dictionary t.loader in
  let pred_id (pat : Sparql.Ast.triple_pat) =
    match pat.Sparql.Ast.tp_p with
    | Sparql.Ast.Term term -> Rdf.Dictionary.find dict term
    | Sparql.Ast.Var _ -> None
  in
  let counts = Hashtbl.create 16 in
  let count_var v =
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  in
  let rec count_pattern = function
    | Sparql.Ast.Bgp tps ->
      List.iter (fun tp -> List.iter count_var (Sparql.Ast.triple_pat_vars tp)) tps
    | Sparql.Ast.Group ps | Sparql.Ast.Union ps -> List.iter count_pattern ps
    | Sparql.Ast.Optional p -> count_pattern p
    | Sparql.Ast.Filter _ -> ()
  in
  count_pattern q.Sparql.Ast.where;
  {
    Merge.pt;
    pred_spills =
      (fun m pat ->
        match pat.Sparql.Ast.tp_p with
        | Sparql.Ast.Var _ -> true
        | Sparql.Ast.Term _ ->
          (match pred_id pat with
           | Some pid -> Loader.is_spill_involved t.loader (access_side m) ~pred_id:pid
           | None -> false));
    pred_multivalued =
      (fun m pat ->
        match pred_id pat with
        | Some pid -> Loader.is_multivalued t.loader (access_side m) ~pred_id:pid
        | None -> false);
    var_count = (fun v -> Option.value ~default:0 (Hashtbl.find_opt counts v));
    merging_enabled = t.options.merge;
  }

(* Every translation stage of one query, its intermediate results
   kept: {!translate} returns the statement and {!explain} prints each
   stage, so EXPLAIN shows exactly the statement a query runs. *)
let stages (options : options) t (q : Sparql.Ast.query) =
  let pt = Sparql.Pattern_tree.of_query q in
  let stats = Loader.stats t.loader in
  let dict = Loader.dictionary t.loader in
  let objective = if options.optimize then Dataflow.Best else Dataflow.Worst in
  let _, flow = Dataflow.compute ~objective pt stats dict in
  let etree =
    if options.late_fuse then Exec_tree.build pt flow
    else Exec_tree.build_syntactic pt flow
  in
  let plan = Merge.of_exec (merge_ctx { t with options } pt q) etree in
  if options.extvp then sync_extvp t options;
  let extvp = if options.extvp then extvp_registry t else None in
  let stmt = Sqlgen.generate ~wcoj:options.wcoj ?extvp t.loader pt plan q in
  (pt, flow, etree, plan, stmt)

(** Full translation of a parsed query to SQL. *)
let translate ?(options : options option) t (q : Sparql.Ast.query) :
  Relsql.Sql_ast.stmt =
  let _, _, _, _, stmt = stages (Option.value ~default:t.options options) t q in
  stmt

(* Align the catalog's WCOJ planning knob with this call's effective
   options before executing: the planner reads it at plan time, and a
   per-call [?options] override must beat the engine default. The
   reduction registry's retention knobs follow too — executing a
   statement can still trigger a lazy (re)build of a reduction. *)
let apply_exec_options t (options : options) =
  Relsql.Database.set_wcoj (Loader.database t.loader) options.wcoj;
  if options.extvp then sync_extvp t options

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                    *)
(* ------------------------------------------------------------------ *)

(* Decode [r], then give its arrays back for the next statement. *)
let decode_results t (q : Sparql.Ast.query) (r : Relsql.Executor.result) :
  Sparql.Ref_eval.results =
  let res = Results.decode (Loader.dictionary t.loader) q r in
  Relsql.Batch.release r;
  res

(** Evaluate a parsed query end to end. *)
let query ?timeout ?options t (q : Sparql.Ast.query) : Sparql.Ref_eval.results =
  let stmt = translate ?options t q in
  apply_exec_options t (Option.value ~default:t.options options);
  let r = Relsql.Executor.run ?timeout (Loader.database t.loader) stmt in
  decode_results t q r

(** Evaluate a parsed query and collect per-operator execution metrics
    (EXPLAIN ANALYZE through the full pipeline). The scan-cache counters
    ride along as a synthetic child of the root so ANALYZE output
    surfaces hit rates without a separate channel. *)
let query_analyzed ?timeout ?options t (q : Sparql.Ast.query) :
  Sparql.Ref_eval.results * Relsql.Opstats.t =
  let stmt = translate ?options t q in
  apply_exec_options t (Option.value ~default:t.options options);
  let r, stats =
    Relsql.Executor.run_analyzed ?timeout (Loader.database t.loader) stmt
  in
  stats.Relsql.Opstats.children <-
    stats.Relsql.Opstats.children
    @ [ Relsql.Opstats.make (Relsql.Scan_cache.stats_to_string
          (Relsql.Database.scan_cache (Loader.database t.loader))) ];
  (decode_results t q r, stats)

(** Parse and evaluate a SPARQL string. *)
let query_string ?timeout ?options t (src : string) : Sparql.Ref_eval.results =
  query ?timeout ?options t (Sparql.Parser.parse src)

(* ------------------------------------------------------------------ *)
(* SPARQL UPDATE                                                       *)
(* ------------------------------------------------------------------ *)

(** Apply a SPARQL UPDATE through the DB2RDF layout. The DATA forms
    drive the incremental insert/delete paths (dictionary growth, slot
    placement with spill/lid maintenance, tombstoned rows with index
    and statistics upkeep); [DELETE WHERE] evaluates its pattern
    through the engine's own query pipeline against the pre-update
    state, then deletes the instantiated template triples. The whole
    statement runs under the writer lock, so concurrent {!snapshot}
    readers observe either none or all of it. *)
let update t (u : Sparql.Ast.update) : unit =
  Mutex.protect t.lock (fun () ->
    Store.update_via u
      ~query:(fun ?timeout q -> query ?timeout t q)
      ~insert:(fun ts ->
        List.iter (Loader.insert t.loader) ts;
        after_write t)
      ~delete:(fun ts ->
        List.iter (Loader.delete t.loader) ts;
        after_write t))

(** Parse and apply a SPARQL UPDATE string. *)
let update_string t src = update t (Sparql.Parser.parse_update src)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(** A consistent read view: private {!Relsql.Database.snapshot} tables
    plus the capture-time catalog stamp. Readers execute against it
    unlocked while the writer commits. *)
type snapshot = {
  snap_engine : t;
  snap_db : Relsql.Database.t;
  snap_epoch : int;  (** {!Relsql.Database.epoch} at capture *)
}

(** Capture a snapshot. Taken under the writer lock, so it never
    observes a half-applied update statement. Capture copies the live
    tables as they are (copy-on-write: the packed mains are shared and
    later writes land in the live deltas, never in a shared image), so
    the stamp is read from the snapshot's own tables, whose epochs
    never move again. *)
let snapshot t : snapshot =
  Mutex.protect t.lock (fun () ->
    let sdb = Relsql.Database.snapshot (Loader.database t.loader) in
    { snap_engine = t; snap_db = sdb; snap_epoch = Relsql.Database.epoch sdb })

let snapshot_stamp s = s.snap_epoch

(** Evaluate a SPARQL string against the snapshot. Parsing reads no
    shared state and runs first, unlocked; translation and result
    decoding read the loader's statistics and dictionary, which a
    concurrent writer mutates, so they take the writer lock; execution
    runs unlocked on the snapshot's private tables and scan cache.
    Translating against the live statistics is safe for an older
    snapshot because every statistic the generated SQL depends on is
    monotone: seen-sets only grow, a predicate that became
    spill-involved or multi-valued later makes the plan chase spill
    rows/lid lists that the snapshot simply does not have, and storage
    columns never move once assigned. Snapshot databases carry no
    reduction registry, so the statement is translated with ExtVP off. *)
let snapshot_query_string ?timeout s (src : string) : Sparql.Ref_eval.results =
  let t = s.snap_engine in
  let q = Sparql.Parser.parse src in
  let stmt =
    Mutex.protect t.lock (fun () ->
      translate ~options:{ t.options with extvp = false } t q)
  in
  let r = Relsql.Executor.run ?timeout s.snap_db stmt in
  Mutex.protect t.lock (fun () -> decode_results t q r)

(** Human-readable translation trace: flow, execution tree, merged plan,
    SQL text and physical plan — the stages {!translate} runs, so the
    SQL shown is the statement {!query} executes. With [~analyze:true]
    the statement is also executed and the per-operator metrics
    appended. *)
let explain ?(analyze = false) t (q : Sparql.Ast.query) : string =
  let pt, flow, etree, plan, stmt = stages t.options t q in
  apply_exec_options t t.options;
  String.concat "\n"
    [ "== parse tree ==";
      Sparql.Pattern_tree.to_string pt;
      "== optimal flow ==";
      Dataflow.flow_to_string pt flow;
      "== execution tree ==";
      Exec_tree.to_string pt etree;
      "== query plan (merged) ==";
      Merge.to_string plan;
      "== SQL ==";
      Relsql.Sql_pp.to_pretty_string stmt;
      "== physical plan ==";
      Relsql.Executor.explain ~analyze (Loader.database t.loader) stmt;
      "== scan cache ==";
      Relsql.Scan_cache.stats_to_string
        (Relsql.Database.scan_cache (Loader.database t.loader)) ]

(** Wrap as a {!Store.t}. *)
let to_store ?(name = "DB2RDF") t : Store.t =
  {
    Store.name;
    load = (fun triples -> load t triples);
    delete = (fun triples -> List.iter (delete t) triples);
    query = (fun ?timeout q -> query ?timeout t q);
    analyze =
      (fun ?timeout q ->
        let r, stats = query_analyzed ?timeout t q in
        (r, Some stats));
    explain = (fun q -> explain t q);
    update = (fun u -> update t u);
    check =
      (fun () ->
        Relsql.Database.check (Loader.database t.loader);
        Loader.check t.loader);
  }
