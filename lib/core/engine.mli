(** The DB2RDF engine facade: create a store (optionally bulk-loading
    with graph coloring), load triples, and evaluate SPARQL through the
    full pipeline of the paper — parse tree → data flow → optimal flow
    tree → execution tree (late fusing) → merged query plan → SQL →
    relational execution. *)

(** Optimizer knobs (all on by default); each is an ablation axis in
    the benchmarks. *)
type options = {
  optimize : bool;  (** hybrid optimizer on (best flow) vs naive (worst) *)
  merge : bool;  (** star merging in the translator *)
  late_fuse : bool;  (** late fusing in the query plan builder *)
  parallelism : int;
      (** domains the executor may spread hot operators over
          (1 = sequential) *)
  compress : bool;
      (** merge tables into bit-packed columnar storage (zone maps +
          word-at-a-time scans) after bulk load, and after a write
          statement whenever {!Relsql.Table.merge_due} says so; purely
          physical, results are bit-identical *)
  wcoj : bool;
      (** allow the worst-case-optimal (leapfrog) multiway join:
          eligible conjunctive queries translate to the flat join form
          and the planner picks between the binary join tree and the
          leapfrog operator from characteristic-set statistics; purely
          a plan-shape knob, results are bit-identical *)
  extvp : bool;
      (** allow ExtVP-style semi-join reductions ({!Relsql.Extvp}): the
          SQL generator may substitute a lazily materialized DPH
          row-subset for a star's base scan when a join edge matches a
          (predicate pair, correlation) signature with low estimated
          selectivity; purely a plan-shape knob, results are
          bit-identical *)
  extvp_build : bool;
      (** eagerly materialize every advisable reduction at bulk-load
          time instead of on first planner request *)
  extvp_threshold : float;
      (** keep a reduction only when its measured selectivity (kept
          rows / source rows) is below this (S2RDF's ScaleUB; default
          0.25) *)
  extvp_budget_mb : int;
      (** global byte budget for cached reductions (LRU eviction
          beyond it; default 64) *)
}

val default_options : options

(** A compact id of an options record, covering every knob — the
    options id printed in benchmark headers; not a cache key. *)
val options_fingerprint : options -> string

type t

(** Create an empty engine with hash-composition predicate mappings. *)
val create :
  ?layout:Layout.t ->
  ?options:options ->
  ?direct_map:Pred_map.t ->
  ?reverse_map:Pred_map.t ->
  unit ->
  t

(** Create an engine whose predicate mappings come from graph-coloring
    (a sample of) the triples, then bulk-load them (Sections 2.2/2.3).
    [sample < 1.0] colors only that fraction of the data first. Returns
    the engine plus the direct and reverse coloring results. *)
val create_colored :
  ?layout:Layout.t ->
  ?options:options ->
  ?sample:float ->
  Rdf.Triple.t list ->
  t * Coloring.result * Coloring.result

(** A view of the same store under different options: shares the loader
    (data, statistics, dictionary); its reads translate under its own
    options. *)
val with_options : t -> options -> t

val loader : t -> Loader.t
val dictionary : t -> Rdf.Dictionary.t

(** The store's semi-join reduction registry — always installed by
    {!create}; whether the planner uses it is the [extvp] option.
    Exposed for the bench harness (counters), the fuzzer's forced mode
    and stats reporting. *)
val extvp_registry : t -> Relsql.Extvp.t option

(** Eagerly materialize every advisable semi-join reduction over the
    current predicates — the [extvp_build] batch mode, also run
    automatically at bulk load when that option is set. *)
val build_reductions : t -> unit

(** Bulk load ({!Loader.load}); [parse_s] folds the caller's
    input-parsing time into {!load_stats}. *)
val load : ?parse_s:float -> t -> Rdf.Triple.t list -> unit

(** Timings of the most recent bulk load (None before any). *)
val load_stats : t -> Loader.load_stats option

val insert : t -> Rdf.Triple.t -> unit

(** Delete a triple (no-op when absent). *)
val delete : t -> Rdf.Triple.t -> unit

(** Apply a SPARQL UPDATE through the DB2RDF layout: the DATA forms
    drive the incremental insert/delete paths (dictionary growth, DPH /
    RPH slot placement with spill and multi-value maintenance,
    tombstoned rows with index and statistics upkeep; the writes land
    in each table's boxed delta — no re-encode — and under [compress]
    fold into the packed main per {!Relsql.Table.merge_due});
    [DELETE WHERE] evaluates its pattern through
    the engine's own query pipeline against the pre-update state and
    deletes the instantiated template triples. Serialized by the
    engine's writer lock: a concurrent {!snapshot} observes none or
    all of the statement. *)
val update : t -> Sparql.Ast.update -> unit

(** Under [compress], eagerly fold every table's delta into its packed
    main ({!Relsql.Database.merge_all} under the writer lock — the
    [rdfstore merge] subcommand); returns how many tables actually
    merged. Does nothing on a store built without [compress], which
    never packs. Purely physical: results are bit-identical before and
    after. *)
val merge : t -> int

(** Parse and apply a SPARQL UPDATE string. *)
val update_string : t -> string -> unit

(** A consistent read view of the store at a point in time:
    copy-on-write table snapshots ({!Relsql.Database.snapshot}) plus
    the capture-time catalog stamp. *)
type snapshot

(** Capture a snapshot (taken under the writer lock, so never between
    the triples of one update statement). Readers keep answering from
    it, bit-stably, while {!update} commits. *)
val snapshot : t -> snapshot

(** The {!Relsql.Database.epoch} the snapshot was captured at. *)
val snapshot_stamp : snapshot -> int

(** Evaluate a SPARQL string against the snapshot. Parsing runs first,
    without the writer lock, so a malformed query fails before it
    blocks the writer; translation (with ExtVP off) and decoding
    synchronize with the writer; execution runs unlocked on the
    snapshot's private tables and scan cache. *)
val snapshot_query_string :
  ?timeout:float -> snapshot -> string -> Sparql.Ref_eval.results

(** Always zero counters: reads are not cached, every {!query_string}
    parses and translates. Kept for the benchmark report. *)
val plan_cache_stats : t -> Relsql.Plan_cache.stats

(** Hit/miss/occupancy counters of the shared scan cache (see
    {!Relsql.Scan_cache}). *)
val scan_cache_stats : t -> Relsql.Plan_cache.stats

(** The {!Merge.ctx} the engine hands to the star merger — exposed for
    the optimizer test-bench and external plan tooling. *)
val merge_ctx : t -> Sparql.Pattern_tree.t -> Sparql.Ast.query -> Merge.ctx

(** Full translation of a parsed query to SQL; [options] overrides the
    engine's defaults for this call. *)
val translate : ?options:options -> t -> Sparql.Ast.query -> Relsql.Sql_ast.stmt

(** Evaluate a parsed query end to end. May raise
    {!Relsql.Executor.Timeout} or {!Filter_sql.Unsupported}. *)
val query :
  ?timeout:float -> ?options:options -> t -> Sparql.Ast.query ->
  Sparql.Ref_eval.results

(** Like {!query}, but also returns the executor's per-operator metrics
    tree (rows in/out, index probes, hash-build sizes, wall time) — the
    engine's EXPLAIN ANALYZE. *)
val query_analyzed :
  ?timeout:float -> ?options:options -> t -> Sparql.Ast.query ->
  Sparql.Ref_eval.results * Relsql.Opstats.t

(** Parse and evaluate a SPARQL string: {!Sparql.Parser.parse}, then
    {!query}. *)
val query_string :
  ?timeout:float -> ?options:options -> t -> string -> Sparql.Ref_eval.results

(** Human-readable translation trace: flow, execution tree, merged plan,
    SQL text and physical plan — the same stages {!translate} runs, so
    the SQL shown is the statement {!query} executes. [~analyze:true]
    also executes the statement and appends the per-operator metrics
    tree. *)
val explain : ?analyze:bool -> t -> Sparql.Ast.query -> string

val to_store : ?name:string -> t -> Store.t
