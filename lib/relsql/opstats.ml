(** Per-operator execution metrics (the EXPLAIN ANALYZE tree).

    Every physical plan node of an analyzed run fills one of these:
    rows consumed from its inputs, rows produced, index probes issued,
    hash-build size and inclusive wall time. The tree mirrors the plan
    shape, with synthetic [CTE <name>] / [body] wrappers at statement
    level. *)

type t = {
  label : string;  (** one-line operator description *)
  mutable rows_in : int;  (** rows consumed across all inputs *)
  mutable rows_out : int;  (** rows produced *)
  mutable index_probes : int;  (** hash-index lookups issued *)
  mutable build_rows : int;  (** rows entered into a hash-join build *)
  mutable seconds : float;  (** inclusive wall time *)
  mutable workers : int;
      (** domains that participated in this operator's parallel section
          (1 = sequential execution) *)
  mutable par_ms : float;
      (** wall milliseconds spent inside the parallel section — under
          parallelism the per-worker CPU time exceeds wall time, so
          EXPLAIN ANALYZE reports the section's elapsed span alongside
          the worker count instead of a misleading per-row figure *)
  mutable partitions : int;
      (** radix partitions of a partitioned hash-join build
          (0 = build was not partitioned) *)
  mutable build_workers : int;
      (** domains that participated in the partitioned build *)
  mutable build_ms : float;
      (** wall milliseconds spent building the join hash table
          (partition + scatter + sub-table build) *)
  mutable cache_hits : int;
      (** shared-scan-cache hits serving this operator *)
  mutable cache_misses : int;
      (** shared-scan-cache misses (result computed, then cached) *)
  mutable blocks_skipped : int;
      (** packed-scan blocks pruned by zone maps without unpacking *)
  mutable rows_unpacked : int;
      (** live rows decompressed by the packed scan (post-skip) *)
  mutable delta_rows : int;
      (** boxed delta-side rows a scan/probe visited *)
  mutable tombstones_skipped : int;
      (** packed-main rows a scan skipped via the tombstone bitmap *)
  mutable est_rows : int;
      (** planner's output-cardinality estimate (-1 = not recorded);
          EXPLAIN ANALYZE reports it against [rows_out] as a q-error *)
  mutable children : t list;  (** inputs, in plan order *)
}

let make label =
  { label; rows_in = 0; rows_out = 0; index_probes = 0; build_rows = 0;
    seconds = 0.0; workers = 1; par_ms = 0.0; partitions = 0;
    build_workers = 1; build_ms = 0.0; cache_hits = 0; cache_misses = 0;
    blocks_skipped = 0; rows_unpacked = 0; delta_rows = 0;
    tombstones_skipped = 0; est_rows = -1; children = [] }

(** Add a child: while a node runs, its children gather newest first;
    {!finish} puts them in plan order. *)
let add_child parent child = parent.children <- child :: parent.children

(** Close a node: record its output cardinality and inclusive wall
    time, and put its children in plan order. *)
let finish node ~rows_out ~seconds =
  node.rows_out <- rows_out;
  node.seconds <- seconds;
  node.children <- List.rev node.children

let rec fold f acc node = List.fold_left (fold f) (f acc node) node.children

let iter f node = fold (fun () n -> f n) () node

(** Wall time spent in the node itself, excluding its inputs. *)
let self_seconds node =
  let below = List.fold_left (fun a c -> a +. c.seconds) 0.0 node.children in
  Float.max 0.0 (node.seconds -. below)

(** Every node whose label starts with [prefix], in preorder. *)
let find_all node ~prefix =
  let starts s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.rev
    (fold (fun acc n -> if starts n.label then n :: acc else acc) [] node)

(** Estimated-vs-actual ratio, always >= 1.0 (add-one smoothed so zero
    rows on either side stays finite). [None] until an estimate was
    recorded. *)
let q_error node =
  if node.est_rows < 0 then None
  else
    let est = float_of_int (node.est_rows + 1)
    and act = float_of_int (node.rows_out + 1) in
    Some (Float.max (est /. act) (act /. est))

let to_string root =
  let buf = Buffer.create 256 in
  let rec go indent node =
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_string buf node.label;
    Buffer.add_string buf
      (Printf.sprintf "  (in=%d out=%d" node.rows_in node.rows_out);
    if node.index_probes > 0 then
      Buffer.add_string buf (Printf.sprintf " probes=%d" node.index_probes);
    if node.build_rows > 0 then
      Buffer.add_string buf (Printf.sprintf " build=%d" node.build_rows);
    if node.partitions > 0 then
      Buffer.add_string buf
        (Printf.sprintf " parts=%d bworkers=%d build_ms=%.3f" node.partitions
           node.build_workers node.build_ms);
    if node.cache_hits + node.cache_misses > 0 then
      Buffer.add_string buf
        (Printf.sprintf " scan_cache=%s"
           (if node.cache_hits > 0 then "hit" else "miss"));
    if node.blocks_skipped > 0 || node.rows_unpacked > 0 then
      Buffer.add_string buf
        (Printf.sprintf " skipped=%d unpacked=%d" node.blocks_skipped
           node.rows_unpacked);
    if node.delta_rows > 0 || node.tombstones_skipped > 0 then
      Buffer.add_string buf
        (Printf.sprintf " delta=%d tombs=%d" node.delta_rows
           node.tombstones_skipped);
    if node.workers > 1 then
      Buffer.add_string buf
        (Printf.sprintf " workers=%d par=%.3fms" node.workers node.par_ms);
    (match q_error node with
     | Some q ->
       Buffer.add_string buf
         (Printf.sprintf " est=%d q=%.2f" node.est_rows q)
     | None -> ());
    Buffer.add_string buf
      (Printf.sprintf " time=%.3fms self=%.3fms)\n" (node.seconds *. 1000.0)
         (self_seconds node *. 1000.0));
    List.iter (go (indent + 2)) node.children
  in
  go 0 root;
  Buffer.contents buf
