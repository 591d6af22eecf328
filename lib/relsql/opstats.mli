(** Per-operator execution metrics (the EXPLAIN ANALYZE tree).

    Filled by {!Executor} during an analyzed run; the tree mirrors the
    physical plan, with synthetic [CTE <name>] / [body] wrappers at
    statement level. The record is mutable and public so the executor
    can fill it incrementally and benchmarks can serialize it. *)

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
      (** wall milliseconds spent inside the parallel section *)
  mutable partitions : int;
      (** radix partitions of a partitioned hash-join build
          (0 = build was not partitioned) *)
  mutable build_workers : int;
      (** domains that participated in the partitioned build *)
  mutable build_ms : float;
      (** wall milliseconds spent building the join hash table *)
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

val make : string -> t

(** Add a child: while a node runs, its children gather newest first
    (constant time, whatever the fan-out); {!finish} puts them in plan
    order. *)
val add_child : t -> t -> unit

(** Close a node: record its output cardinality and inclusive wall
    time, and put its children in plan order. Every node of a returned
    tree is closed. *)
val finish : t -> rows_out:int -> seconds:float -> unit

(** Preorder fold over the tree. *)
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val iter : (t -> unit) -> t -> unit

(** Wall time spent in the node itself, excluding its inputs. *)
val self_seconds : t -> float

(** Every node whose label starts with [prefix], in preorder. *)
val find_all : t -> prefix:string -> t list

(** Estimated-vs-actual cardinality ratio (always >= 1.0, add-one
    smoothed); [None] until an estimate was recorded. *)
val q_error : t -> float option

(** Indented tree rendering, one node per line with its counters. *)
val to_string : t -> string
