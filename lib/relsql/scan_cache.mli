(** A bounded LRU cache of materialized base-table scan results, keyed
    by (table name, table epoch, filter/column fingerprint).

    Because {!Table.epoch} is part of the key, entries are never served
    stale: any data change or merge makes future scans compute a new
    key and the old entry ages out of the LRU. Small results are stored
    as private batch copies; oversized ones are kept bit-packed when the packed
    image fits the budget. {!find} returns a fresh batch the caller
    owns either way. *)

type t

val create : ?capacity:int -> unit -> t

(** Boxed entries costlier than this many cells are stored bit-packed
    instead; entries whose packed image still exceeds it are dropped. *)
val max_cells : int

(** Cache key for a scan of [table] at [epoch] with the given fused
    filter and column pruning (alias-independent — the executor
    re-qualifies the cached layout on hit). *)
val key :
  table:string -> epoch:int -> filter:Sql_ast.expr option ->
  cols:string list option -> string

(** A fresh, privately-owned copy of the cached result, or [None].
    Counts a hit or miss. *)
val find : t -> string -> Batch.t option

(** Store a private copy of the batch under the key (skipped above
    {!max_cells}); the caller keeps ownership of the batch. *)
val add : t -> string -> Batch.t -> unit

val clear : t -> unit
val stats : t -> Plan_cache.stats
val stats_to_string : t -> string
