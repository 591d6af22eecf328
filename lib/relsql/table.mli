(** Mutable row-store tables with hash indexes and tombstone deletion.

    Rows are value arrays of the schema's arity. Hash indexes map a
    column value to a posting of row ids and are maintained
    incrementally through {!insert}, {!set_cell} and {!delete_row} — the
    DB2RDF loader updates cells in place when it assigns a predicate to
    a column of an existing entity row.

    Postings are append-only growable int arrays that tolerate stale
    entries: removals are O(1) counter bumps, lookups validate each
    candidate against the live bitmap and current cell value, and a
    posting is compacted in place once more than half of it is stale.
    Delete-heavy workloads are therefore linear instead of the quadratic
    [List.filter]-per-removal of the previous representation. *)

type t

val create : string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

(** Number of live (non-deleted) rows. *)
val row_count : t -> int

(** Monotonic data-change counter: bumped by {!insert}, {!set_cell} and
    {!delete_row}, never reset. Anything a scan could observe changing
    changes the version, so caches (the shared scan cache, the engine's
    statement cache) key or stamp their entries by it instead of being
    cleared ad hoc. *)
val version : t -> int

val is_live : t -> int -> bool

(** [insert t row] appends [row] and returns its row id. The row array
    is owned by the table afterwards; callers must not mutate it
    directly (use {!set_cell}). Raises [Invalid_argument] on arity
    mismatch. *)
val insert : t -> Value.t array -> int

(** [get t rid] is the row array (including tombstoned rows); raises
    [Invalid_argument] on an out-of-range id. *)
val get : t -> int -> Value.t array

val cell : t -> int -> int -> Value.t

(** Update one cell, keeping any index on that column consistent, and
    return the row's id after the write. On a boxed table (or a delta
    row of a frozen one) the update is in place and the id is [rid];
    writing a {e different} value into a row of the frozen main
    relocates the row — the packed slot is tombstoned and the updated
    copy appended to the delta side, and the {e new} id is returned.
    Equal-value writes are no-ops. Callers that track row ids must
    adopt the result. *)
val set_cell : t -> int -> int -> Value.t -> int

(** Delete a row: it disappears from scans, lookups and {!row_count}.
    The slot is tombstoned (ids of other rows are stable) whichever
    side it lives on — on a frozen table the tombstone lands in the
    bitmap over the packed main (or on the delta row) with no thaw and
    no re-encode. Idempotent. *)
val delete_row : t -> int -> unit

(** Build (or rebuild) a hash index on the column at position [pos]. *)
val create_index : t -> int -> unit

val create_index_on : t -> string -> unit
val has_index : t -> int -> bool
val indexed_columns : t -> int list

(** [lookup t pos v] is the ids of live rows whose column [pos] equals
    [v], in insertion order. Requires an index on [pos]. The returned
    array is fresh — callers may keep it. *)
val lookup : t -> int -> Value.t -> int array

(** [lookup_iter t pos v f] calls [f] on each matching live row id in
    insertion order without allocating. The callback must not modify
    the table. Requires an index on [pos]. *)
val lookup_iter : t -> int -> Value.t -> (int -> unit) -> unit

(** [prober t pos] is {!lookup_iter} partially applied, with the
    column-to-index resolution hoisted out of the per-probe path —
    for index nested-loop joins that probe once per outer row. *)
val prober : t -> int -> Value.t -> (int -> unit) -> unit

(** [prober_ro t pos] is a {!prober} that never compacts postings: the
    returned closure only reads the table, so it may be shared by
    concurrently probing worker domains (the table must not be mutated
    while they run). Stale entries are validated on every probe instead
    of being amortized away. *)
val prober_ro : t -> int -> Value.t -> (int -> unit) -> unit

(** Iterate live rows in insertion order. *)
val iter : (int -> Value.t array -> unit) -> t -> unit

(** Row slots ever allocated, including tombstoned ones — the iteration
    space of {!iter} and {!iter_range} (parallel scans morselize over
    it). *)
val slot_count : t -> int

(** [iter_range f t lo hi] is {!iter} restricted to slots
    [lo <= rid < hi]. *)
val iter_range : (int -> Value.t array -> unit) -> t -> int -> int -> unit

val fold : ('a -> int -> Value.t array -> 'a) -> 'a -> t -> 'a

(** Simulated on-disk footprint in bytes under the value-compressed
    storage model: per-row header, a null bitmap of one bit per column,
    and per-value sizes (see {!Value.storage_size}). Used by the
    Section 2.3 NULL experiment. *)
val storage_size : t -> int

(** {2 Compressed columnar mode (delta-main storage)}

    {!freeze} switches the table to bit-packed columnar storage with
    zone maps ({!Packed}); postings are compacted and dense ones
    run-length encoded. All reads keep working on the frozen form. A
    frozen table is a {e main/delta} split: the immutable packed image
    covers slots [0 .. main_slots-1] (the read-optimized main) and
    later writes land in a small boxed delta at the slots above it —
    {!insert} appends a delta row, {!delete_row} punches a tombstone
    into the shared bitmap, {!set_cell} relocates a main row into the
    delta — none of them thaw or re-encode anything. {!merge} folds the
    delta back into a fresh packed main. Freezing, thawing and merging
    never change the data — {!version} is untouched — only the physical
    encoding, which {!enc_epoch} fingerprints for the scan cache;
    {!delta_epoch} is the cheap companion stamp bumped by delta writes
    and merges. *)

val freeze : t -> unit

(** Restore boxed row storage (no-op when not frozen). Delta rows keep
    their ids. *)
val thaw : t -> unit

(** Fold the delta side back into the packed main: re-pack the unified
    slots directly from the old packed image plus the delta rows (no
    thaw; fresh zone maps, compacted postings) and start an empty
    delta. Row ids are stable. A no-op unless the table is frozen and
    has delta rows or fresh main tombstones. Bumps {!enc_epoch} (the
    image is rebuilt) and {!delta_epoch}, not {!version} or
    {!thaw_count}. *)
val merge : t -> unit

(** [Some _] while the table is frozen: the packed image of the
    {e main} — slots below {!main_slots} — that the executor's
    compressed scan path reads directly. Slots at or above
    {!main_slots} are boxed delta rows ({!get}/{!cell}/{!iter} unify
    the two sides). *)
val packed_view : t -> Packed.t option

val frozen : t -> bool

(** Slots covered by the frozen main image; 0 on a boxed table. *)
val main_slots : t -> int

(** Boxed rows on the delta side of a frozen table; 0 on a boxed one. *)
val delta_rows : t -> int

(** Tombstones punched into the frozen main since the last freeze or
    merge. *)
val main_tombstones : t -> int

(** Delta-into-main merges performed ({!merge}). *)
val merge_count : t -> int

(** Bumped by every freeze, thaw and merge. *)
val enc_epoch : t -> int

(** Bumped by every delta-side write of a frozen table and by every
    {!merge}: the third stamp — after {!version} and {!enc_epoch} —
    that scan/statement/reduction caches key on. *)
val delta_epoch : t -> int

(** Per-table memory accounting for [rdfstore stats]: packed bytes vs
    boxed-equivalent bytes, bits per column, posting compression. *)
type compression_report = {
  r_table : string;
  r_frozen : bool;
  r_live_rows : int;
  r_slots : int;
  r_boxed_bytes : int;
  r_packed_bytes : int;  (** 0 when not frozen *)
  r_col_bits : (string * int) list;  (** frozen only *)
  r_posting_entries : int;
  r_posting_words : int;  (** stored words after run encoding *)
  r_thaws : int;  (** mutations that transparently thawed a frozen table *)
  r_delta_rows : int;  (** boxed rows on the delta side (frozen only) *)
  r_delta_bytes : int;  (** boxed footprint of those delta rows *)
  r_tombstones : int;  (** tombstones punched into the frozen main *)
  r_merges : int;  (** delta-into-main merges performed *)
}

val compression_report : t -> compression_report

(** How many times a mutation transparently thawed this table (see
    {!delete_row}) — surfaced by [rdfstore stats] so update-heavy
    workloads can tell when they are churning the packed encoding. *)
val thaw_count : t -> int

(** [snapshot t] is an immutable copy-on-write view of [t]'s current
    contents: a boxed source is frozen first, a frozen one is captured
    as-is (live delta included, no merge). The snapshot shares the
    packed main image while deep-copying the delta rows, the live
    bitmap and the postings (the writer mutates delta rows in place and
    postings compact during lookups, so none may be shared). No write
    path ever mutates a packed image in place — later writes land in
    the source's delta or build a new image on merge — so the snapshot
    stays bit-stable forever. It carries [t]'s {!version},
    {!enc_epoch} and {!delta_epoch} at capture time. *)
val snapshot : t -> t

(** Fraction of cells that are NULL across the given column positions
    (live rows only). *)
val null_fraction : t -> int list -> float

(** The partition-indexed prober of the radix-partitioned parallel
    hash-join build: a power-of-two number of disjoint per-partition
    sub-tables mapping a key value ({!Value.equal} / {!Value.hash}
    semantics, matching the executor's sequential build) to a posting
    of build-row ids. Workers build partitions independently — the
    sub-table array is the merged structure ("merged by pointer") and
    probes route straight to one sub-table, so builders and probers
    never contend. Adding rows in ascending build order per partition
    makes probe results replay in global build order, keeping the
    partitioned join bit-identical to the sequential one. *)
module Join_hash : sig
  type t

  (** [create ~parts] with [parts] a positive power of two; raises
      [Invalid_argument] otherwise. *)
  val create : parts:int -> t

  val parts : t -> int

  (** Which partition a (non-NULL) key routes to. *)
  val part_of : t -> Value.t -> int

  (** [add h p k rid] appends [rid] under [k] in sub-table [p]; the
      caller routes [p = part_of h k] and must own partition [p]
      exclusively while adding. *)
  val add : t -> int -> Value.t -> int -> unit

  (** Iterate the build rows matching [k], in build order. *)
  val iter_matches : t -> Value.t -> (int -> unit) -> unit
end
