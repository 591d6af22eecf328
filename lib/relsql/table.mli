(** Mutable tables with hash indexes and tombstone deletion, stored as
    a packed main plus a boxed delta.

    Rows are value arrays of the schema's arity. Slots below
    {!main_slots} live in an immutable bit-packed image ({!Packed}, with
    zone maps); slots at or above it are boxed delta rows. A table
    starts with an empty main, so until its first {!merge} every row is
    a delta row. Hash indexes map a
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

(** Monotonic change counter: bumped by {!insert}, {!set_cell},
    {!delete_row} and {!merge}, never reset. Anything a scan could
    observe changing — data or physical form — changes the epoch, so
    caches (the shared scan cache, ExtVP reductions) key or stamp their entries by it instead of being
    cleared ad hoc. *)
val epoch : t -> int

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
    return the row's id after the write. On a delta row the update is
    in place and the id is [rid]; writing a {e different} value into a
    row of the packed main relocates the row — the packed slot is tombstoned and the updated
    copy appended to the delta side, and the {e new} id is returned.
    Equal-value writes are no-ops. Callers that track row ids must
    adopt the result. *)
val set_cell : t -> int -> int -> Value.t -> int

(** Delete a row: it disappears from scans, lookups and {!row_count}.
    The slot is tombstoned (ids of other rows are stable) whichever
    side it lives on — a main row keeps its packed cells, only its bit
    in the bitmap flips. Idempotent. *)
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

(** [prober t pos] probes the index on [pos] with an executor cell read
    in the given side context: {!lookup_iter} on the cell's value, with
    the column-to-index resolution hoisted out of the per-probe path
    and an inline cell hashed as an int — for index nested-loop joins
    that probe once per outer row. *)
val prober : t -> int -> Cell.side -> Cell.t -> (int -> unit) -> unit

(** [prober_ro t pos] is a {!prober} that never compacts postings: the
    returned closure only reads the table, so it may be shared by
    concurrently probing worker domains (the table must not be mutated
    while they run). Stale entries are validated on every probe instead
    of being amortized away. *)
val prober_ro : t -> int -> Cell.side -> Cell.t -> (int -> unit) -> unit

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

(** {2 Delta-main storage}

    {!insert} appends a delta row, {!delete_row} punches a tombstone
    into the shared bitmap and {!set_cell} relocates a main row into
    the delta — none of them re-encode anything. {!merge} folds the
    delta into a fresh packed main. *)

(** Fold the delta into a fresh packed main: {!Packed.merge} the old
    image with the delta rows in code space (old codes remapped, only
    delta cells hashed; fresh zone maps, compacted and
    run-length-encoded postings) and start an empty delta. Row ids
    are stable. A no-op unless the table has delta rows or fresh main
    tombstones; bumps {!epoch} and {!merge_count} otherwise. *)
val merge : t -> unit

(** The merge policy: the table's delta rows plus fresh main tombstones
    exceed both 16 and a quarter of {!main_slots}. *)
val merge_due : t -> bool

(** The packed image of the main — slots below {!main_slots} — that the
    executor's compressed scan path reads directly; empty before the
    first merge. Slots at or above {!main_slots} are boxed delta rows
    ({!get}/{!cell}/{!iter} unify the two sides). *)
val packed_view : t -> Packed.t

(** [main_slots t > 0]: the table has been merged at least once. *)
val frozen : t -> bool

(** Slots covered by the packed main; 0 before the first merge. *)
val main_slots : t -> int

(** Boxed rows on the delta side ([slot_count - main_slots]). *)
val delta_rows : t -> int

(** Tombstones punched into the main since the last merge. *)
val main_tombstones : t -> int

(** Delta-into-main merges performed ({!merge}). *)
val merge_count : t -> int

(** Per-table memory accounting for [rdfstore stats]: packed bytes vs
    boxed-equivalent bytes, bits per column, posting compression. *)
type compression_report = {
  r_table : string;
  r_frozen : bool;  (** {!frozen} *)
  r_live_rows : int;
  r_slots : int;
  r_boxed_bytes : int;  (** what every slot would cost as a boxed row *)
  r_packed_bytes : int;  (** 0 before the first merge *)
  r_col_bits : (string * int) list;  (** bits per column of the main *)
  r_posting_entries : int;
  r_posting_words : int;  (** stored words after run encoding *)
  r_delta_rows : int;  (** boxed rows on the delta side *)
  r_delta_bytes : int;  (** boxed footprint of those delta rows *)
  r_tombstones : int;  (** tombstones punched into the main *)
  r_merges : int;  (** delta-into-main merges performed *)
}

val compression_report : t -> compression_report

(** [snapshot t] is an immutable copy-on-write view of [t] as it is —
    live delta included, no merge, and [t] itself untouched. The
    snapshot shares the packed main while deep-copying the delta rows,
    the live bitmap and the postings (the writer mutates delta rows in
    place and postings compact during lookups, so none may be shared).
    No write path ever mutates a packed image in place — later writes
    land in the source's delta or build a new image on merge — so the
    snapshot stays bit-stable forever. It carries [t]'s {!epoch}. *)
val snapshot : t -> t

(** Verify the structural invariants: every live row is posted exactly
    once under its current cell on both the main and the delta side
    (stale entries stay within each posting's stale count), the alive
    bitmap agrees with {!row_count}, the main and the delta partition
    {!slot_count}, every Dict decode array of the main is strictly
    increasing, and every zone map covers the live packed cells of its
    block — exactly (counts, and [z_lo]/[z_hi] the decode of the
    block's smallest/largest live code) while no main slot has died
    since the merge. Raises [Failure] naming the first violation. *)
val check : t -> unit

(** Fraction of cells that are NULL across the given column positions
    (live rows only). *)
val null_fraction : t -> int list -> float

(** The partition-indexed prober of the hash-join build: a power-of-two
    number of disjoint per-partition sub-tables mapping a key cell
    (each read in its own side context; inline cells compare as ints,
    side cells by {!Value.equal} / {!Value.hash} — together
    {!Value.equal} on the decoded keys) to a posting of build-row ids.
    Workers build partitions independently — the sub-table array is
    the merged structure ("merged by pointer") and probes route
    straight to one sub-table, so builders and probers never contend.
    Adding rows in ascending build order per partition makes probe
    results replay in global build order, so any partition count
    yields the same join output. *)
module Join_hash : sig
  type t

  (** [create ~parts] with [parts] a positive power of two; raises
      [Invalid_argument] otherwise. *)
  val create : parts:int -> t

  val parts : t -> int

  (** Which partition a (non-NULL) key cell routes to. *)
  val part_of : t -> Cell.side -> Cell.t -> int

  (** [add h p side c rid] appends [rid] under key cell [c]; the caller
      routes [p = part_of h side c] and must own partition [p]
      exclusively while adding. *)
  val add : t -> int -> Cell.side -> Cell.t -> int -> unit

  (** Iterate the build rows matching a key cell, in build order. *)
  val iter_matches : t -> Cell.side -> Cell.t -> (int -> unit) -> unit

  (** {!iter_matches} on the key cell of a value, without encoding it
      into a side context (a computed probe key). *)
  val iter_matches_value : t -> Value.t -> (int -> unit) -> unit
end
