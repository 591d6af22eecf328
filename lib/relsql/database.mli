(** A database is a named catalog of {!Table.t}. Common table
    expressions never enter it: the planner resolves their names from
    its own scope, and the executor keeps their rows as batches. *)

type t

(** Parallelism adopted by databases at creation — the process-wide
    default behind the CLI's [--domains] flag, so every store backend
    (each creating its own catalog) picks it up without per-store
    plumbing. 1 = sequential execution. *)
val default_parallelism : int ref

(** Radix partition count for parallel hash-join builds adopted by
    databases at creation (the CLI's [--join-partitions] flag);
    0 = auto (sized from the domain count at execution time). *)
val default_join_partitions : int ref

(** When set (the CLI's [--compress] flag), store backends merge their
    tables into bit-packed columnar form after bulk load and, per
    {!Table.merge_due}, after writes. Purely physical — results are
    identical either way. *)
val default_compress : bool ref

(** When set (the CLI's [--wcoj] flag), databases adopt WCOJ planning
    at creation: eligible flat multiway joins may run as a leapfrog
    (worst-case-optimal) join instead of a binary join tree. Purely a
    plan-shape knob — results are identical. *)
val default_wcoj : bool ref

val create : string -> t

(** Create and register an empty table; raises [Invalid_argument] on a
    duplicate name. *)
val create_table : t -> string -> Schema.t -> Table.t

(** Set how many domains statements against this database may use
    (clamped to at least 1). *)
val set_parallelism : t -> int -> unit

val parallelism : t -> int

(** Set the radix partition count for parallel hash-join builds
    (rounded up to a power of two by the executor; clamped to at
    least 0). 0 = auto. *)
val set_join_partitions : t -> int -> unit

val join_partitions : t -> int

(** Enable or disable WCOJ planning for statements against this
    database. *)
val set_wcoj : t -> bool -> unit

val wcoj : t -> bool

(** Install (or clear) the statistics-informed chooser between binary
    join trees and the leapfrog operator (see {!Wcoj.selector}). The
    planner only considers WCOJ when both {!wcoj} is set and a selector
    is installed. *)
val set_wcoj_selector : t -> Wcoj.selector option -> unit

val wcoj_selector : t -> Wcoj.selector option

(** The shared scan-result cache (see {!Scan_cache}). *)
val scan_cache : t -> Scan_cache.t

(** Install (or clear) the semi-join-reduction registry
    (see {!Extvp}). Reduction tables resolve through {!find} lazily but
    never enter the catalog — {!epoch}, {!table_names} and
    {!merge_all} do not see them. *)
val set_extvp : t -> Extvp.t option -> unit

val extvp : t -> Extvp.t option

val find : t -> string -> Table.t option
val find_exn : t -> string -> Table.t
val mem : t -> string -> bool

val drop_table : t -> string -> unit
val table_names : t -> string list

(** Fold every table's delta into its packed main ({!Table.merge}); returns the number of tables that
    actually merged. The bulk-load epilogue of [--compress] stores and
    the eager compaction behind [rdfstore merge]. *)
val merge_all : t -> int

(** Merge only the tables whose delta {!Table.merge_due} selects;
    returns how many merged. The write epilogue of [--compress]
    stores. *)
val merge_due : t -> int

(** {!Table.check} every table; raises [Failure] on the first violation. *)
val check : t -> unit

(** Per-table {!Table.compression_report}s, sorted by table name. *)
val compression_reports : t -> Table.compression_report list

(** [snapshot db] is an immutable copy-on-write view of [db]'s
    catalog: every table is captured via {!Table.snapshot}, so a reader
    can keep executing against the snapshot while a writer commits to
    [db] — later writes land in the live tables' private delta sides
    and never disturb the view. The snapshot has its own scan cache
    (cache entries are keyed per table epoch, i.e. per-snapshot-valid),
    no reduction registry, and no WCOJ selector (a closure over the
    owner's live statistics). *)
val snapshot : t -> t

(** A stamp over the catalog, folded from every table's name and
    {!Table.epoch}: changes whenever any table's data changes, a table
    merges, or a table is created/dropped. One shared version signal
    for ExtVP reductions and engine snapshots. *)
val epoch : t -> int
