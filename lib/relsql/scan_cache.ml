(** A bounded LRU cache of materialized base-table scan results.

    Star-join SQL re-reads the same tables with the same fused
    filter/projection across queries (and across repeated runs of one
    query); when nothing changed, re-scanning is pure waste. An entry is
    keyed by the table's {e name and epoch} plus a fingerprint of the
    (filter, columns) pair, so the key itself encodes validity: any
    insert/update/delete or merge bumps {!Table.epoch}, future scans
    compute a different key, and the stale entry simply ages out of
    the LRU — no clear-on-write hook to forget.

    Batches have linear ownership (the consumer mutates them in place),
    so the cache keeps a {!Batch.share}d holder of the result on miss
    and hands out another on hit: nothing is copied unless a holder
    writes, and then only that holder copies. Results that fit
    {!max_cells} cells are kept as plain batches. Larger results get a
    second chance: they are bit-packed ({!Packed.pack}, no zone maps)
    and kept when the packed image itself fits the budget — a hit then
    decompresses into a fresh batch, still far cheaper than re-running
    the scan's predicate over the base table.

    Reuses {!Plan_cache} for the LRU/counter machinery; like it, the
    cache is not domain-safe and belongs to the query-submitting
    domain (the executor consults it outside parallel sections only). *)

type entry =
  | Boxed of Batch.t
  | Compressed of Packed.t * Expr_eval.layout

type t = { cache : entry Plan_cache.t }

(** Entries costlier than this are not cached: boxed entries are charged
    their cell count, compressed entries the words of their packed image
    — so the cache trades a bounded amount of memory for scan time
    under either representation. *)
let max_cells = 1 lsl 20

let create ?(capacity = 32) () = { cache = Plan_cache.create ~capacity () }

(** Cache key for a scan of [table] at [epoch] with the given fused
    filter and column pruning. The (filter, cols) pair is fingerprinted by marshalling —
    {!Sql_ast.expr} is pure variant data, so equal predicates digest
    equally — keeping keys short and hashable. The scan's alias is
    deliberately excluded: self-joins scan the same table under
    different aliases, and the executor re-qualifies the cached layout
    on every hit. *)
let key ~table ~epoch ~(filter : Sql_ast.expr option)
    ~(cols : string list option) =
  Printf.sprintf "%s@%d#%s" table epoch
    (Digest.to_hex (Digest.string (Marshal.to_string (filter, cols) [])))

let unpack pk layout =
  let nrows = Packed.nrows pk in
  let b = Batch.create ~capacity:(max 1 nrows) layout in
  let all = Array.init (Packed.ncols pk) Fun.id in
  let cells = Array.make (Array.length all) Cell.null and side = Cell.side () in
  for rid = 0 to nrows - 1 do
    Cell.clear side;
    Packed.read_cols pk rid all cells side;
    Batch.push_cells b cells side
  done;
  b

(** The cached result, held privately (shared until written), or
    [None]. *)
let find t k =
  match Plan_cache.find t.cache k with
  | None -> None
  | Some (Boxed b) -> Some (Batch.share b)
  | Some (Compressed (pk, layout)) -> Some (unpack pk layout)

(** Keep [b]'s rows under [k] — shared when the cell count fits
    {!max_cells}, bit-packed when the packed image does, dropped
    otherwise. The caller keeps using [b]; a later write to it copies. *)
let add t k (b : Batch.t) =
  let rows = Batch.length b and cols = max 1 (Batch.width b) in
  if rows * cols <= max_cells then Plan_cache.add t.cache k (Boxed (Batch.share b))
  else
    let pk =
      Packed.pack ~zones:false ~ncols:(Batch.width b) ~nrows:rows
        (fun rid pos -> Batch.get b rid pos)
        ~live:(fun _ -> true)
    in
    if Packed.packed_words pk <= max_cells then
      Plan_cache.add t.cache k (Compressed (pk, Batch.layout b))

let clear t = Plan_cache.clear t.cache
let stats t = Plan_cache.stats t.cache

let stats_to_string t =
  let s = stats t in
  Printf.sprintf "scan cache: %d hits, %d misses, %d entries"
    s.Plan_cache.hits s.Plan_cache.misses s.Plan_cache.entries
