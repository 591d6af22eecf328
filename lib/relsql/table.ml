(** Mutable tables with hash indexes: a packed main plus a boxed delta.

    Rows are value arrays of the schema's arity. Slots below the main
    boundary live in an immutable bit-packed image ({!Packed}); the
    rest are boxed rows in a growable delta array, which is where every
    write lands until {!merge} folds it into a fresh image. Hash indexes map a column value to a posting of row ids and are
    maintained incrementally through {!insert}, {!set_cell} and
    {!delete_row} — the DB2RDF loader updates cells in place when it
    assigns a predicate to a column of an existing entity row.

    Postings are append-only growable int arrays that tolerate stale
    entries instead of eagerly rewriting on every change: {!delete_row}
    and the removal half of {!set_cell} only bump a staleness counter
    (O(1), no scan, no allocation), and lookups validate each candidate
    against the live bitmap and the current cell value, compacting the
    posting in place once more than half of it is stale. This replaces
    the previous [int list ref] postings whose [List.filter]-per-removal
    made delete-heavy workloads quadratic. *)

type posting = {
  mutable ids : int array;  (* slots 0..len-1; may contain stale rids *)
  mutable len : int;  (* logical entry count (also under run encoding) *)
  mutable stale : int;  (* upper bound on entries that no longer match *)
  mutable nruns : int;
      (* 0 = plain id array; > 0 = [ids] holds [nruns] (start, length)
         pairs of consecutive rids — the delta/run-length encoding
         {!merge} applies to dense postings (DS/RS lid postings are
         contiguous insertion ranges). Readers iterate both forms via
         {!posting_iter}; any mutation first expands back to plain. *)
}

(* A column index: a posting per value, keyed like an executor cell
   (see {!Cell.Tbl}), so a probe with an inline cell hashes an int. *)
type index = posting Cell.Tbl.t

type t = {
  name : string;
  schema : Schema.t;
  mutable main : Packed.t;
      (* read-optimized packed image of slots 0..main_slots-1 (the
         main); {!Packed.empty} until the first {!merge}. Never mutated
         in place — a merge installs a fresh image — so snapshots may
         share it. *)
  mutable rows : Value.t array array;
      (* write-optimized boxed delta: slot [rid - main_slots] holds the
         row of slot [rid] for [main_slots <= rid < nrows]. Rids are
         stable across merges — only {!set_cell}'s relocation of a main
         row ever moves one. *)
  mutable nrows : int;
  mutable alive : Bytes.t;  (* tombstone bitmap: one byte per row slot *)
  mutable live_count : int;
  indexes : (int, index) Hashtbl.t; (* column position -> index *)
  mutable epoch : int;
      (* monotonic: bumped by every insert, set_cell and delete_row and
         by every merge, never reset — the one stamp the scan cache,
         ExtVP and snapshots key on *)
  mutable merges : int;  (* delta-into-main merges performed *)
  mutable tombs : int;
      (* tombstones punched into the main since the last merge *)
}

let dummy_row : Value.t array = [||]

let create name schema =
  { name; schema; main = Packed.empty; rows = Array.make 64 dummy_row;
    nrows = 0; alive = Bytes.make 64 '\001'; live_count = 0;
    indexes = Hashtbl.create 4; epoch = 0; merges = 0; tombs = 0 }

let name t = t.name
let schema t = t.schema
let epoch t = t.epoch

(** Number of live (non-deleted) rows. *)
let row_count t = t.live_count

let is_live t rid = Bytes.get t.alive rid = '\001'

(** The packed image of the main (empty before the first merge). *)
let packed_view t = t.main

(** Slots covered by the packed main: packed scans read rids below it,
    delta rows sit at or above it. *)
let main_slots t = Packed.nrows t.main

let frozen t = main_slots t > 0

(** Boxed rows on the delta side. *)
let delta_rows t = t.nrows - main_slots t

(** Tombstones punched into the main since the last merge. *)
let main_tombstones t = t.tombs

(** Delta-into-main merges performed on this table. *)
let merge_count t = t.merges

(* Read one cell from whichever side holds the slot; no bounds check. *)
let cell_unsafe t rid pos =
  let base = main_slots t in
  if rid < base then Packed.cell t.main rid pos else t.rows.(rid - base).(pos)

(* Read one row; no bounds check. A delta row is the live array
   (callers must not mutate), a main row a fresh decode. *)
let row_unsafe t rid =
  let base = main_slots t in
  if rid < base then Packed.row t.main rid else t.rows.(rid - base)

let ensure_capacity t =
  let base = main_slots t in
  if t.nrows - base = Array.length t.rows then begin
    let bigger = Array.make (2 * max 32 (Array.length t.rows)) dummy_row in
    Array.blit t.rows 0 bigger 0 (t.nrows - base);
    t.rows <- bigger
  end;
  if t.nrows = Bytes.length t.alive then begin
    let bigger_alive = Bytes.make (2 * Bytes.length t.alive) '\001' in
    Bytes.blit t.alive 0 bigger_alive 0 t.nrows;
    t.alive <- bigger_alive
  end

(* ------------------------------------------------------------------ *)
(* Posting maintenance                                                  *)
(* ------------------------------------------------------------------ *)

(** Iterate a posting's logical entries in stored order, whichever
    encoding it is in. *)
let posting_iter p (f : int -> unit) =
  if p.nruns = 0 then
    for i = 0 to p.len - 1 do
      f p.ids.(i)
    done
  else
    for r = 0 to p.nruns - 1 do
      let s = p.ids.(2 * r) and l = p.ids.((2 * r) + 1) in
      for j = 0 to l - 1 do
        f (s + j)
      done
    done

(* Expand a run-encoded posting back to a plain id array (any mutation
   path does this first; reads never need to). *)
let posting_expand p =
  if p.nruns > 0 then begin
    let ids = Array.make (max 2 p.len) 0 in
    let k = ref 0 in
    for r = 0 to p.nruns - 1 do
      let s = p.ids.(2 * r) and l = p.ids.((2 * r) + 1) in
      for j = 0 to l - 1 do
        ids.(!k) <- s + j;
        incr k
      done
    done;
    p.ids <- ids;
    p.nruns <- 0
  end

(* Re-encode a compacted (stale = 0) plain posting as (start, length)
   runs when that at least halves the stored words. Preserves iteration
   order exactly: a descending or shuffled tail just becomes length-1
   runs, and those postings stay plain. *)
let posting_try_runs p =
  if p.nruns = 0 && p.stale = 0 && p.len >= 8 then begin
    let nr = ref 1 in
    for i = 1 to p.len - 1 do
      if p.ids.(i) <> p.ids.(i - 1) + 1 then incr nr
    done;
    if 2 * !nr * 2 <= p.len then begin
      let runs = Array.make (2 * !nr) 0 in
      let r = ref 0 in
      let start = ref p.ids.(0) and rlen = ref 1 in
      for i = 1 to p.len - 1 do
        if p.ids.(i) = p.ids.(i - 1) + 1 then incr rlen
        else begin
          runs.(2 * !r) <- !start;
          runs.((2 * !r) + 1) <- !rlen;
          incr r;
          start := p.ids.(i);
          rlen := 1
        end
      done;
      runs.(2 * !r) <- !start;
      runs.((2 * !r) + 1) <- !rlen;
      p.ids <- runs;
      p.nruns <- !nr
    end
  end

let posting_push p rid =
  posting_expand p;
  if p.len = Array.length p.ids then begin
    let bigger = Array.make (2 * max 1 (Array.length p.ids)) 0 in
    Array.blit p.ids 0 bigger 0 p.len;
    p.ids <- bigger
  end;
  p.ids.(p.len) <- rid;
  p.len <- p.len + 1

let find_posting idx v =
  match Cell.Tbl.find_value idx v with p -> Some p | exception Not_found -> None

(** Append a freshly allocated rid — it cannot already be present. *)
let index_add idx v rid =
  match Cell.Tbl.find_value idx v with
  | p -> posting_push p rid
  | exception Not_found ->
    Cell.Tbl.add_value idx v { ids = [| rid; 0 |]; len = 1; stale = 0; nruns = 0 }

(** Append a rid that may already sit in the posting as a stale entry
    (a cell moved away and back via {!set_cell}); scans to keep the
    at-most-once invariant. Only the [set_cell] path pays this. *)
let index_add_checked idx v rid =
  match find_posting idx v with
  | Some p ->
    let present = ref false in
    posting_iter p (fun r -> if r = rid then present := true);
    if not !present then posting_push p rid
    else p.stale <- max 0 (p.stale - 1)
  | None -> Cell.Tbl.add_value idx v { ids = [| rid; 0 |]; len = 1; stale = 0; nruns = 0 }

(** Record that [rid] no longer belongs under [v]: O(1) — the entry
    stays in place and lookups filter it out until compaction. *)
let index_unlink idx v =
  match find_posting idx v with
  | Some p -> p.stale <- p.stale + 1
  | None -> ()

(** [insert t row] appends [row] to the boxed delta and returns its row
    id. The row array is owned by the table afterwards; callers must
    not mutate it directly (use {!set_cell}). *)
let insert t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): arity %d, expected %d" t.name
         (Array.length row) (Schema.arity t.schema));
  ensure_capacity t;
  let rid = t.nrows in
  t.rows.(rid - main_slots t) <- row;
  Bytes.set t.alive rid '\001';
  t.nrows <- t.nrows + 1;
  t.live_count <- t.live_count + 1;
  t.epoch <- t.epoch + 1;
  Hashtbl.iter (fun pos idx -> index_add idx row.(pos) rid) t.indexes;
  rid

let get t rid =
  if rid < 0 || rid >= t.nrows then invalid_arg "Table.get: bad row id";
  row_unsafe t rid

let cell t rid pos =
  if rid < 0 || rid >= t.nrows then invalid_arg "Table.cell: bad row id";
  cell_unsafe t rid pos

(** Update one cell, keeping any index on that column consistent, and
    return the row's id after the write — which may differ from [rid]:
    writing to a row of the packed main cannot touch the immutable
    image, so the row is {e relocated} — its main slot is tombstoned
    and the updated copy appended to the boxed delta. Writing an equal
    value is a no-op (same rid, no epoch bump); delta rows update in
    place. Callers that track rids must adopt the returned id. *)
let set_cell t rid pos v =
  if rid < 0 || rid >= t.nrows then invalid_arg "Table.set_cell: bad row id";
  let base = main_slots t in
  if rid < base then begin
    let row = Packed.row t.main rid in
    if Value.equal row.(pos) v then rid
    else begin
      (* Relocate: tombstone the packed slot, re-insert the updated
         copy as a delta row. Index entries of the old rid go stale in
         place (the posting validators skip them); the new rid is
         appended fresh. *)
      Hashtbl.iter (fun p idx -> index_unlink idx row.(p)) t.indexes;
      Bytes.set t.alive rid '\000';
      t.tombs <- t.tombs + 1;
      row.(pos) <- v;
      ensure_capacity t;
      let rid' = t.nrows in
      t.rows.(rid' - base) <- row;
      Bytes.set t.alive rid' '\001';
      t.nrows <- t.nrows + 1;
      t.epoch <- t.epoch + 1;
      Hashtbl.iter (fun p idx -> index_add idx row.(p) rid') t.indexes;
      rid'
    end
  end
  else begin
    let row = t.rows.(rid - base) in
    if Value.equal row.(pos) v then rid
    else begin
      (match Hashtbl.find_opt t.indexes pos with
       | Some idx ->
         index_unlink idx row.(pos);
         index_add_checked idx v rid
       | None -> ());
      t.epoch <- t.epoch + 1;
      row.(pos) <- v;
      rid
    end
  end

(** Delete a row: it disappears from scans, lookups and {!row_count}.
    The slot is tombstoned (ids of other rows are stable) whichever
    side it lives on — a main row keeps its packed cells, only its bit
    in the bitmap flips. Idempotent. *)
let delete_row t rid =
  if rid < 0 || rid >= t.nrows then invalid_arg "Table.delete_row: bad row id";
  if is_live t rid then begin
    Hashtbl.iter
      (fun pos idx -> index_unlink idx (cell_unsafe t rid pos))
      t.indexes;
    Bytes.set t.alive rid '\000';
    t.live_count <- t.live_count - 1;
    t.epoch <- t.epoch + 1;
    if rid < main_slots t then t.tombs <- t.tombs + 1
  end

(** Build (or rebuild) a hash index on the column at position [pos]. *)
let create_index t pos =
  if pos < 0 || pos >= Schema.arity t.schema then
    invalid_arg "Table.create_index: bad column";
  let idx = Cell.Tbl.create (max 16 t.nrows) in
  for rid = 0 to t.nrows - 1 do
    if is_live t rid then index_add idx (cell_unsafe t rid pos) rid
  done;
  Hashtbl.replace t.indexes pos idx

let create_index_on t col_name =
  create_index t (Schema.position_exn t.schema col_name)

let has_index t pos = Hashtbl.mem t.indexes pos

let indexed_columns t =
  Hashtbl.fold (fun pos _ acc -> pos :: acc) t.indexes []

(* A posting entry is valid when its row is live and still carries the
   indexed value (set_cell may have moved it elsewhere). *)
let entry_valid t pos v rid = is_live t rid && Value.equal (cell_unsafe t rid pos) v

(* Rewrite a posting to its valid entries once more than half are stale
   (amortized against the lookups that observed them). *)
let maybe_compact t idx pos v p valid =
  if p.stale > 0 && 2 * valid < p.len then begin
    if valid = 0 then Cell.Tbl.remove_value idx v
    else begin
      let compact = Array.make (max 2 valid) 0 in
      let k = ref 0 in
      posting_iter p (fun rid ->
          if entry_valid t pos v rid then begin
            compact.(!k) <- rid;
            incr k
          end);
      p.ids <- compact;
      p.len <- valid;
      p.stale <- 0;
      p.nruns <- 0
    end
  end

let find_index t pos =
  match Hashtbl.find_opt t.indexes pos with
  | None -> invalid_arg ("Table.lookup: no index on column of " ^ t.name)
  | Some idx -> idx

(** [lookup_iter t pos v f] calls [f] on each live row id whose column
    [pos] currently equals [v], in insertion order, without allocating.
    Requires an index on [pos]. *)
let lookup_iter t pos v (f : int -> unit) =
  let idx = find_index t pos in
  match Cell.Tbl.find_value idx v with
  | exception Not_found -> ()
  | p ->
    if p.stale = 0 then
      (* Every entry is live and value-current (delete_row and set_cell
         both bump [stale]), so skip per-entry validation. *)
      posting_iter p f
    else begin
      let valid = ref 0 in
      posting_iter p (fun rid ->
          if entry_valid t pos v rid then begin
            incr valid;
            f rid
          end);
      maybe_compact t idx pos v p !valid
    end

(** [prober t pos] pre-resolves the index on [pos] for repeated probes
    (index nested-loop joins) keyed by an executor cell: the returned
    function behaves like {!lookup_iter} on the cell's value, with the
    column-to-index hash lookup hoisted out of the per-probe path and
    an inline cell hashed as an int. *)
let prober t pos =
  let idx = find_index t pos in
  fun side c (f : int -> unit) ->
    match Cell.Tbl.find idx side c with
    | exception Not_found -> ()
    | p ->
      if p.stale = 0 then posting_iter p f
      else begin
        let v = Cell.decode side c in
        let valid = ref 0 in
        posting_iter p (fun rid ->
            if entry_valid t pos v rid then begin
              incr valid;
              f rid
            end);
        maybe_compact t idx pos v p !valid
      end

(** [prober_ro t pos] is a {!prober} that never compacts: it validates
    stale entries on every probe but leaves postings untouched, so the
    returned closure is safe to share across concurrently probing
    domains (the table must not be mutated while they run). Parallel
    index-join probes use this; the sequential prober keeps the
    amortized compaction. *)
let prober_ro t pos =
  let idx = find_index t pos in
  fun side c (f : int -> unit) ->
    match Cell.Tbl.find idx side c with
    | exception Not_found -> ()
    | p ->
      if p.stale = 0 then posting_iter p f
      else
        let v = Cell.decode side c in
        posting_iter p (fun rid -> if entry_valid t pos v rid then f rid)

(** [lookup t pos v] is the ids of live rows whose column [pos] equals
    [v], in insertion order. Requires an index on [pos]. *)
let lookup t pos v =
  let idx = find_index t pos in
  match find_posting idx v with
  | None -> [||]
  | Some p ->
    if p.stale = 0 && p.nruns = 0 then Array.sub p.ids 0 p.len
    else if p.stale = 0 then begin
      let acc = Array.make p.len 0 in
      let k = ref 0 in
      posting_iter p (fun rid ->
          acc.(!k) <- rid;
          incr k);
      acc
    end
    else begin
      let acc = Array.make p.len 0 in
      let valid = ref 0 in
      posting_iter p (fun rid ->
          if entry_valid t pos v rid then begin
            acc.(!valid) <- rid;
            incr valid
          end);
      maybe_compact t idx pos v p !valid;
      Array.sub acc 0 !valid
    end

(** [iter_range f t lo hi] is {!iter} restricted to slots
    [lo <= rid < hi]. The range splits at the main/delta boundary:
    packed slots decode, delta slots read boxed. *)
let iter_range f t lo hi =
  let base = main_slots t in
  for rid = lo to min hi base - 1 do
    if is_live t rid then f rid (Packed.row t.main rid)
  done;
  for rid = max lo base to hi - 1 do
    if is_live t rid then f rid t.rows.(rid - base)
  done

let iter f t = iter_range f t 0 t.nrows

(** Row slots ever allocated, including tombstoned ones — the iteration
    space of {!iter} and {!iter_range} (parallel scans morselize over
    it). *)
let slot_count t = t.nrows

let fold f init t =
  let acc = ref init in
  iter (fun rid row -> acc := f !acc rid row) t;
  !acc

(** Simulated on-disk footprint in bytes under the value-compressed
    storage model: per-row header, a null bitmap of one bit per column,
    and per-value sizes (see {!Value.storage_size}, where NULLs are
    free — the bitmap carries them). Used by the Section 2.3 NULL
    experiment: widening a relation with NULL columns costs bitmap bits,
    not value bytes. *)
let storage_size t =
  let row_header = 8 + ((Schema.arity t.schema + 7) / 8) in
  fold
    (fun acc _ row ->
      Array.fold_left (fun a v -> a + Value.storage_size v) (acc + row_header) row)
    0 t

(* ------------------------------------------------------------------ *)
(* Radix-partitioned join hash                                          *)
(* ------------------------------------------------------------------ *)

(** The partition-indexed prober of the hash-join build: a power-of-two
    number of disjoint per-partition sub-tables mapping a key cell to a
    posting of build-row ids, "merged by pointer" — the sub-table array
    {e is} the merged structure, probes route by key hash without
    touching any other partition.

    Keys are executor cells, each read in its own side context: an
    inline cell is hashed and compared as an int, a side cell by its
    value ({!Value.equal} / {!Value.hash}) — together exactly
    {!Value.equal} on the decoded keys, since the encoding is
    canonical. Rows must be added in ascending build order per
    partition (each partition is owned by one builder at a time);
    postings then replay matches in global build order, which keeps a
    partitioned build's output bit-identical to a one-partition one. *)
module Join_hash = struct
  type t = {
    mask : int;  (* parts - 1; parts is a power of two *)
    subs : posting Cell.Tbl.t array;
  }

  let create ~parts =
    if parts <= 0 || parts land (parts - 1) <> 0 then
      invalid_arg "Join_hash.create: parts must be a positive power of two";
    { mask = parts - 1; subs = Array.init parts (fun _ -> Cell.Tbl.create 64) }

  let parts h = Array.length h.subs

  (* The high bits of the hash, so that a sub-table's buckets still
     spread over the low ones. *)
  let[@inline] part_of_hash h x = (x lsr 32) land h.mask

  (** Which partition a key routes to (NULL keys never enter a build;
      callers drop them before routing). *)
  let part_of h side c = part_of_hash h (Cell.hash side c)

  (** [add h p side c rid] appends [rid] under key cell [c] in
      sub-table [p]. The caller routes [p = part_of h side c] and must
      own partition [p] exclusively while adding (the parallel build's
      invariant). *)
  let add h p side c rid =
    let sub = h.subs.(p) in
    match Cell.Tbl.find sub side c with
    | pst -> posting_push pst rid
    | exception Not_found ->
      Cell.Tbl.add sub side c { ids = [| rid; 0 |]; len = 1; stale = 0; nruns = 0 }

  let replay (p : posting) (f : int -> unit) =
    for i = 0 to p.len - 1 do
      f p.ids.(i)
    done

  (** Iterate the build rows matching key cell [c] in build (insertion)
      order. *)
  let iter_matches h side c (f : int -> unit) =
    match Cell.Tbl.find h.subs.(part_of h side c) side c with
    | exception Not_found -> ()
    | p -> replay p f

  (** {!iter_matches} on the key of value [v]. *)
  let iter_matches_value h v (f : int -> unit) =
    match Cell.Tbl.find_value h.subs.(part_of_hash h (Cell.hash_value v)) v with
    | exception Not_found -> ()
    | p -> replay p f
end

(* ------------------------------------------------------------------ *)
(* Delta-main merge                                                     *)
(* ------------------------------------------------------------------ *)

(** Fold the delta into a fresh packed main: compact every posting and
    run-encode the dense ones, then {!Packed.merge} the old image with
    the boxed delta rows — the old main's fields are remapped as codes,
    only delta cells are hashed — and start an empty delta. Rids are
    stable. A no-op unless
    the table has delta rows or fresh main tombstones. Bumps the epoch:
    the data is unchanged, but every cached result keyed on the old
    physical form retires. *)
let merge t =
  if t.nrows > main_slots t || t.tombs > 0 then begin
    Hashtbl.iter
      (fun pos idx ->
        (* snapshot: compaction may remove now-empty postings *)
        let entries = ref [] in
        Cell.Tbl.iter (fun v p -> entries := (v, p) :: !entries) idx;
        List.iter
          (fun (v, p) ->
            posting_expand p;
            if p.stale > 0 then begin
              let k = ref 0 in
              for i = 0 to p.len - 1 do
                let rid = p.ids.(i) in
                if entry_valid t pos v rid then begin
                  p.ids.(!k) <- rid;
                  incr k
                end
              done;
              p.len <- !k;
              p.stale <- 0;
              if p.len = 0 then Cell.Tbl.remove_value idx v
            end;
            posting_try_runs p)
          !entries)
      t.indexes;
    let base = main_slots t in
    t.main <-
      Packed.merge ~ncols:(Schema.arity t.schema) t.main ~nrows:t.nrows
        (fun rid pos -> t.rows.(rid - base).(pos))
        ~live:(is_live t);
    t.rows <- [||];
    t.tombs <- 0;
    t.merges <- t.merges + 1;
    t.epoch <- t.epoch + 1
  end

(* The merge policy: delta rows and fresh main tombstones both degrade
   reads (boxed re-scan, tombstone tests, dead postings), so a table is
   due once they exceed a quarter of the main, with an absolute floor
   so small write bursts never thrash a re-pack. *)
let merge_floor = 16

let merge_due t =
  let pending = delta_rows t + t.tombs in
  pending > merge_floor && 4 * pending > main_slots t

(** An immutable copy-on-write view of the table as it is: the snapshot
    {e shares} the packed main — O(1) in its row data — while the delta
    rows, the tombstone bitmap and the postings are copied: the writer
    keeps mutating delta rows in place, lookups compact postings in
    place, and future deletes flip source tombstones, so none of those
    may be shared. The shared {!Packed.t} is safe because no write path
    ever mutates a packed image in place — writes land on the delta
    side (or relocate into it), and a merge builds a {e new} image.
    The source is not touched; the snapshot carries its epoch. *)
let snapshot t =
  let indexes = Hashtbl.create (max 4 (Hashtbl.length t.indexes)) in
  Hashtbl.iter
    (fun pos idx ->
      let copy : index = Cell.Tbl.create (max 16 (Cell.Tbl.length idx)) in
      Cell.Tbl.iter
        (fun v p ->
          Cell.Tbl.add_value copy v
            { ids = Array.copy p.ids; len = p.len; stale = p.stale;
              nruns = p.nruns })
        idx;
      Hashtbl.add indexes pos copy)
    t.indexes;
  { t with
    rows = Array.init (delta_rows t) (fun i -> Array.copy t.rows.(i));
    alive = Bytes.copy t.alive; indexes }

(* ------------------------------------------------------------------ *)
(* Self-check                                                           *)
(* ------------------------------------------------------------------ *)

(** Verify the table's structural invariants; raises [Failure] naming
    the first violation. *)
let check t =
  let fail fmt = Printf.ksprintf (fun m -> failwith ("Table.check(" ^ t.name ^ "): " ^ m)) fmt in
  let base = main_slots t and arity = Schema.arity t.schema in
  (* The main and the delta partition the slots. *)
  if Bytes.length t.alive < t.nrows || base > t.nrows
     || Array.length t.rows < t.nrows - base
  then fail "main of %d slots and delta array of %d cannot hold %d slots" base
      (Array.length t.rows) t.nrows;
  for i = 0 to t.nrows - base - 1 do
    if Array.length t.rows.(i) <> arity then
      fail "delta slot %d holds no row of arity %d" (base + i) arity
  done;
  let live = ref 0 and dead_main = ref 0 in
  for rid = 0 to t.nrows - 1 do
    if is_live t rid then incr live else if rid < base then incr dead_main
  done;
  if !live <> t.live_count then
    fail "alive bitmap has %d live slots, row_count %d" !live t.live_count;
  if t.tombs > !dead_main then
    fail "%d main tombstones but %d dead main slots" t.tombs !dead_main;
  (* Every live row sits exactly once in the posting of its current
     cell; entries that no longer match are covered by [stale]. *)
  Hashtbl.iter
    (fun pos idx ->
      let seen = Bytes.make t.nrows '\000' in
      let valid = ref 0 in
      Cell.Tbl.iter
        (fun v p ->
          let invalid = ref 0 in
          posting_iter p (fun rid ->
              if rid < 0 || rid >= t.nrows then
                fail "column %d posting holds rid %d of %d slots" pos rid t.nrows;
              if entry_valid t pos v rid then begin
                if Bytes.get seen rid = '\001' then
                  fail "rid %d posted twice under column %d" rid pos;
                Bytes.set seen rid '\001';
                incr valid
              end
              else incr invalid);
          if !invalid > p.stale then
            fail "column %d posting has %d invalid entries, stale %d" pos
              !invalid p.stale)
        idx;
      if !valid <> t.live_count then
        fail "column %d postings cover %d of %d live rows" pos !valid
          t.live_count)
    t.indexes;
  (* Until a main slot dies the zones are exactly the merge's. *)
  match Packed.check t.main ~live:(is_live t) ~exact:(t.tombs = 0) with
  | Ok () -> ()
  | Error m -> fail "%s" m

(** Per-table memory accounting for the [rdfstore stats] report. Sizes
    are heap-word estimates times the word size; [boxed_bytes] is what
    the same slots cost (or would cost) as boxed rows. *)
type compression_report = {
  r_table : string;
  r_frozen : bool;
  r_live_rows : int;
  r_slots : int;
  r_boxed_bytes : int;
  r_packed_bytes : int;  (* 0 before the first merge *)
  r_col_bits : (string * int) list;  (* bits per column of the main *)
  r_posting_entries : int;  (* logical posting entries across indexes *)
  r_posting_words : int;  (* stored posting words after run encoding *)
  r_delta_rows : int;  (* boxed rows on the delta side *)
  r_delta_bytes : int;  (* boxed footprint of those delta rows *)
  r_tombstones : int;  (* tombstones punched into the main *)
  r_merges : int;  (* delta-into-main merges performed *)
}

let compression_report t =
  let entries = ref 0 and stored = ref 0 in
  Hashtbl.iter
    (fun _ idx ->
      Cell.Tbl.iter
        (fun _ p ->
          entries := !entries + p.len;
          stored := !stored + (if p.nruns > 0 then 2 * p.nruns else p.len))
        idx)
    t.indexes;
  let arity = Schema.arity t.schema in
  let delta = delta_rows t in
  let cells = ref 0 in
  for i = 0 to delta - 1 do
    Array.iter (fun v -> cells := !cells + Packed.value_heap_words v) t.rows.(i)
  done;
  let delta_bytes = 8 * ((delta * (1 + arity)) + !cells) in
  let frozen = frozen t in
  { r_table = t.name; r_frozen = frozen; r_live_rows = t.live_count;
    r_slots = t.nrows;
    r_boxed_bytes = (8 * Packed.boxed_words t.main) + delta_bytes;
    r_packed_bytes = (if frozen then 8 * Packed.packed_words t.main else 0);
    r_col_bits =
      (if frozen then
         List.init arity (fun i -> (Schema.column t.schema i, Packed.col_bits t.main i))
       else []);
    r_posting_entries = !entries; r_posting_words = !stored;
    r_delta_rows = delta; r_delta_bytes = delta_bytes;
    r_tombstones = t.tombs; r_merges = t.merges }

(** Fraction of cells that are NULL across the given column positions
    (live rows only). *)
let null_fraction t positions =
  if t.live_count = 0 || positions = [] then 0.0
  else begin
    let nulls = ref 0 in
    iter
      (fun _ row ->
        List.iter (fun p -> if Value.is_null row.(p) then incr nulls) positions)
      t;
    float_of_int !nulls /. float_of_int (t.live_count * List.length positions)
  end
