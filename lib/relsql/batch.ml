(** Growable row batches: the executor's intermediate representation.

    A batch is a column layout plus a single flat [int array] of cell
    codes ({!Cell}) holding rows contiguously (row-major), and a side
    buffer for the boxed values of its side cells. Ids, lids, NULLs and
    booleans are immediate, so filling a batch is plain int stores — no
    write barrier, no boxed cell to chase — and only strings, reals and
    out-of-range ints live in the side buffer. Every batch has its own
    side buffer: copying a side cell into another batch appends its
    value to the target's ({!Cell.import}), so per-morsel batches of a
    parallel operator never share one, and {!concat} re-bases them.
    Ownership is linear: a batch produced by one operator is consumed
    by exactly one parent, which may mutate it in place (see {!retain})
    and {!release}s it once it has read it. A batch kept for reuse — a
    CTE result — hands its readers {!share}d holders instead of
    copies: a holder reads the owner's arrays, copies them before its
    first write, and never gives them back. Cell arrays above the minor
    heap's limit come from a per-domain free list that {!release} and
    growth refill. *)

type t = {
  layout : Expr_eval.layout;
  width : int;
  mutable data : int array;  (* row-major; capacity = length / width *)
  mutable nrows : int;
  mutable side : Cell.side;
  mutable shared : bool;
      (* a holder: [data] and [side] are another batch's or nobody's,
         copied before a write and never given back *)
}

(* Cells an array may have and still be allocated in the minor heap. *)
let young_cells = 256

(* ------------------------------------------------------------------ *)
(* Recycled cell arrays                                                *)
(* ------------------------------------------------------------------ *)

(* A larger array is a major-heap block, and a materializing executor
   makes one per large operator output and per growth step, most of
   which die as soon as the parent has read them. Each domain keeps
   them on a free list instead, in power-of-two size classes: class [c]
   holds arrays of [young_cells lsl (c + 1)] cells, at most
   [class_depth] of them, and the list holds at most [pool_words] words
   in all. Arrays above the largest class, and every array at or under
   [young_cells], are allocated to size and never kept. A recycled
   array keeps its last holder's cells: a batch writes every cell of a
   row it adds, and nothing reads past its rows. Taking and giving back
   allocate nothing, and their list updates are straight-line code, in
   which no thread switch can fall. *)
let pool_classes = 11
let class_depth = 8
let pool_words = 1 lsl 20
let max_pooled = young_cells lsl pool_classes

type pool = {
  free : int array array;  (* class [c]'s stack at [c * class_depth] *)
  top : int array;  (* arrays held per class *)
  mutable words : int;  (* cells held in all *)
}

let pool =
  Domain.DLS.new_key (fun () ->
      { free = Array.make (pool_classes * class_depth) [||];
        top = Array.make pool_classes 0; words = 0 })

(* The class of an array of more than [young_cells] and at most
   [max_pooled] cells. *)
let class_of cells =
  let c = ref 0 in
  while young_cells lsl (!c + 1) < cells do
    incr c
  done;
  !c

(* An array of at least [cells] cells: a recycled one when the list
   has one of [cells]' class. *)
let take cells =
  if cells <= young_cells || cells > max_pooled then Array.make cells Cell.null
  else begin
    let c = class_of cells in
    let p = Domain.DLS.get pool in
    let k = p.top.(c) in
    if k = 0 then Array.make (young_cells lsl (c + 1)) Cell.null
    else begin
      let i = (c * class_depth) + k - 1 in
      let a = p.free.(i) in
      p.free.(i) <- [||];
      p.top.(c) <- k - 1;
      p.words <- p.words - Array.length a;
      a
    end
  end

(* Put [a], which nothing reads any more, on the list, unless it is
   not of a class or the list is full. *)
let give (a : int array) =
  let n = Array.length a in
  if n > young_cells && n <= max_pooled && n land (n - 1) = 0 then begin
    let c = class_of n in
    let p = Domain.DLS.get pool in
    let k = p.top.(c) in
    if k < class_depth && p.words + n <= pool_words then begin
      p.free.((c * class_depth) + k) <- a;
      p.top.(c) <- k + 1;
      p.words <- p.words + n
    end
  end

let create ?(capacity = 16) ?upto (layout : Expr_eval.layout) =
  let width = Array.length layout in
  (* An output of unknown size, at most [upto] rows, starts in the minor
     heap: a selective operator's first array would otherwise be a
     major-heap block that is mostly never filled. *)
  let capacity =
    match upto with Some n -> min n (young_cells / max 1 width) | None -> capacity
  in
  let capacity = max 1 capacity in
  { layout; width; data = take (capacity * width); nrows = 0; side = Cell.side ();
    shared = false }

let layout b = b.layout
let width b = b.width
let length b = b.nrows
let side b = b.side

let column_names b = Array.to_list (Array.map snd b.layout)

(** Same rows, re-qualified columns (used for subquery aliasing). The
    data array is shared: the original batch must not be used again. *)
let with_layout b (layout : Expr_eval.layout) =
  if Array.length layout <> b.width then
    invalid_arg "Batch.with_layout: width mismatch";
  { b with layout }

(* Geometric growth from a sane floor: doubling alone is amortized
   linear, but a batch created with a tiny capacity hint (the executor
   caps hints at 1024, and selective operators hint 1) used to crawl
   through the 1→2→4→… ladder, paying log2(n) reallocations before
   reaching useful sizes. Growing to at least [min_grow_cells] on the
   first overflow skips the small rungs for one extra array's worth of
   slack. *)
let min_grow_cells = young_cells

(* Int arrays are copied by loops, not [Array.blit]: the compiler knows
   the element type and emits plain stores, where the runtime's blit
   into a major-heap array would call the write barrier per cell. *)
let[@inline] copy_ints (src : int array) so (dst : int array) d n =
  for j = 0 to n - 1 do
    Array.unsafe_set dst (d + j) (Array.unsafe_get src (so + j))
  done

(* Only a released batch of a non-zero width has no cells. *)
let check_live b =
  if Array.length b.data = 0 then invalid_arg "Batch: used after release"

let grow b needed =
  check_live b;
  let bigger = take (max needed (max min_grow_cells (2 * Array.length b.data))) in
  copy_ints b.data 0 bigger 0 (b.nrows * b.width);
  give b.data;
  b.data <- bigger

(* Give a shared batch arrays of its own before it is written. *)
let detach b =
  let n = b.nrows * b.width in
  let data = take (max 1 n) in
  copy_ints b.data 0 data 0 n;
  b.data <- data;
  b.side <- Cell.copy b.side;
  b.shared <- false

(** A holder of [b]'s rows that reads its arrays: it copies them
    before its first write, and {!release} of it gives nothing back.
    [b] stays their owner, and must be neither written nor released
    while a holder reads them. *)
let share b = { b with shared = true }

(** A holder of an exact-size copy of [b]'s rows that has no owner:
    nothing ever gives its arrays back. What a cache keeps. *)
let freeze b =
  let n = b.nrows * b.width in
  let data = Array.make n Cell.null in
  copy_ints b.data 0 data 0 n;
  { b with data; side = Cell.copy b.side; shared = true }

(** Give [b]'s cell array back for reuse, unless [b] is a holder
    ({!share}, {!freeze}); a holder is left as it is. A released batch
    has no rows, and reading a cell of it, adding a row to it or
    copying a row from it raises. *)
let release b =
  if not b.shared then begin
    give b.data;
    b.data <- [||];
    b.nrows <- 0
  end

(** [aliases a b]: [a] and [b] read the same cell array. *)
let aliases a b = a.data == b.data

(* Room for [extra] more rows; the offset of the first of them. *)
let[@inline] reserve b extra =
  if b.shared then detach b;
  let base = b.nrows * b.width in
  if base + (extra * b.width) > Array.length b.data then grow b (base + (extra * b.width));
  base

(* Copy [n] cells read in context [sside] into [b] at [d]. *)
let[@inline] import_ints b (sside : Cell.side) (src : int array) so d n =
  let data = b.data in
  if Cell.side_count sside = 0 then copy_ints src so data d n
  else
    for j = 0 to n - 1 do
      Array.unsafe_set data (d + j) (Cell.import b.side sside (Array.unsafe_get src (so + j)))
    done

(** [cell b i j] is the code of cell [j] of row [i]; a side code
    indexes [side b]. *)
let[@inline] cell b i j = b.data.((i * b.width) + j)

(** [get b i j] is cell [j] of row [i], decoded. *)
let get b i j = Cell.decode b.side (cell b i j)

(** Point [v] at row [i] of [b]. *)
let[@inline] point (v : Expr_eval.row) b i =
  if v.Expr_eval.cells != b.data then v.Expr_eval.cells <- b.data;
  if v.Expr_eval.side != b.side then v.Expr_eval.side <- b.side;
  v.Expr_eval.base <- i * b.width

(** A view pointed at row 0 of [b]. *)
let view b = { Expr_eval.cells = b.data; base = 0; side = b.side; values = [||] }

(** Append a row of values (encoded; side values join the batch's
    buffer). *)
let push_row b (vs : Value.t array) =
  let base = reserve b 1 in
  for j = 0 to b.width - 1 do
    b.data.(base + j) <- Cell.encode b.side vs.(j)
  done;
  b.nrows <- b.nrows + 1

(** [push_cells b cells side] appends the row held in the first
    [width] codes of [cells], read in context [side]. *)
let push_cells b (cells : int array) (side : Cell.side) =
  let base = reserve b 1 in
  import_ints b side cells 0 base b.width;
  b.nrows <- b.nrows + 1

(** [push_sel b cells side sel] appends the row whose cell [j] is
    [cells.(sel.(j))] (a column-pruned copy). *)
let push_sel b (cells : int array) (side : Cell.side) (sel : int array) =
  let base = reserve b 1 in
  let data = b.data in
  for j = 0 to Array.length sel - 1 do
    data.(base + j) <- Cell.import b.side side cells.(sel.(j))
  done;
  b.nrows <- b.nrows + 1

(* The offset of row [i] of [src], which must exist: a released batch
   has no rows, so copying from it raises instead of reading past its
   empty array. *)
let[@inline] row_at src i =
  if i < 0 || i >= src.nrows then invalid_arg "Batch: no such row";
  i * src.width

(** [push_join b ~src i cells side iw] appends row [i] of [src]
    followed by the first [iw] codes of [cells] (context [side]) — an
    index-join output row written straight into the batch. *)
let push_join b ~(src : t) i (cells : int array) (side : Cell.side) iw =
  let base = reserve b 1 in
  import_ints b src.side src.data (row_at src i) base src.width;
  import_ints b side cells 0 (base + src.width) iw;
  b.nrows <- b.nrows + 1

(** [push_join_sel b ~src i cells side sel] is {!push_join} with the
    extra cells picked by position ([cells.(sel.(j))] — column
    pruning). *)
let push_join_sel b ~(src : t) i (cells : int array) (side : Cell.side) (sel : int array) =
  let base = reserve b 1 in
  import_ints b src.side src.data (row_at src i) base src.width;
  let off = base + src.width and data = b.data in
  for j = 0 to Array.length sel - 1 do
    data.(off + j) <- Cell.import b.side side cells.(sel.(j))
  done;
  b.nrows <- b.nrows + 1

(** [push_pair b ~left i ~right j] appends row [i] of [left] followed
    by row [j] of [right] (a join output row). *)
let push_pair b ~(left : t) i ~(right : t) j =
  let base = reserve b 1 in
  import_ints b left.side left.data (row_at left i) base left.width;
  import_ints b right.side right.data (row_at right j) (base + left.width) right.width;
  b.nrows <- b.nrows + 1

(** Append row [i] of [src], right-padded with NULLs to this batch's
    width (the unmatched side of a left outer join). *)
let push_padded b ~(src : t) i =
  let base = reserve b 1 in
  import_ints b src.side src.data (row_at src i) base src.width;
  let data = b.data in
  for j = base + src.width to base + b.width - 1 do
    data.(j) <- Cell.null
  done;
  b.nrows <- b.nrows + 1

(** [add_row b] appends a row of NULLs and returns its index, for a
    caller that fills its cells with {!set_cell}. *)
let add_row b =
  let base = reserve b 1 in
  for j = base to base + b.width - 1 do
    b.data.(j) <- Cell.null
  done;
  b.nrows <- b.nrows + 1;
  b.nrows - 1

(** [set_cell b i j c] stores code [c], already in [b]'s context. *)
let[@inline] set_cell b i j c = b.data.((i * b.width) + j) <- c

(** Side buffer entries, to be given back by {!pop}. *)
let mark b = Cell.side_count b.side

(** Drop the last row, and the side values added since [mark] (a
    candidate row a residual rejected after it was written). *)
let pop b mark =
  b.nrows <- b.nrows - 1;
  b.side.Cell.n <- mark

(** In-place retain: [f] sees a view of each row in turn; rows for
    which it returns [false] are dropped, the rest compacted to the
    front (their codes and side slots unchanged). *)
let retain b (f : Expr_eval.row -> bool) =
  let v = view b in
  let w = b.width and data = b.data in
  let kept = ref 0 in
  if not b.shared then begin
    for i = 0 to b.nrows - 1 do
      v.Expr_eval.base <- i * w;
      if f v then begin
        if !kept <> i then copy_ints data (i * w) data (!kept * w) w;
        incr kept
      end
    done;
    b.nrows <- !kept
  end
  else begin
    (* Shared rows stay put: the kept ones move to arrays of [b]'s own. *)
    let out = create ~upto:b.nrows b.layout in
    for i = 0 to b.nrows - 1 do
      v.Expr_eval.base <- i * w;
      if f v then begin
        let base = reserve out 1 in
        import_ints out b.side data (i * w) base w;
        out.nrows <- out.nrows + 1
      end
    done;
    b.data <- out.data;
    b.side <- out.side;
    b.nrows <- out.nrows;
    b.shared <- false
  end

(** A new batch holding rows [idx.(0); idx.(1); ...] of [b], in that
    order (indices may repeat or be dropped). Only the side values of
    the rows taken are copied. *)
let permute b (idx : int array) =
  let n = Array.length idx and w = b.width in
  let out = create ~capacity:n b.layout in
  for k = 0 to n - 1 do
    import_ints out b.side b.data (row_at b idx.(k)) (k * w) w
  done;
  out.nrows <- n;
  out

(** [project b layout cols] is a new batch holding, for every row of
    [b], the cells at positions [cols] (in that order) under the given
    layout — the tight loop behind column-only projections. Only the
    side values of the cells taken are copied. *)
let project b (layout : Expr_eval.layout) (cols : int array) =
  let w = Array.length cols in
  if Array.length layout <> w then invalid_arg "Batch.project: width mismatch";
  let out = create ~capacity:b.nrows layout in
  let data = out.data and src = b.data in
  if Cell.side_count b.side = 0 then
    for i = 0 to b.nrows - 1 do
      let base = i * b.width and obase = i * w in
      for j = 0 to w - 1 do
        Array.unsafe_set data (obase + j) src.(base + cols.(j))
      done
    done
  else
    for i = 0 to b.nrows - 1 do
      let base = i * b.width and obase = i * w in
      for j = 0 to w - 1 do
        data.(obase + j) <- Cell.import out.side b.side src.(base + cols.(j))
      done
    done;
  out.nrows <- b.nrows;
  out

(** Append every row of [src] to [dst] (widths must match). *)
let append dst src =
  if src.width <> dst.width then invalid_arg "Batch.append: width mismatch";
  if src.nrows > 0 then begin
    let base = reserve dst src.nrows in
    import_ints dst src.side src.data 0 base (src.nrows * src.width);
    dst.nrows <- dst.nrows + src.nrows
  end

(** One batch holding the rows of [parts] in order — how parallel
    operators reassemble per-morsel outputs deterministically. *)
let concat (layout : Expr_eval.layout) (parts : t array) =
  let total = Array.fold_left (fun a p -> a + p.nrows) 0 parts in
  let out = create ~capacity:(max 1 total) layout in
  Array.iter (fun p -> append out p) parts;
  out

(** Iterate rows as fresh arrays of decoded values. *)
let iter (f : Value.t array -> unit) b =
  for i = 0 to b.nrows - 1 do
    f (Array.init b.width (fun j -> get b i j))
  done

let to_rows b = List.init b.nrows (fun i -> Array.init b.width (fun j -> get b i j))

let of_rows (layout : Expr_eval.layout) (rows : Value.t array list) =
  let b = create ~capacity:(List.length rows) layout in
  List.iter (fun r -> push_row b r) rows;
  b
