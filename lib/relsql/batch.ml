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
    by exactly one parent, which may mutate it in place (see {!retain}).
    A batch kept for reuse — a scan-cache entry, a CTE result — is
    {!share}d instead of copied: its holders read the same arrays, and
    the first mutation through any of them copies first. *)

type t = {
  layout : Expr_eval.layout;
  width : int;
  mutable data : int array;  (* row-major; capacity = length / width *)
  mutable nrows : int;
  mutable side : Cell.side;
  mutable shared : bool;  (* [data] and [side] may have other holders *)
}

(* Cells an array may have and still be allocated in the minor heap. *)
let young_cells = 256

let create ?(capacity = 16) ?upto (layout : Expr_eval.layout) =
  let width = Array.length layout in
  (* An output of unknown size, at most [upto] rows, starts in the minor
     heap: a selective operator's first array would otherwise be a
     major-heap block that is mostly never filled. *)
  let capacity =
    match upto with Some n -> min n (young_cells / max 1 width) | None -> capacity
  in
  let capacity = max 1 capacity in
  { layout; width; data = Array.make (capacity * width) Cell.null; nrows = 0;
    side = Cell.side (); shared = false }

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

let grow b needed =
  let cap = max needed (max min_grow_cells (2 * Array.length b.data)) in
  let bigger = Array.make cap Cell.null in
  copy_ints b.data 0 bigger 0 (b.nrows * b.width);
  b.data <- bigger

(* Give a shared batch arrays of its own before it is written. *)
let detach b =
  let n = b.nrows * b.width in
  let data = Array.make (max 1 n) Cell.null in
  copy_ints b.data 0 data 0 n;
  b.data <- data;
  b.side <- Cell.copy b.side;
  b.shared <- false

(** A holder of [b]'s rows that shares its arrays: [b] and the result
    both read them, and either copies them before its first write. *)
let share b =
  b.shared <- true;
  { b with shared = true }

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

(** [push_join b ~src i cells side iw] appends row [i] of [src]
    followed by the first [iw] codes of [cells] (context [side]) — an
    index-join output row written straight into the batch. *)
let push_join b ~(src : t) i (cells : int array) (side : Cell.side) iw =
  let base = reserve b 1 in
  import_ints b src.side src.data (i * src.width) base src.width;
  import_ints b side cells 0 (base + src.width) iw;
  b.nrows <- b.nrows + 1

(** [push_join_sel b ~src i cells side sel] is {!push_join} with the
    extra cells picked by position ([cells.(sel.(j))] — column
    pruning). *)
let push_join_sel b ~(src : t) i (cells : int array) (side : Cell.side) (sel : int array) =
  let base = reserve b 1 in
  import_ints b src.side src.data (i * src.width) base src.width;
  let off = base + src.width and data = b.data in
  for j = 0 to Array.length sel - 1 do
    data.(off + j) <- Cell.import b.side side cells.(sel.(j))
  done;
  b.nrows <- b.nrows + 1

(** [push_pair b ~left i ~right j] appends row [i] of [left] followed
    by row [j] of [right] (a join output row). *)
let push_pair b ~(left : t) i ~(right : t) j =
  let base = reserve b 1 in
  import_ints b left.side left.data (i * left.width) base left.width;
  import_ints b right.side right.data (j * right.width) (base + left.width) right.width;
  b.nrows <- b.nrows + 1

(** Append row [i] of [src], right-padded with NULLs to this batch's
    width (the unmatched side of a left outer join). *)
let push_padded b ~(src : t) i =
  let base = reserve b 1 in
  import_ints b src.side src.data (i * src.width) base src.width;
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
    import_ints out b.side b.data (idx.(k) * w) (k * w) w
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
