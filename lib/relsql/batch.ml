(** Growable row batches: the executor's intermediate representation.

    A batch is a column layout plus a single flat [Value.t array] holding
    rows contiguously (row-major). Operators fill batches by blitting
    whole rows, so the per-row cost of an operator is a handful of array
    writes instead of a list cons and a fresh array allocation per
    candidate row. Ownership is linear: a batch produced by one operator
    is consumed by exactly one parent, which may mutate it in place
    (see {!retain} and {!permute}). *)

type t = {
  layout : Expr_eval.layout;
  width : int;
  mutable data : Value.t array;  (* row-major; capacity = length / width *)
  mutable nrows : int;
}

let create ?(capacity = 16) (layout : Expr_eval.layout) =
  let width = Array.length layout in
  let capacity = max 1 capacity in
  { layout; width; data = Array.make (capacity * width) Value.Null; nrows = 0 }

let layout b = b.layout
let width b = b.width
let length b = b.nrows

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
let min_grow_cells = 256

let grow b needed =
  let cap = max needed (max min_grow_cells (2 * Array.length b.data)) in
  let bigger = Array.make cap Value.Null in
  Array.blit b.data 0 bigger 0 (b.nrows * b.width);
  b.data <- bigger

let ensure_room b =
  let needed = (b.nrows + 1) * b.width in
  if needed > Array.length b.data then grow b needed

(* Room for [extra] more rows in one reallocation (bulk appends). *)
let ensure_room_for b extra =
  let needed = (b.nrows + extra) * b.width in
  if needed > Array.length b.data then grow b needed

(** Append a row by copying [width] cells from [src] (which may be a
    shared scratch array — the batch never retains it). *)
let push_row b (src : Value.t array) =
  ensure_room b;
  Array.blit src 0 b.data (b.nrows * b.width) b.width;
  b.nrows <- b.nrows + 1

(** [push_sel b src sel] appends the row whose cell [j] is
    [src.(sel.(j))] (a column-pruned copy). *)
let push_sel b (src : Value.t array) (sel : int array) =
  ensure_room b;
  let base = b.nrows * b.width in
  for j = 0 to Array.length sel - 1 do
    b.data.(base + j) <- src.(sel.(j))
  done;
  b.nrows <- b.nrows + 1

let get b i j = b.data.((i * b.width) + j)

let set b i j v = b.data.((i * b.width) + j) <- v

(** Copy row [i] into [dst] starting at [dstoff]. *)
let blit_row b i (dst : Value.t array) dstoff =
  Array.blit b.data (i * b.width) dst dstoff b.width

let row_copy b i = Array.sub b.data (i * b.width) b.width

(** In-place retain: [f] is called with a scratch array holding each row
    in turn; rows for which it returns [false] are dropped, the rest are
    compacted to the front. *)
let retain b (f : Value.t array -> bool) =
  let scratch = Array.make b.width Value.Null in
  let kept = ref 0 in
  for i = 0 to b.nrows - 1 do
    blit_row b i scratch 0;
    if f scratch then begin
      if !kept <> i then
        Array.blit b.data (i * b.width) b.data (!kept * b.width) b.width;
      incr kept
    end
  done;
  b.nrows <- !kept

(** A new batch holding rows [idx.(0); idx.(1); ...] of [b], in that
    order (indices may repeat or be dropped). *)
let permute b (idx : int array) =
  let out = create ~capacity:(Array.length idx) b.layout in
  Array.iter
    (fun i ->
      ensure_room out;
      Array.blit b.data (i * b.width) out.data (out.nrows * out.width) out.width;
      out.nrows <- out.nrows + 1)
    idx;
  out

(** An independent copy (fresh data array, exact capacity). *)
let copy b = { b with data = Array.sub b.data 0 (b.nrows * b.width) }

(** [project b layout cols] is a new batch holding, for every row of
    [b], the cells at positions [cols] (in that order) under the given
    layout — the tight loop behind column-only projections. *)
let project b (layout : Expr_eval.layout) (cols : int array) =
  let w = Array.length cols in
  if Array.length layout <> w then invalid_arg "Batch.project: width mismatch";
  let out = create ~capacity:(max 1 b.nrows) layout in
  let data = out.data in
  for i = 0 to b.nrows - 1 do
    let base = i * b.width and obase = i * w in
    for j = 0 to w - 1 do
      data.(obase + j) <- b.data.(base + cols.(j))
    done
  done;
  out.nrows <- b.nrows;
  out

(** [push_join b ~src i extra iw] appends row [i] of [src] followed by
    the first [iw] cells of [extra] — an index-join output row written
    straight into the batch, with no intermediate scratch row. *)
let push_join b ~(src : t) i (extra : Value.t array) iw =
  ensure_room b;
  let base = b.nrows * b.width in
  Array.blit src.data (i * src.width) b.data base src.width;
  Array.blit extra 0 b.data (base + src.width) iw;
  b.nrows <- b.nrows + 1

(** [push_join_sel b ~src i extra sel] is {!push_join} with the extra
    cells picked by position: cell [j] comes from [extra.(sel.(j))]
    (column-pruned index-join output). *)
let push_join_sel b ~(src : t) i (extra : Value.t array) (sel : int array) =
  ensure_room b;
  let base = b.nrows * b.width in
  Array.blit src.data (i * src.width) b.data base src.width;
  let off = base + src.width in
  for j = 0 to Array.length sel - 1 do
    b.data.(off + j) <- extra.(sel.(j))
  done;
  b.nrows <- b.nrows + 1

(** Append row [i] of [src], right-padded with NULLs to this batch's
    width (the unmatched side of a left outer join). *)
let push_padded b ~(src : t) i =
  ensure_room b;
  let base = b.nrows * b.width in
  Array.blit src.data (i * src.width) b.data base src.width;
  Array.fill b.data (base + src.width) (b.width - src.width) Value.Null;
  b.nrows <- b.nrows + 1

(** Append every row of [src] to [dst] (widths must match). Rows are
    contiguous in both batches, so this is one capacity check and one
    blit, not a per-row loop. *)
let append dst src =
  if src.width <> dst.width then invalid_arg "Batch.append: width mismatch";
  if src.nrows > 0 then begin
    ensure_room_for dst src.nrows;
    Array.blit src.data 0 dst.data (dst.nrows * dst.width)
      (src.nrows * src.width);
    dst.nrows <- dst.nrows + src.nrows
  end

(** One batch holding the rows of [parts] in order — how parallel
    operators reassemble per-morsel outputs deterministically. *)
let concat (layout : Expr_eval.layout) (parts : t array) =
  let total = Array.fold_left (fun a p -> a + p.nrows) 0 parts in
  let out = create ~capacity:(max 1 total) layout in
  Array.iter (fun p -> append out p) parts;
  out

let iter (f : Value.t array -> unit) b =
  let scratch = Array.make b.width Value.Null in
  for i = 0 to b.nrows - 1 do
    blit_row b i scratch 0;
    f scratch
  done

let to_rows b = List.init b.nrows (fun i -> row_copy b i)

let of_rows (layout : Expr_eval.layout) (rows : Value.t array list) =
  let b = create ~capacity:(List.length rows) layout in
  List.iter (fun r -> push_row b r) rows;
  b
