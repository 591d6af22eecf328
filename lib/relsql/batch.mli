(** Growable row batches: the executor's intermediate representation.

    A batch is a column layout plus one flat [int array] of cell codes
    ({!Cell}) holding rows contiguously (row-major), and a side buffer
    holding the boxed values of its side cells (strings, reals,
    out-of-range ints). Operators append rows with plain int stores;
    a side cell copied into another batch has its value appended to the
    target's buffer, so every batch owns its buffer. Ownership is
    linear: each batch has a single consumer, which may mutate it in
    place — except that a batch kept for reuse is {!share}d: its
    holders read the same arrays, and the first write through any of
    them copies first. *)

type t

(** [create ?capacity ?upto layout] is an empty batch of rows shaped by
    [layout]. [capacity] is a row-count hint; [upto] instead bounds an
    output of unknown size, which then starts small enough for the
    minor heap and grows. *)
val create : ?capacity:int -> ?upto:int -> Expr_eval.layout -> t

val layout : t -> Expr_eval.layout

(** Cells per row (the layout's length; may be 0). *)
val width : t -> int

(** Number of rows. *)
val length : t -> int

(** The context the batch's side codes index. *)
val side : t -> Cell.side

val column_names : t -> string list

(** Same rows, re-qualified columns (subquery aliasing). Shares the data
    array; the original batch must not be used afterwards. *)
val with_layout : t -> Expr_eval.layout -> t

(** [share b] marks [b] shared and returns another holder of its rows
    (for a cache or a CTE): neither copies anything until it is
    written. *)
val share : t -> t

(** [cell b i j] is the code of cell [j] of row [i] (unchecked); a side
    code indexes {!side}. *)
val cell : t -> int -> int -> Cell.t

(** [get b i j] is cell [j] of row [i], decoded. *)
val get : t -> int -> int -> Value.t

(** A view of row 0 of the batch, for {!point}. *)
val view : t -> Expr_eval.row

(** [point v b i] aims view [v] at row [i] of [b] (re-reading the data
    array, which appending rows may have replaced). *)
val point : Expr_eval.row -> t -> int -> unit

(** Append a row of values, encoded into the batch's codes. *)
val push_row : t -> Value.t array -> unit

(** [push_cells b cells side] appends the row held in the first
    [width] codes of [cells], read in context [side] (which may be a
    shared scratch — the batch never retains either). *)
val push_cells : t -> Cell.t array -> Cell.side -> unit

(** [push_sel b cells side sel] appends the row whose cell [j] is
    [cells.(sel.(j))] (a column-pruned copy). *)
val push_sel : t -> Cell.t array -> Cell.side -> int array -> unit

(** [push_join b ~src i cells side iw] appends row [i] of [src]
    followed by the first [iw] codes of [cells] (fused index-join
    output). *)
val push_join : t -> src:t -> int -> Cell.t array -> Cell.side -> int -> unit

(** [push_join_sel b ~src i cells side sel] is {!push_join} with the
    extra cells picked by position ([cells.(sel.(j))] — column
    pruning). *)
val push_join_sel : t -> src:t -> int -> Cell.t array -> Cell.side -> int array -> unit

(** [push_pair b ~left i ~right j] appends row [i] of [left] followed by
    row [j] of [right]. *)
val push_pair : t -> left:t -> int -> right:t -> int -> unit

(** Append row [i] of [src], right-padded with NULLs to this batch's
    width (left-outer null fill). *)
val push_padded : t -> src:t -> int -> unit

(** Append a row of NULLs and return its index, for {!set_cell}. *)
val add_row : t -> int

(** [set_cell b i j c] stores code [c], which must already be in [b]'s
    context (see {!Cell.import} and {!Cell.encode} with {!side}). *)
val set_cell : t -> int -> int -> Cell.t -> unit

(** The side buffer's size, to hand back to {!pop}. *)
val mark : t -> int

(** [pop b m] drops the last row and the side values added since
    [mark b] returned [m]. *)
val pop : t -> int -> unit

(** In-place retain: the predicate sees a view of each row; rows mapped
    to [false] are dropped and the rest compacted (into arrays of its
    own when the batch is shared). *)
val retain : t -> (Expr_eval.row -> bool) -> unit

(** A new batch holding the rows selected by the index array, in that
    order (indices may repeat or be dropped). *)
val permute : t -> int array -> t

(** [project b layout cols] is a new batch holding, for every row, the
    cells at positions [cols] (in that order) under [layout]. *)
val project : t -> Expr_eval.layout -> int array -> t

(** Append every row of the second batch to the first (equal widths). *)
val append : t -> t -> unit

(** One batch holding the rows of the given batches in order — how
    parallel operators reassemble per-morsel outputs deterministically. *)
val concat : Expr_eval.layout -> t array -> t

(** Iterate rows as fresh arrays of decoded values. *)
val iter : (Value.t array -> unit) -> t -> unit

(** Materialize as a list of decoded row arrays. *)
val to_rows : t -> Value.t array list

val of_rows : Expr_eval.layout -> Value.t array list -> t
