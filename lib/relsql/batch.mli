(** Growable row batches: the executor's intermediate representation.

    A batch is a column layout plus one flat [Value.t array] holding rows
    contiguously (row-major). Operators append rows by blitting from a
    scratch array, so a candidate row costs a few array writes rather
    than a list cons plus a fresh allocation. Ownership is linear: each
    batch has a single consumer, which may mutate it in place. *)

type t

(** [create ?capacity layout] is an empty batch of rows shaped by
    [layout]. [capacity] is a row-count hint. *)
val create : ?capacity:int -> Expr_eval.layout -> t

val layout : t -> Expr_eval.layout

(** Cells per row (the layout's length; may be 0). *)
val width : t -> int

(** Number of rows. *)
val length : t -> int

val column_names : t -> string list

(** Same rows, re-qualified columns (subquery aliasing). Shares the data
    array; the original batch must not be used afterwards. *)
val with_layout : t -> Expr_eval.layout -> t

(** Append a row by copying [width] cells from the given array (which
    may be a shared scratch — the batch never retains it). *)
val push_row : t -> Value.t array -> unit

(** [push_sel b src sel] appends the row whose cell [j] is
    [src.(sel.(j))] (a column-pruned copy). *)
val push_sel : t -> Value.t array -> int array -> unit

(** [get b i j] is cell [j] of row [i] (unchecked). *)
val get : t -> int -> int -> Value.t

val set : t -> int -> int -> Value.t -> unit

(** [blit_row b i dst off] copies row [i] into [dst] at [off]. *)
val blit_row : t -> int -> Value.t array -> int -> unit

(** Fresh copy of row [i]. *)
val row_copy : t -> int -> Value.t array

(** In-place retain: the predicate sees each row via a reused scratch
    array; rows mapped to [false] are dropped and the rest compacted. *)
val retain : t -> (Value.t array -> bool) -> unit

(** A new batch holding the rows selected by the index array, in that
    order (indices may repeat or be dropped). *)
val permute : t -> int array -> t

(** An independent copy (fresh data array). *)
val copy : t -> t

(** [project b layout cols] is a new batch holding, for every row, the
    cells at positions [cols] (in that order) under [layout]. *)
val project : t -> Expr_eval.layout -> int array -> t

(** [push_join b ~src i extra iw] appends row [i] of [src] followed by
    the first [iw] cells of [extra] (fused index-join output). *)
val push_join : t -> src:t -> int -> Value.t array -> int -> unit

(** [push_join_sel b ~src i extra sel] is {!push_join} with the extra
    cells picked by position ([extra.(sel.(j))] — column pruning). *)
val push_join_sel : t -> src:t -> int -> Value.t array -> int array -> unit

(** Append row [i] of [src], right-padded with NULLs to this batch's
    width (left-outer null fill). *)
val push_padded : t -> src:t -> int -> unit

(** Append every row of the second batch to the first (equal widths). *)
val append : t -> t -> unit

(** One batch holding the rows of the given batches in order — how
    parallel operators reassemble per-morsel outputs deterministically. *)
val concat : Expr_eval.layout -> t array -> t

(** Iterate rows through a reused scratch array (do not retain it). *)
val iter : (Value.t array -> unit) -> t -> unit

(** Materialize as a list of fresh row arrays (compatibility/decoding). *)
val to_rows : t -> Value.t array list

val of_rows : Expr_eval.layout -> Value.t array list -> t
