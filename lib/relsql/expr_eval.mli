(** Scalar expression evaluation with SQL three-valued logic.

    Expressions are compiled once against a column layout (the ordered
    visible columns of the operator's input) into closures over a
    {!row} view of cell codes ({!Cell}), so per-row evaluation does no
    name resolution and reads a batch's rows in place. Comparisons,
    IS NULL, IN, CASE and COALESCE over columns and inline constants
    compare codes; only side cells and computed values are decoded. *)

(** Visible columns of an intermediate row: cell [i] of a row holds the
    column described by [layout.(i)] (qualifier, name). *)
type layout = (string option * string) array

(** A row view: cell [j] of the row is [cells.(base + j)], and its side
    cells index [side]. Operators point one view at successive rows. A
    view of a boxed table row sets [values] instead: cell [j] is then
    [values.(j)], encoded into [side] only when an expression reads it. *)
type row = {
  mutable cells : int array;
  mutable base : int;
  mutable side : Cell.side;
  mutable values : Value.t array;  (** [[||]] unless the row is boxed *)
}

(** A view of no row, with an empty side buffer of its own. *)
val view : unit -> row

(** A view of a row of values, encoded into a fresh side buffer. *)
val row_of_values : Value.t array -> row

exception Unknown_column of string

(** Resolve a column reference against a layout. A qualified reference
    must match qualifier and name; an unqualified one matches by name
    and must be unambiguous. Raises {!Unknown_column}. *)
val resolve : layout -> string option * string -> int

(** Kleene connectives over SQL booleans (Unknown = [Value.Null]). *)
val sql_not : Value.t -> Value.t

val sql_and : Value.t -> Value.t -> Value.t
val sql_or : Value.t -> Value.t -> Value.t

(** Compile an expression into a closure over rows shaped by [layout].
    Raises {!Unknown_column} at compile time for unresolvable columns
    and [Invalid_argument] on aggregate expressions (those only live in
    aggregate select lists, handled by the executor). *)
val compile : layout -> Sql_ast.expr -> row -> Value.t

(** How an operand is read: as a cell of the row's own context — a
    column, an inline constant, or a CASE/COALESCE choosing among such,
    so the caller can copy codes instead of values — or as a computed
    value ({!compile}). *)
type operand = Code of (row -> Cell.t) | Value of (row -> Value.t)

val operand : layout -> Sql_ast.expr -> operand

(** A compiled predicate: true only when the expression evaluates to SQL
    TRUE (Unknown filters the row out). *)
val compile_pred : layout -> Sql_ast.expr -> row -> bool

(** Evaluate a closed expression (no column references). *)
val eval_const : Sql_ast.expr -> Value.t

(** The distinct columns the expression reads, unresolved. *)
val column_refs : Sql_ast.expr -> (string option * string) list
