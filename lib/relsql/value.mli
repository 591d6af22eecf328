(** SQL values.

    The engine is dynamically typed: every cell holds a {!t}. [Null] is
    the SQL NULL and participates in three-valued logic (see
    {!Expr_eval}). [Lid] is a distinct identifier space used by the
    DB2RDF layer for the multi-value indirection between the primary
    (DPH/RPH) and secondary (DS/RS) hash relations; keeping it distinct
    from [Int] prevents an RDF-term id from ever colliding with a list
    id. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Real of float
  | Str of string
  | Lid of int

(** The type rank {!compare} orders values of different types by:
    Null 0, Bool 1, Int 2, Real 3, Str 4, Lid 5. *)
val rank : t -> int

(** Total order over values, used by indexes, DISTINCT and ORDER BY.
    NULLs sort first; values of different runtime types are ordered by a
    fixed type rank. This ordering is only for data structures — SQL
    comparison semantics (where NULL is incomparable) live in
    {!Expr_eval}. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val hash : t -> int
val is_null : t -> bool

(** Render a value as a SQL literal. Strings are single-quoted with
    quote doubling; [Lid] ids render as [lid:<n>]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Approximate on-disk size in bytes under the value-compression
    storage model of the Section 2.3 NULL experiment. NULLs are free
    (the per-row null bitmap in {!Table.storage_size} carries them). *)
val storage_size : t -> int

(** Numeric view used by arithmetic and ordered comparisons. *)
val as_float : t -> float option
