(** SQL values.

    The engine is dynamically typed: every cell holds a {!t}. [Null] is the
    SQL NULL and participates in three-valued logic (see {!Expr_eval}).
    [Lid] is a distinct identifier space used by the DB2RDF layer for the
    multi-value indirection between the primary (DPH/RPH) and secondary
    (DS/RS) hash relations; keeping it distinct from [Int] prevents an
    RDF-term id from ever colliding with a list id. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Real of float
  | Str of string
  | Lid of int

(** The type rank {!compare} orders values of different types by. *)
let rank = function
  | Null -> 0 | Bool _ -> 1 | Int _ -> 2 | Real _ -> 3 | Str _ -> 4
  | Lid _ -> 5

(** Total order over values, used by indexes, DISTINCT and ORDER BY.
    NULLs sort first; values of different runtime types are ordered by a
    fixed type rank. This ordering is only for data structures — SQL
    comparison semantics (where NULL is incomparable) live in
    {!Expr_eval}. *)
let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Real x, Real y -> Stdlib.compare x y
  | Str x, Str y -> String.compare x y
  | Lid x, Lid y -> Stdlib.compare x y
  | (Null | Bool _ | Int _ | Real _ | Str _ | Lid _), _ ->
    Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> Hashtbl.hash i
  | Real r -> Hashtbl.hash r
  | Str s -> Hashtbl.hash s
  | Lid i -> Hashtbl.hash (i, 'l')

let is_null = function Null -> true | _ -> false

(** Render a value as a SQL literal. Strings are single-quoted with
    quote doubling; [Lid] ids render as [lid:<n>] (informational — the
    SQL parser also accepts this form). *)
let to_string = function
  | Null -> "NULL"
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"
  | Int i -> string_of_int i
  | Real r -> Printf.sprintf "%g" r
  | Str s ->
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '\'';
    String.iter
      (fun c -> if c = '\'' then Buffer.add_string b "''" else Buffer.add_char b c)
      s;
    Buffer.add_char b '\'';
    Buffer.contents b
  | Lid i -> Printf.sprintf "lid:%d" i

let pp fmt v = Format.pp_print_string fmt (to_string v)

(** Approximate on-disk size in bytes of a value under the
    value-compression storage model used for the Section 2.3 NULL
    experiment: NULLs are elided entirely (their presence is carried by
    the per-row null bitmap accounted in {!Table.storage_size}),
    fixed-width types cost their width plus a presence byte, strings
    their length plus a two-byte length header. *)
let storage_size = function
  | Null -> 0
  | Bool _ -> 2
  | Int _ -> 9
  | Real _ -> 9
  | Lid _ -> 9
  | Str s -> 3 + String.length s

(** Numeric view used by arithmetic and ordered comparisons. *)
let as_float = function
  | Int i -> Some (float_of_int i)
  | Real r -> Some r
  | Bool _ | Null | Str _ | Lid _ -> None
