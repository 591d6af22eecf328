(** Abstract syntax of the SQL dialect the engine evaluates.

    This is the target language of the DB2RDF SPARQL-to-SQL translator
    (Section 3.2 of the paper) and of the baseline translators. It covers
    exactly the constructs those translators emit: SELECT with WHERE,
    INNER and LEFT OUTER joins, UNION [ALL], WITH (common table
    expressions), CASE / COALESCE / IN, lateral VALUES unnest (the
    [TABLE(T.valm, T.val0)] "flip" of Figure 13), DISTINCT, ORDER BY and
    LIMIT/OFFSET. *)

type binop =
  | Eq | Neq | Lt | Leq | Gt | Geq
  | And | Or
  | Add | Sub | Mul | Div
  | Concat

type agg_fun = A_count | A_sum | A_avg | A_min | A_max

type expr =
  | Const of Value.t
  | Col of string option * string
      (** [Col (Some "T", "entry")] is [T.entry]; [Col (None, "x")] is an
          unqualified reference resolved against the visible columns. *)
  | Binop of binop * expr * expr
  | Not of expr
  | Is_null of expr
  | Is_not_null of expr
  | Case of (expr * expr) list * expr option
      (** [CASE WHEN c1 THEN e1 ... ELSE e END]; [None] means no ELSE
          (yields NULL). *)
  | Coalesce of expr list
  | In_list of expr * Value.t list
  | Like of expr * string  (** SQL LIKE with [%] and [_] wildcards. *)
  | Agg of agg_fun * expr option * bool
      (** Aggregate call: [Agg (A_count, None, _)] is count-star;
          [Agg (f, Some e, distinct)] is [f(DISTINCT? e)]. Only valid in
          the select list of a query with (possibly empty) GROUP BY. *)

type select_item = { expr : expr; alias : string option }

type order_item = { sort_expr : expr; asc : bool }

type from_item =
  | From_table of { table : string; alias : string }
  | From_subquery of { query : query; alias : string }
  | From_values of { rows : expr list list; alias : string; cols : string list }
      (** Lateral VALUES: row expressions may reference columns of
          from-items to the left (this is how the translator unpivots the
          pred/val column pairs of an OR-merged star). *)

and join = { kind : join_kind; item : from_item; on : expr option }

and join_kind = Inner | Left_outer

and select = {
  distinct : bool;
  items : select_item list;
  from : from_item option;
  joins : join list;
  where : expr option;
  group_by : expr list;
      (** non-empty, or any {!Agg} item, makes this an aggregate query *)
  order_by : order_item list;
  limit : int option;
  offset : int option;
}

and query =
  | Select of select
  | Union of { all : bool; parts : query list }

(** A full statement: WITH bindings (evaluated in order, each visible to
    the next) and a body. *)
type stmt = { ctes : (string * query) list; body : query }

let empty_select =
  { distinct = false; items = []; from = None; joins = []; where = None;
    group_by = []; order_by = []; limit = None; offset = None }

let col ?table name = Col (table, name)
let str s = Const (Value.Str s)
let int i = Const (Value.Int i)
let eq a b = Binop (Eq, a, b)

(** Conjunction that collapses absent operands. *)
let conj_opt a b =
  match a, b with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Binop (And, a, b))

let conj_list = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc x -> Binop (And, acc, x)) e rest)

let disj_list = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc x -> Binop (Or, acc, x)) e rest)

let stmt ?(ctes = []) body = { ctes; body }

(** Fold [f] over the (qualifier, name) of every column an expression
    references, left to right (used by the planner for pushdown and
    pruning decisions). *)
let rec fold_columns f acc = function
  | Const _ -> acc
  | Col (q, n) -> f acc q n
  | Binop (_, a, b) -> fold_columns f (fold_columns f acc a) b
  | Not e | Is_null e | Is_not_null e | Like (e, _) | In_list (e, _)
  | Agg (_, Some e, _) -> fold_columns f acc e
  | Agg (_, None, _) -> acc
  | Case (whens, els) ->
    let acc =
      List.fold_left
        (fun acc (c, e) -> fold_columns f (fold_columns f acc c) e)
        acc whens
    in
    Option.fold ~none:acc ~some:(fold_columns f acc) els
  | Coalesce es -> List.fold_left (fold_columns f) acc es

(** Split a WHERE expression into its top-level AND conjuncts. *)
let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]
