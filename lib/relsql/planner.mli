(** Physical planning: turns a {!Sql_ast.query} into an executable plan.

    This is the "35 years of relational optimization" stand-in: it picks
    access paths (hash-index lookup vs sequential scan), join strategies
    (index nested-loop when the inner side is an indexed base table,
    hash join on equality keys, nested loop otherwise), and pushes WHERE
    conjuncts to the earliest join input where they can be evaluated
    without changing LEFT OUTER JOIN semantics. The DB2RDF translator
    relies on this layer behaving like a production optimizer: a star
    query against DPH must become one index probe, not a scan. *)

type plan =
  | Scan of {
      table : string;
      alias : string;
      filter : Sql_ast.expr option;
      cols : string list option;
          (** columns that survive into the output row ([None] = all);
              the filter still sees the full row — fused
              selection/projection *)
    }
  | Index_lookup of {
      table : string;
      alias : string;
      col : string;
      keys : Value.t list;
      filter : Sql_ast.expr option;
      cols : string list option;
    }
  | Values_rows of {
      rows : Sql_ast.expr list list;
      alias : string;
      cols : string list;
    }
  | Subplan of { plan : plan; alias : string }
      (** Re-qualify a subquery's output columns under [alias]. *)
  | Inl_join of {
      outer : plan;
      table : string;
      alias : string;
      col : string;
      key : Sql_ast.expr;  (** evaluated against each outer row *)
      kind : Sql_ast.join_kind;
      residual : Sql_ast.expr option;
      cols : string list option;
          (** inner-table columns kept in the output row ([None] = all);
              an inner-only residual still sees the full table row *)
    }
  | Hash_join of {
      left : plan;
      right : plan;
      left_keys : Sql_ast.expr list;
      right_keys : Sql_ast.expr list;
      kind : Sql_ast.join_kind;
      residual : Sql_ast.expr option;
    }
  | Nl_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      cond : Sql_ast.expr option;
    }
  | Values_join of {
      outer : plan;
      rows : Sql_ast.expr list list;
      alias : string;
      cols : string list;
    }
  | Wcoj of {
      atoms : Wcoj.atom list;  (** one per table alias, in FROM order *)
      var_order : int array;
          (** global intersection order over join-variable classes —
              a pure function of the statement, so the same SQL always
              yields the same emission order *)
      n_vars : int;
      outputs : (string * string * int) list;
          (** (alias, column, variable) — every class member column, so
              any downstream qualified reference resolves *)
      est_rows : int;  (** selector's output-cardinality estimate *)
    }
      (** Leapfrog multiway join: intersects all atoms sharing each
          join variable at once instead of chaining binary joins —
          worst-case-optimal on cyclic regions. Planned only when the
          database's WCOJ knob is set and its installed selector opts
          in (see {!Database.set_wcoj_selector}). *)
  | Extvp_scan of { input : plan; name : string }
      (** Marker around an access path reading a semi-join reduction
          ({!Extvp}) instead of the base relation: execution is the
          wrapped plan's, but the substitution — and its est-vs-actual
          q-error — stays visible in EXPLAIN. *)
  | Filter of plan * Sql_ast.expr
  | Project of {
      input : plan;
      items : (Sql_ast.expr * string) list;
      distinct : bool;
      order_by : Sql_ast.order_item list;
      limit : int option;
      offset : int option;
    }
  | Aggregate of {
      input : plan;
      keys : Sql_ast.expr list;  (** GROUP BY ([] = one global group) *)
      items : agg_item list;
      distinct : bool;
      order_by : Sql_ast.order_item list;
      limit : int option;
      offset : int option;
    }
  | Union_plan of { all : bool; parts : plan list }
  | Empty_row  (** SELECT without FROM: one row, no columns *)

and agg_item =
  | Ai_plain of Sql_ast.expr * string
      (** a grouped column (evaluated on each group's first row) *)
  | Ai_agg of Sql_ast.agg_fun * Sql_ast.expr option * bool * string
      (** aggregate, argument ([None] = star), DISTINCT flag, name *)

(** Plan a query against the catalog. [ctes] names the statement's CTEs
    in scope (default none): such a name shadows a same-named table, is
    unindexed, is never a leapfrog atom, and estimates as 0 rows. *)
val plan_query : ?ctes:string list -> Database.t -> Sql_ast.query -> plan

(** Plan a statement: each CTE against the catalog plus the CTEs bound
    before it, then the body against all of them. Returns the CTEs as
    (name, CTE names in scope, plan), in order, and the body as (CTE
    names in scope, plan). *)
val plan_stmt :
  Database.t -> Sql_ast.stmt ->
  (string * string list * plan) list * (string list * plan)

(** Crude output-cardinality estimate of a plan (rows), with [ctes] in
    scope as in {!plan_query}. Exact for base tables, textbook fudge
    factors above; an analyzed run records it per operator so EXPLAIN
    ANALYZE can report estimated-vs-actual (q-error). *)
val estimate : ?ctes:string list -> Database.t -> plan -> int

(** One-line operator description (no children) — shared by the plan
    printer and the {!Opstats} labels of EXPLAIN ANALYZE. *)
val node_label : plan -> string

(** Immediate inputs of a plan node, in plan order. *)
val children : plan -> plan list

(** Indented plan rendering for explain output. *)
val plan_to_string : plan -> string
