(** Physical planning: turns a {!Sql_ast.query} into an executable plan.

    This is the "35 years of relational optimization" stand-in: it picks
    access paths (hash-index lookup vs sequential scan), join strategies
    (index nested-loop when the inner side is an indexed base table,
    hash join on equality keys, nested loop otherwise), and pushes WHERE
    conjuncts to the earliest join input where they can be evaluated
    without changing LEFT OUTER JOIN semantics. The DB2RDF translator
    relies on this layer behaving like a production optimizer: a star
    query against DPH must become one index probe, not a scan. *)

open Sql_ast

type plan =
  | Scan of {
      table : string;
      alias : string;
      filter : expr option;
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
      filter : expr option;
      cols : string list option;
    }
  | Values_rows of { rows : expr list list; alias : string; cols : string list }
  | Subplan of { plan : plan; alias : string }
      (** Re-qualify a subquery's output columns under [alias]. *)
  | Inl_join of {
      outer : plan;
      table : string;
      alias : string;
      col : string;
      key : expr;  (** evaluated against each outer row *)
      kind : join_kind;
      residual : expr option;
      cols : string list option;
          (** inner-table columns kept in the output row ([None] = all);
              an inner-only residual still sees the full table row *)
    }
  | Hash_join of {
      left : plan;
      right : plan;
      left_keys : expr list;
      right_keys : expr list;
      kind : join_kind;
      residual : expr option;
    }
  | Nl_join of { left : plan; right : plan; kind : join_kind; cond : expr option }
  | Values_join of {
      outer : plan;
      rows : expr list list;
      alias : string;
      cols : string list;
    }
  | Wcoj of {
      atoms : Wcoj.atom list;  (** one per table alias, in FROM order *)
      var_order : int array;
          (** global intersection order over join-variable classes:
              most-constrained (most atoms) first, ties by class id —
              a pure function of the statement, so the same SQL always
              yields the same emission order *)
      n_vars : int;
      outputs : (string * string * int) list;
          (** (alias, column, variable) — every class member column, so
              any downstream qualified reference resolves; pruning
              narrows this list *)
      est_rows : int;  (** selector's output-cardinality estimate *)
    }
      (** Leapfrog multiway join: intersects all atoms sharing each
          join variable at once instead of chaining binary joins —
          worst-case-optimal on cyclic regions. *)
  | Extvp_scan of { input : plan; name : string }
      (** Marker around an access path that reads a semi-join reduction
          ({!Extvp}) instead of the base relation: execution is the
          wrapped plan's, but the substitution — and its est-vs-actual
          q-error — stays visible in EXPLAIN. *)
  | Filter of plan * expr
  | Project of {
      input : plan;
      items : (expr * string) list;
      distinct : bool;
      order_by : order_item list;
      limit : int option;
      offset : int option;
    }
  | Aggregate of {
      input : plan;
      keys : expr list;  (** GROUP BY expressions ([] = one global group) *)
      items : agg_item list;  (** output columns, in select order *)
      distinct : bool;
      order_by : order_item list;
      limit : int option;
      offset : int option;
    }
  | Union_plan of { all : bool; parts : plan list }
  | Empty_row  (** SELECT without FROM: one row, no columns *)

and agg_item =
  | Ai_plain of expr * string
      (** a grouped column (SQL requires it to appear in GROUP BY;
          evaluated on each group's first row) *)
  | Ai_agg of agg_fun * expr option * bool * string
      (** aggregate function, argument ([None] = star), DISTINCT flag,
          output name *)

(* ------------------------------------------------------------------ *)
(* Alias bookkeeping                                                   *)
(* ------------------------------------------------------------------ *)

let from_alias = function
  | From_table { alias; _ } -> alias
  | From_subquery { alias; _ } -> alias
  | From_values { alias; _ } -> alias

(* Whether [e] reads some qualified column. *)
let has_qualified e =
  fold_columns (fun acc q _ -> acc || q <> None) false e

(* Whether every column [e] reads is qualified by one of [aliases];
   unqualified references fail conservatively (they stay at the top),
   and expressions with no column references at all (constants) pass. *)
let refers_only_to aliases e =
  fold_columns
    (fun ok q _ ->
      ok
      && match q with Some a -> List.exists (String.equal a) aliases | None -> false)
    true e

(* ------------------------------------------------------------------ *)
(* Access-path selection                                               *)
(* ------------------------------------------------------------------ *)

(* The names a statement part resolves: the catalog, shadowed by the
   CTEs bound before it. A CTE's rows live in the executor as a batch,
   not in a table, so its name is unindexed, never a leapfrog atom, and
   estimates as 0 rows. *)
type scope = { db : Database.t; ctes : string list }

let is_cte sc name = List.exists (String.equal name) sc.ctes

let table_index_cols sc table_name =
  if is_cte sc table_name then []
  else
    match Database.find sc.db table_name with
    | Some t ->
      List.map (fun pos -> Schema.column (Table.schema t) pos) (Table.indexed_columns t)
    | None -> []

let table_rows sc name =
  if is_cte sc name then 0
  else match Database.find sc.db name with Some t -> Table.row_count t | None -> 1000

let is_indexed c indexed = List.exists (String.equal c) indexed

(** Recognize [alias.col = const] / [const = alias.col] / [alias.col IN
    (...)] conjuncts usable as index keys for [alias]. *)
let index_key_of_conjunct alias indexed = function
  | Binop (Eq, Col (Some a, c), Const v) when a = alias && is_indexed c indexed ->
    Some (c, [ v ])
  | Binop (Eq, Const v, Col (Some a, c)) when a = alias && is_indexed c indexed ->
    Some (c, [ v ])
  | In_list (Col (Some a, c), vs) when a = alias && is_indexed c indexed ->
    Some (c, vs)
  | _ -> None

(** Recognize an equality conjunct joining [inner_alias.col] (indexed) to
    an expression over the outer aliases — the index nested-loop case. *)
let inl_key_of_conjunct ~outer_aliases ~inner_alias ~indexed = function
  | Binop (Eq, Col (Some a, c), rhs)
    when a = inner_alias && is_indexed c indexed && refers_only_to outer_aliases rhs ->
    Some (c, rhs)
  | Binop (Eq, lhs, Col (Some a, c))
    when a = inner_alias && is_indexed c indexed && refers_only_to outer_aliases lhs ->
    Some (c, lhs)
  | _ -> None

(** Recognize equality conjuncts usable as hash-join keys between the
    outer aliases and the new alias. *)
let hash_keys_of_conjunct ~outer_aliases ~inner_alias = function
  | Binop (Eq, lhs, rhs) ->
    let lhs_outer = refers_only_to outer_aliases lhs
    and rhs_outer = refers_only_to outer_aliases rhs
    and lhs_inner = refers_only_to [ inner_alias ] lhs && has_qualified lhs
    and rhs_inner = refers_only_to [ inner_alias ] rhs && has_qualified rhs in
    if lhs_outer && rhs_inner then Some (lhs, rhs)
    else if rhs_outer && lhs_inner then Some (rhs, lhs)
    else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Cardinality estimation                                              *)
(* ------------------------------------------------------------------ *)

(** Crude output-cardinality estimate, used only to pick the smaller
    hash-join build side. Base-table counts are exact (the catalog is
    in memory); everything above applies textbook selectivity fudge
    factors. Being wrong only costs a larger build table, never a wrong
    answer. *)
let rec estimate sc (plan : plan) : int =
  match plan with
  | Empty_row -> 1
  | Scan { table; filter; _ } ->
    let n = table_rows sc table in
    (match filter with Some _ -> max 1 (n / 3) | None -> n)
  | Index_lookup { table; keys; _ } ->
    let n = table_rows sc table in
    min n (List.length keys * max 1 (n / 20))
  | Values_rows { rows; _ } -> List.length rows
  | Subplan { plan; _ } -> estimate sc plan
  | Inl_join { outer; _ } ->
    (* Index joins are typically key-to-few; assume ~1 match per row. *)
    estimate sc outer
  | Hash_join { left; right; _ } | Nl_join { left; right; _ } ->
    max (estimate sc left) (estimate sc right)
  | Values_join { outer; rows; _ } ->
    estimate sc outer * max 1 (List.length rows)
  | Wcoj { est_rows; _ } -> max 1 est_rows
  | Extvp_scan { input; _ } ->
    (* The reduction's own row count: this is the smaller cardinality
       that feeds the hash-join build-side swap and index-NL choice. *)
    estimate sc input
  | Filter (p, _) -> max 1 (estimate sc p / 3)
  | Project { input; limit; _ } ->
    let n = estimate sc input in
    (match limit with Some l -> min n (max 0 l) | None -> n)
  | Aggregate { input; keys; limit; _ } ->
    let n = if keys = [] then 1 else max 1 (estimate sc input / 4) in
    (match limit with Some l -> min n (max 0 l) | None -> n)
  | Union_plan { parts; _ } ->
    List.fold_left (fun a p -> a + estimate sc p) 0 parts

(** Cost of a hash join that builds on [build] and probes with [probe],
    in abstract row-touch units. Building costs more per row than
    probing (a hash insert and posting append versus a lookup), which
    the weights reflect. The radix-partitioned parallel build divides
    the build by the worker count — but the morselized probe fans out
    over the very same pool, so the worker factor multiplies both terms
    equally and cancels out of any build-side comparison. That is
    deliberate: the cost must stay independent of the execution-time
    domain count, because the same plan is executed by the sequential,
    the morsel-parallel, and the partitioned-build paths, and the
    seq≡par bit-identity guarantee would be vacuous if they planned
    differently. *)
let hash_join_cost sc ~build ~probe =
  (3 * estimate sc build) + (2 * estimate sc probe)

(** Build a hash join with the cheaper input as the build side. The
    executor always builds on [right] and probes [left], so for INNER
    joins the sides (and their key lists) are swapped when building on
    the left looks cheaper under {!hash_join_cost}. LEFT OUTER joins
    never swap: the null-padding side is fixed. Residuals and all
    downstream column references resolve by qualified name, so
    reordering the output layout is safe — and since the same plan is
    executed by both the sequential and parallel paths, their outputs
    stay identical. *)
let hash_join sc ~left ~right ~left_keys ~right_keys ~kind ~residual =
  if
    kind = Inner
    && hash_join_cost sc ~build:left ~probe:right
       < hash_join_cost sc ~build:right ~probe:left
  then
    Hash_join
      { left = right; right = left; left_keys = right_keys;
        right_keys = left_keys; kind; residual }
  else Hash_join { left; right; left_keys; right_keys; kind; residual }

(* ------------------------------------------------------------------ *)
(* Worst-case-optimal join recognition                                 *)
(* ------------------------------------------------------------------ *)

(** Structural eligibility for the leapfrog operator: a flat select of
    three or more INNER-joined base tables whose every WHERE/ON conjunct
    is [col = const] or [col = col] and whose select items are plain
    qualified columns. Returns [Some build] when eligible; [build] then
    consults the installed selector against the planner's estimate of
    the binary alternative. Any unrecognized construct — LEFT joins,
    subqueries, materialized CTE references, expressions — falls back to
    the binary path by returning [None]. *)
let wcoj_of_select sc (s : select) : (binary_est:int -> plan option) option =
  let db = sc.db in
  match Database.wcoj_selector db, s.from with
  | _, (None | Some (From_subquery _ | From_values _)) | None, _ -> None
  | Some _, _ when not (Database.wcoj db) -> None
  | Some selector, Some (From_table first) ->
    let joined =
      List.map
        (fun { kind; item; on } ->
          match kind, item with
          | Inner, From_table { table; alias } -> Some (alias, table, on)
          | _ -> None)
        s.joins
    in
    if List.exists (( = ) None) joined || List.length joined < 2 then None
    else begin
      let tables =
        (first.alias, first.table)
        :: List.map (fun j -> let a, t, _ = Option.get j in (a, t)) joined
      in
      let aliases = List.map fst tables in
      let schemas_ok =
        List.length (List.sort_uniq String.compare aliases)
        = List.length aliases
        && List.for_all
             (fun (_, tname) ->
               (not (is_cte sc tname)) && Database.mem db tname)
             tables
      in
      if not schemas_ok then None
      else begin
        let col_exists a c =
          match List.assoc_opt a tables with
          | None -> false
          | Some tname ->
            Schema.mem (Table.schema (Database.find_exn db tname)) c
        in
        let conjs =
          (match s.where with Some e -> conjuncts e | None -> [])
          @ List.concat_map
              (fun j ->
                match Option.get j with
                | _, _, Some e -> conjuncts e
                | _, _, None -> [])
              joined
        in
        let consts = ref [] (* (alias, col, value) *)
        and eqs = ref [] (* ((alias, col), (alias, col)) *) in
        let conjs_ok =
          List.for_all
            (function
              | Binop (Eq, Col (Some a, c), Const v)
              | Binop (Eq, Const v, Col (Some a, c))
                when col_exists a c ->
                consts := (a, c, v) :: !consts;
                true
              | Binop (Eq, Col (Some a, ca), Col (Some b, cb))
                when col_exists a ca && col_exists b cb ->
                eqs := ((a, ca), (b, cb)) :: !eqs;
                true
              | _ -> false)
            conjs
        in
        let proj_cols =
          List.map
            (fun it ->
              match it.expr with
              | Col (Some a, c) when col_exists a c -> Some (a, c)
              | _ -> None)
            s.items
        in
        if not (conjs_ok && List.for_all (( <> ) None) proj_cols) then None
        else begin
          (* Join-variable classes: union-find over (alias, col) pairs
             connected by equality conjuncts, seeded with every
             projected column so projection-only columns get singleton
             classes. Class ids are assigned by first appearance in
             (FROM order, schema-column order) — a deterministic
             canonical numbering. *)
          let pairs =
            List.concat_map (fun (x, y) -> [ x; y ]) !eqs
            @ List.map Option.get proj_cols
          in
          let alias_idx a =
            let rec go i = function
              | [] -> max_int
              | (a', _) :: tl -> if a' = a then i else go (i + 1) tl
            in
            go 0 tables
          in
          let col_idx a c =
            match List.assoc_opt a tables with
            | None -> max_int
            | Some tname ->
              (match Schema.position (Table.schema (Database.find_exn db tname)) c with
               | Some i -> i
               | None -> max_int)
          in
          let pairs =
            List.sort_uniq compare pairs
            |> List.sort (fun (a1, c1) (a2, c2) ->
                   compare
                     (alias_idx a1, col_idx a1 c1)
                     (alias_idx a2, col_idx a2 c2))
          in
          let n = List.length pairs in
          let arr = Array.of_list pairs in
          let index_of p =
            let rec go i = if arr.(i) = p then i else go (i + 1) in
            go 0
          in
          let parent = Array.init n (fun i -> i) in
          let rec root i =
            if parent.(i) = i then i
            else begin
              parent.(i) <- root parent.(i);
              parent.(i)
            end
          in
          let union a b =
            let ra = root a and rb = root b in
            (* Smaller index wins, keeping class roots canonical. *)
            if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
          in
          List.iter (fun (x, y) -> union (index_of x) (index_of y)) !eqs;
          (* Dense class ids in root order (= first-appearance order). *)
          let class_of = Array.make n (-1) in
          let n_vars = ref 0 in
          Array.iteri
            (fun i _ ->
              let r = root i in
              if class_of.(r) = -1 then begin
                class_of.(r) <- !n_vars;
                incr n_vars
              end;
              class_of.(i) <- class_of.(r))
            parent;
          let n_vars = !n_vars in
          let var_of p = class_of.(index_of p) in
          let atoms =
            List.map
              (fun (alias, table) ->
                let var_cols =
                  List.filter_map
                    (fun ((a, c) as p) ->
                      if a = alias then Some (c, Wcoj.W_var (var_of p))
                      else None)
                    pairs
                in
                let const_cols =
                  List.filter_map
                    (fun (a, c, v) ->
                      if a = alias then Some (c, Wcoj.W_const v) else None)
                    !consts
                in
                { Wcoj.w_table = table; w_alias = alias;
                  w_cols = const_cols @ var_cols })
              tables
          in
          (* Intersection order: most-constrained variable first (bound
             by the most atoms), ties by canonical class id. *)
          let participation = Array.make n_vars 0 in
          List.iter
            (fun a ->
              List.iter
                (fun v -> participation.(v) <- participation.(v) + 1)
                (Wcoj.atom_vars a))
            atoms;
          let var_order = Array.init n_vars (fun i -> i) in
          Array.sort
            (fun a b ->
              match compare participation.(b) participation.(a) with
              | 0 -> compare a b
              | c -> c)
            var_order;
          let outputs =
            List.map (fun ((a, c) as p) -> (a, c, var_of p)) pairs
          in
          Some
            (fun ~binary_est ->
              let d =
                selector { Wcoj.atoms; n_vars; binary_est }
              in
              if d.Wcoj.use_wcoj then
                Some
                  (Wcoj
                     { atoms; var_order; n_vars; outputs;
                       est_rows = d.Wcoj.est_rows })
              else None)
        end
      end
    end

let rec plan_query sc (q : query) : plan =
  match q with
  | Select s -> plan_select sc s
  | Union { all; parts } ->
    Union_plan { all; parts = List.map (plan_query sc) parts }

and plan_base sc (item : from_item) (conjs : expr list) : plan * expr list =
  (* Plan the first FROM item, consuming conjuncts pushed into it. *)
  match item with
  | From_table { table; alias } ->
    let indexed = table_index_cols sc table in
    let key, rest =
      let rec pick acc = function
        | [] -> (None, List.rev acc)
        | c :: tl ->
          (match index_key_of_conjunct alias indexed c with
           | Some k -> (Some k, List.rev_append acc tl)
           | None -> pick (c :: acc) tl)
      in
      pick [] conjs
    in
    let local, rest =
      List.partition (refers_only_to [ alias ]) rest
    in
    let filter = conj_list local in
    let plan =
      match key with
      | Some (col, keys) ->
        Index_lookup { table; alias; col; keys; filter; cols = None }
      | None -> Scan { table; alias; filter; cols = None }
    in
    let plan =
      if Extvp.is_extvp_name table then Extvp_scan { input = plan; name = table }
      else plan
    in
    (plan, rest)
  | From_subquery { query; alias } ->
    let inner = plan_query sc query in
    let plan = Subplan { plan = inner; alias } in
    let local, rest = List.partition (refers_only_to [ alias ]) conjs in
    let plan =
      match conj_list local with Some e -> Filter (plan, e) | None -> plan
    in
    (plan, rest)
  | From_values { rows; alias; cols } ->
    let plan = Values_rows { rows; alias; cols } in
    let local, rest = List.partition (refers_only_to [ alias ]) conjs in
    let plan =
      match conj_list local with Some e -> Filter (plan, e) | None -> plan
    in
    (plan, rest)

and plan_join sc outer outer_aliases { kind; item; on } avail_conjs :
  plan * expr list =
  (* [avail_conjs] are WHERE conjuncts not yet applied; for INNER joins we
     may consume those that become evaluable here. LEFT joins only use
     their ON condition. *)
  let alias = from_alias item in
  let on_conjs = match on with Some e -> conjuncts e | None -> [] in
  let usable_where, deferred =
    match kind with
    | Inner ->
      List.partition (refers_only_to (alias :: outer_aliases)) avail_conjs
    | Left_outer -> ([], avail_conjs)
  in
  let conds = on_conjs @ usable_where in
  match item with
  | From_values { rows; alias; cols } ->
    let plan = Values_join { outer; rows; alias; cols } in
    let plan =
      match conj_list conds with Some e -> Filter (plan, e) | None -> plan
    in
    (plan, deferred)
  | From_table { table; alias } ->
    let indexed = table_index_cols sc table in
    let inl, rest =
      let rec pick acc = function
        | [] -> (None, List.rev acc)
        | c :: tl ->
          (match inl_key_of_conjunct ~outer_aliases ~inner_alias:alias ~indexed c with
           | Some k -> (Some k, List.rev_append acc tl)
           | None -> pick (c :: acc) tl)
      in
      pick [] conds
    in
    (match inl with
     | Some (col, key) ->
       let join =
         Inl_join
           { outer; table; alias; col; key; kind;
             residual = conj_list rest; cols = None }
       in
       let join =
         if Extvp.is_extvp_name table then
           Extvp_scan { input = join; name = table }
         else join
       in
       (join, deferred)
     | None ->
       let is_key c =
         hash_keys_of_conjunct ~outer_aliases ~inner_alias:alias c <> None
       in
       let pairs =
         List.filter_map (hash_keys_of_conjunct ~outer_aliases ~inner_alias:alias) conds
       in
       if pairs <> [] then begin
         (* Non-key conjuncts local to the inner table are pushed below
            the hash build. This is safe for both join kinds: they only
            restrict which inner rows can match, and for LEFT joins these
            conjuncts came from the ON clause. *)
         let non_keys = List.filter (fun c -> not (is_key c)) conds in
         let local, residual =
           List.partition (refers_only_to [ alias ]) non_keys
         in
         let right, _ = plan_base sc (From_table { table; alias }) local in
         ( hash_join sc ~left:outer ~right
             ~left_keys:(List.map fst pairs)
             ~right_keys:(List.map snd pairs)
             ~kind ~residual:(conj_list residual),
           deferred )
       end
       else
         let right, _ = plan_base sc (From_table { table; alias }) [] in
         (Nl_join { left = outer; right; kind; cond = conj_list conds }, deferred))
  | From_subquery { query; alias } ->
    let right = Subplan { plan = plan_query sc query; alias } in
    let pairs =
      List.filter_map (hash_keys_of_conjunct ~outer_aliases ~inner_alias:alias) conds
    in
    if pairs <> [] then begin
      let residual =
        List.filter
          (fun c ->
            match hash_keys_of_conjunct ~outer_aliases ~inner_alias:alias c with
            | Some _ -> false
            | None -> true)
          conds
      in
      ( hash_join sc ~left:outer ~right
          ~left_keys:(List.map fst pairs)
          ~right_keys:(List.map snd pairs)
          ~kind ~residual:(conj_list residual),
        deferred )
    end
    else (Nl_join { left = outer; right; kind; cond = conj_list conds }, deferred)

and plan_select sc (s : select) : plan =
  let conjs = match s.where with Some e -> conjuncts e | None -> [] in
  let body, leftover =
    match s.from with
    | None -> (Empty_row, conjs)
    | Some first ->
      let binary () =
        let base, rest = plan_base sc first conjs in
        let rec chain plan aliases rest = function
          | [] -> (plan, rest)
          | j :: tl ->
            let plan, rest = plan_join sc plan aliases j rest in
            chain plan (from_alias j.item :: aliases) rest tl
        in
        chain base [ from_alias first ] rest s.joins
      in
      (match wcoj_of_select sc s with
       | None -> binary ()
       | Some build ->
         (* Build the binary tree anyway: its estimate parameterizes the
            selector, and it is the plan when the selector declines. *)
         let bplan, brest = binary () in
         (match build ~binary_est:(estimate sc bplan) with
          | Some wplan -> (wplan, []) (* recognition consumed every conjunct *)
          | None -> (bplan, brest)))
  in
  let body =
    match conj_list leftover with Some e -> Filter (body, e) | None -> body
  in
  let item_name i { expr; alias } =
    match alias, expr with
    | Some a, _ -> a
    | None, Col (_, n) -> n
    | None, _ -> Printf.sprintf "c%d" i
  in
  let is_aggregate =
    s.group_by <> []
    || List.exists (fun { expr; _ } -> match expr with Agg _ -> true | _ -> false)
         s.items
  in
  if is_aggregate then begin
    let items =
      List.mapi
        (fun i it ->
          match it.expr with
          | Agg (fn, arg, distinct) -> Ai_agg (fn, arg, distinct, item_name i it)
          | e -> Ai_plain (e, item_name i it))
        s.items
    in
    Aggregate
      { input = body; keys = s.group_by; items; distinct = s.distinct;
        order_by = s.order_by; limit = s.limit; offset = s.offset }
  end
  else
    Project
      { input = body;
        items = List.mapi (fun i it -> (it.expr, item_name i it)) s.items;
        distinct = s.distinct; order_by = s.order_by; limit = s.limit;
        offset = s.offset }

(* ------------------------------------------------------------------ *)
(* Column pruning                                                      *)
(* ------------------------------------------------------------------ *)

(* Which qualified columns the consumers of a node's output read, as
   one sorted name set per alias. Any unqualified reference collapses
   to [All]: it could resolve to any alias, so nothing below may be
   pruned. *)
module Names = Set.Make (String)
module By_alias = Map.Make (String)

type needed = All | Only of Names.t By_alias.t

let alias_cols alias m =
  match By_alias.find alias m with cs -> cs | exception Not_found -> Names.empty

(* [needed] plus every column [e] reads: one set insertion per
   reference, never a copy of what was already needed. *)
let need needed e =
  fold_columns
    (fun needed q n ->
      match needed, q with
      | All, _ | _, None -> All
      | Only m, Some a ->
        let cs = alias_cols a m in
        let cs' = Names.add n cs in
        if cs' == cs then needed else Only (By_alias.add a cs' m))
    needed e

let need_opt needed = function Some e -> need needed e | None -> needed
let need_all = List.fold_left need

(* Columns of [alias] the consumers read, sorted and distinct — [None]
   when everything must be kept. *)
let cols_for alias = function
  | All -> None
  | Only m -> Some (Names.elements (alias_cols alias m))

(** Push column requirements down the plan in one pass, narrowing
    table-access and index-join nodes to the columns their consumers
    actually read. Intermediate star-join rows shrink from full triple
    rows to single object columns, which is most of the executor's
    allocation. *)
let rec prune (needed : needed) plan =
  match plan with
  | Empty_row | Values_rows _ -> plan
  | Scan { table; alias; filter; _ } ->
    (* The filter runs against the full row before projection. *)
    Scan { table; alias; filter; cols = cols_for alias needed }
  | Index_lookup { table; alias; col; keys; filter; _ } ->
    Index_lookup { table; alias; col; keys; filter; cols = cols_for alias needed }
  | Subplan { plan; alias } -> Subplan { plan = prune All plan; alias }
  | Inl_join { outer; table; alias; col; key; kind; residual; _ } ->
    (* An inner-only residual is evaluated on the raw table row, so its
       references need not survive; a cross residual is evaluated on the
       combined output row, so they must. *)
    let inner =
      match residual with
      | Some e when not (refers_only_to [ alias ] e) -> need needed e
      | _ -> needed
    in
    Inl_join
      { outer = prune (need_opt (need needed key) residual) outer; table; alias;
        col; key; kind; residual; cols = cols_for alias inner }
  | Hash_join { left; right; left_keys; right_keys; kind; residual } ->
    let n = need_opt (need_all (need_all needed left_keys) right_keys) residual in
    Hash_join
      { left = prune n left; right = prune n right; left_keys; right_keys;
        kind; residual }
  | Nl_join { left; right; kind; cond } ->
    let n = need_opt needed cond in
    Nl_join { left = prune n left; right = prune n right; kind; cond }
  | Values_join { outer; rows; alias; cols } ->
    Values_join
      { outer = prune (List.fold_left need_all needed rows) outer; rows; alias; cols }
  | Wcoj ({ outputs; _ } as w) ->
    (* Output columns are copies of the variable bindings; dropping
       unread class members never loses a constraint (the classes and
       atoms are untouched). *)
    (match needed with
     | All -> plan
     | Only m ->
       Wcoj
         { w with
           outputs = List.filter (fun (a, c, _) -> Names.mem c (alias_cols a m)) outputs })
  | Extvp_scan { input; name } -> Extvp_scan { input = prune needed input; name }
  | Filter (p, e) -> Filter (prune (need needed e) p, e)
  | Project { input; items; distinct; order_by; limit; offset } ->
    (* A projection re-creates every output column, so requirements from
       above reset; sort keys may resolve against the input. *)
    let n =
      List.fold_left
        (fun n o -> need n o.sort_expr)
        (List.fold_left (fun n (e, _) -> need n e) (Only By_alias.empty) items)
        order_by
    in
    Project { input = prune n input; items; distinct; order_by; limit; offset }
  | Aggregate { input; keys; items; distinct; order_by; limit; offset } ->
    (* Aggregate sort keys resolve against the aggregated output, not
       the input, so they impose nothing on the input. An arg-less
       DISTINCT aggregate (COUNT DISTINCT over whole rows) reads every
       input column, so pruning must keep them all. *)
    let whole_row_distinct =
      List.exists
        (function Ai_agg (_, None, true, _) -> true | _ -> false)
        items
    in
    let n =
      if whole_row_distinct then All
      else
        List.fold_left
          (fun n -> function
            | Ai_plain (e, _) -> need n e
            | Ai_agg (_, arg, _, _) -> need_opt n arg)
          (need_all (Only By_alias.empty) keys)
          items
    in
    Aggregate { input = prune n input; keys; items; distinct; order_by; limit; offset }
  | Union_plan { all; parts } ->
    Union_plan { all; parts = List.map (prune All) parts }

let plan_query ?(ctes = []) db q = prune All (plan_query { db; ctes } q)

let estimate ?(ctes = []) db plan = estimate { db; ctes } plan

(** Plan a statement: each CTE against the catalog plus the CTEs bound
    before it, then the body against all of them. Returns the CTEs as
    (name, CTE names in scope, plan), in order, and the body as
    (CTE names in scope, plan). *)
let plan_stmt db (stmt : stmt) =
  let rec go ctes = function
    | [] -> ([], (ctes, plan_query ~ctes db stmt.body))
    | (name, q) :: rest ->
      let cte = (name, ctes, plan_query ~ctes db q) in
      let tl, body = go (name :: ctes) rest in
      (cte :: tl, body)
  in
  go [] stmt.ctes

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

(** One-line operator description (no children) — shared by the plan
    printer and the {!Opstats} labels of EXPLAIN ANALYZE. *)
let node_label plan =
  let opt_expr = function
    | Some e -> " [" ^ Sql_pp.expr_to_string e ^ "]"
    | None -> ""
  in
  let kind_name = function Inner -> "inner" | Left_outer -> "left" in
  match plan with
  | Empty_row -> "EmptyRow"
  | Scan { table; alias; filter; _ } ->
    Printf.sprintf "SeqScan %s AS %s%s" table alias (opt_expr filter)
  | Index_lookup { table; alias; col; keys; filter; _ } ->
    Printf.sprintf "IndexLookup %s AS %s on %s (%d keys)%s" table alias col
      (List.length keys) (opt_expr filter)
  | Values_rows { alias; rows; _ } ->
    Printf.sprintf "Values %s (%d rows)" alias (List.length rows)
  | Subplan { alias; _ } -> Printf.sprintf "Subquery AS %s" alias
  | Inl_join { table; alias; col; key; kind; residual; _ } ->
    Printf.sprintf "IndexNLJoin(%s) %s AS %s on %s = %s%s" (kind_name kind)
      table alias col (Sql_pp.expr_to_string key) (opt_expr residual)
  | Hash_join { left_keys; kind; residual; _ } ->
    Printf.sprintf "HashJoin(%s) on %s%s" (kind_name kind)
      (String.concat "," (List.map Sql_pp.expr_to_string left_keys))
      (opt_expr residual)
  | Nl_join { kind; cond; _ } ->
    Printf.sprintf "NLJoin(%s)%s" (kind_name kind) (opt_expr cond)
  | Values_join { rows; alias; _ } ->
    Printf.sprintf "LateralValues %s (%d rows)" alias (List.length rows)
  | Wcoj { atoms; n_vars; est_rows; _ } ->
    Printf.sprintf "LeapfrogJoin [%d atoms, %d vars] on %s (est %d)"
      (List.length atoms) n_vars
      (String.concat ","
         (List.map (fun a -> a.Wcoj.w_table ^ " AS " ^ a.Wcoj.w_alias) atoms))
      est_rows
  | Extvp_scan { name; _ } -> Printf.sprintf "ExtvpScan %s" name
  | Filter (_, e) -> Printf.sprintf "Filter%s" (opt_expr (Some e))
  | Project { items; distinct; _ } ->
    Printf.sprintf "Project%s (%s)"
      (if distinct then " DISTINCT" else "")
      (String.concat ", " (List.map snd items))
  | Aggregate { keys; items; _ } ->
    Printf.sprintf "Aggregate [%d keys] (%s)" (List.length keys)
      (String.concat ", "
         (List.map
            (function Ai_plain (_, n) -> n | Ai_agg (_, _, _, n) -> n)
            items))
  | Union_plan { all; _ } -> if all then "UnionAll" else "Union"

(** Immediate inputs of a plan node, in plan order. *)
let children = function
  | Empty_row | Scan _ | Index_lookup _ | Values_rows _ | Wcoj _ -> []
  | Subplan { plan; _ } -> [ plan ]
  | Extvp_scan { input; _ } -> [ input ]
  | Inl_join { outer; _ } -> [ outer ]
  | Hash_join { left; right; _ } -> [ left; right ]
  | Nl_join { left; right; _ } -> [ left; right ]
  | Values_join { outer; _ } -> [ outer ]
  | Filter (p, _) -> [ p ]
  | Project { input; _ } -> [ input ]
  | Aggregate { input; _ } -> [ input ]
  | Union_plan { parts; _ } -> parts

let rec pp_plan ?(indent = 0) buf plan =
  Buffer.add_string buf (String.make indent ' ');
  Buffer.add_string buf (node_label plan);
  Buffer.add_char buf '\n';
  List.iter (pp_plan ~indent:(indent + 2) buf) (children plan)

let plan_to_string plan =
  let buf = Buffer.create 256 in
  pp_plan buf plan;
  Buffer.contents buf
