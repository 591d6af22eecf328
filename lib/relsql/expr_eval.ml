(** Scalar expression evaluation with SQL three-valued logic.

    Expressions are compiled once against a column layout (the ordered
    visible columns of the operator's input) into closures over the row
    array, so per-row evaluation does no name resolution. *)

open Sql_ast

(** Visible columns of an intermediate row: position [i] of a row array
    holds the column described by [layout.(i)]. *)
type layout = (string option * string) array

exception Unknown_column of string

let pp_colref (q, n) =
  match q with Some q -> q ^ "." ^ n | None -> n

let rec find_qualified (layout : layout) q n i =
  if i >= Array.length layout then raise (Unknown_column (pp_colref (q, n)))
  else
    let q', n' = layout.(i) in
    if String.equal n' n && Option.equal String.equal q' q then i
    else find_qualified layout q n (i + 1)

let rec find_unqualified (layout : layout) n i found =
  if i >= Array.length layout then
    if found < 0 then raise (Unknown_column n) else found
  else if String.equal (snd layout.(i)) n then
    if found >= 0 then raise (Unknown_column (n ^ " (ambiguous)"))
    else find_unqualified layout n (i + 1) i
  else find_unqualified layout n (i + 1) found

(** Resolve a column reference against a layout. A qualified reference
    must match qualifier and name; an unqualified one matches by name and
    must be unambiguous. *)
let resolve (layout : layout) (q, n) =
  match q with
  | Some _ -> find_qualified layout q n 0
  | None -> find_unqualified layout n 0 (-1)

(* Three-valued logic: SQL booleans are True / False / Unknown, where
   Unknown is represented by Value.Null. *)

let sql_not = function
  | Value.Bool b -> Value.Bool (not b)
  | Value.Null -> Value.Null
  | _ -> Value.Null

let sql_and a b =
  match a, b with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, x -> x
  | x, Value.Bool true -> x
  | _ -> Value.Null

let sql_or a b =
  match a, b with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, x -> x
  | x, Value.Bool false -> x
  | _ -> Value.Null

(* Ordering for (non-null) comparisons. Numeric comparisons coerce
   Int/Real; everything else uses the structural order, which agrees
   with SQL on same-typed operands. Int/Int — dictionary ids, the
   engine's dominant case — short-circuits past the float coercion. *)
let cmp_values a b =
  match a, b with
  | Value.Int x, Value.Int y -> Stdlib.compare (x : int) y
  | _ ->
    (match Value.as_float a, Value.as_float b with
     | Some x, Some y -> Stdlib.compare x y
     | _ -> Value.compare a b)

let cmp_holds op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Leq -> c <= 0
  | Gt -> c > 0
  | Geq -> c >= 0
  | And | Or | Add | Sub | Mul | Div | Concat -> assert false

let compare_values op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> Value.Bool (cmp_holds op (cmp_values a b))

let arith op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ ->
    (match Value.as_float a, Value.as_float b with
     | Some x, Some y ->
       let both_int =
         match a, b with Value.Int _, Value.Int _ -> true | _ -> false
       in
       let r =
         match op with
         | Add -> x +. y
         | Sub -> x -. y
         | Mul -> x *. y
         | Div -> if y = 0.0 then nan else x /. y
         | Eq | Neq | Lt | Leq | Gt | Geq | And | Or | Concat -> assert false
       in
       if Float.is_nan r then Value.Null
       else if both_int && op <> Div then Value.Int (int_of_float r)
       else Value.Real r
     | _ -> Value.Null)

let concat a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ ->
    let s = function
      | Value.Str s -> s
      | v -> Value.to_string v
    in
    Value.Str (s a ^ s b)

(* LIKE: % matches any sequence, _ any single char. *)
let like_match pattern text =
  let np = String.length pattern and nt = String.length text in
  let rec go p t =
    if p = np then t = nt
    else
      match pattern.[p] with
      | '%' ->
        let rec try_at t' = t' <= nt && (go (p + 1) t' || try_at (t' + 1)) in
        try_at t
      | '_' -> t < nt && go (p + 1) (t + 1)
      | c -> t < nt && text.[t] = c && go (p + 1) (t + 1)
  in
  go 0 0

let sql_like v pattern =
  match v with
  | Value.Null -> Value.Null
  | Value.Str s -> Value.Bool (like_match pattern s)
  | v -> Value.Bool (like_match pattern (Value.to_string v))

(** SQL booleans as an unboxed domain (the constructors are immediates,
    so predicate evaluation never allocates per row). *)
type tv = T_true | T_false | T_unknown

(** Compile an expression into a closure over rows shaped by [layout].
    Raises {!Unknown_column} at compile time for unresolvable columns. *)
let rec compile (layout : layout) (e : expr) : Value.t array -> Value.t =
  match e with
  | Const v -> fun _ -> v
  | Col (q, n) ->
    let i = resolve layout (q, n) in
    fun row -> row.(i)
  | Binop (And, a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun row -> sql_and (fa row) (fb row)
  | Binop (Or, a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun row -> sql_or (fa row) (fb row)
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun row -> compare_values op (fa row) (fb row)
  | Binop (Concat, a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun row -> concat (fa row) (fb row)
  | Binop (((Add | Sub | Mul | Div) as op), a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun row -> arith op (fa row) (fb row)
  | Not e ->
    let f = compile layout e in
    fun row -> sql_not (f row)
  | Is_null e ->
    let f = compile layout e in
    fun row -> Value.Bool (Value.is_null (f row))
  | Is_not_null e ->
    let f = compile layout e in
    fun row -> Value.Bool (not (Value.is_null (f row)))
  | Case (whens, els) ->
    let whens =
      List.map (fun (c, v) -> (compile_tv layout c, compile layout v)) whens
    in
    let els = Option.map (compile layout) els in
    fun row ->
      let rec go = function
        | (c, v) :: rest ->
          (match c row with T_true -> v row | _ -> go rest)
        | [] -> (match els with Some f -> f row | None -> Value.Null)
      in
      go whens
  | Coalesce es ->
    let fs = List.map (compile layout) es in
    fun row ->
      let rec go = function
        | [] -> Value.Null
        | f :: rest ->
          let v = f row in
          if Value.is_null v then go rest else v
      in
      go fs
  | In_list (e, vs) ->
    let f = compile layout e in
    let set = Hashtbl.create (List.length vs) in
    List.iter (fun v -> Hashtbl.replace set v ()) vs;
    fun row ->
      let v = f row in
      if Value.is_null v then Value.Null
      else Value.Bool (Hashtbl.mem set v)
  | Like (e, pattern) ->
    let f = compile layout e in
    fun row -> sql_like (f row) pattern
  | Agg _ ->
    invalid_arg
      "Expr_eval.compile: aggregate outside an aggregate select list"

(* Predicates compile through an unboxed three-valued domain: the
   connectives and comparisons below never build a [Value.Bool] per row,
   which matters in scan and join inner loops where the filter runs once
   per candidate row. The constructors are immediates — no allocation. *)
and compile_tv (layout : layout) (e : expr) : Value.t array -> tv =
  match e with
  | Binop (And, a, b) ->
    let fa = compile_tv layout a and fb = compile_tv layout b in
    fun row ->
      (match fa row with
       | T_false -> T_false
       | T_true -> fb row
       | T_unknown -> (match fb row with T_false -> T_false | _ -> T_unknown))
  | Binop (Or, a, b) ->
    let fa = compile_tv layout a and fb = compile_tv layout b in
    fun row ->
      (match fa row with
       | T_true -> T_true
       | T_false -> fb row
       | T_unknown -> (match fb row with T_true -> T_true | _ -> T_unknown))
  | Not e ->
    let f = compile_tv layout e in
    fun row ->
      (match f row with
       | T_true -> T_false
       | T_false -> T_true
       | T_unknown -> T_unknown)
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), Col (q, n), Const c)
    when not (Value.is_null c) ->
    (* Column-vs-literal — the shape of every generated pred/obj filter;
       skipping the operand closures halves the cost of OR-chains over
       wide DPH rows. *)
    let i = resolve layout (q, n) in
    fun row ->
      let x = row.(i) in
      if Value.is_null x then T_unknown
      else if cmp_holds op (cmp_values x c) then T_true
      else T_false
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), Col (qa, na), Col (qb, nb)) ->
    let i = resolve layout (qa, na) and j = resolve layout (qb, nb) in
    fun row ->
      let x = row.(i) in
      if Value.is_null x then T_unknown
      else
        let y = row.(j) in
        if Value.is_null y then T_unknown
        else if cmp_holds op (cmp_values x y) then T_true
        else T_false
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun row ->
      let x = fa row in
      if Value.is_null x then T_unknown
      else
        let y = fb row in
        if Value.is_null y then T_unknown
        else if cmp_holds op (cmp_values x y) then T_true
        else T_false
  | Is_null e ->
    let f = compile layout e in
    fun row -> if Value.is_null (f row) then T_true else T_false
  | Is_not_null e ->
    let f = compile layout e in
    fun row -> if Value.is_null (f row) then T_false else T_true
  | In_list (e, vs) ->
    let f = compile layout e in
    let set = Hashtbl.create (List.length vs) in
    List.iter (fun v -> Hashtbl.replace set v ()) vs;
    fun row ->
      let v = f row in
      if Value.is_null v then T_unknown
      else if Hashtbl.mem set v then T_true
      else T_false
  | e ->
    let f = compile layout e in
    fun row ->
      (match f row with
       | Value.Bool true -> T_true
       | Value.Bool false -> T_false
       | _ -> T_unknown)

(* Two-valued predicate compilation: [compile_true e] holds exactly when
   the three-valued evaluation of [e] is TRUE, [compile_false e] exactly
   when it is FALSE; the pair is mutually recursive through NOT. A filter
   only keeps TRUE rows, so Unknown can collapse to "no" at every level
   — which restores boolean short-circuiting that Kleene logic forbids.
   On a sparse wide row (DPH: most cells NULL) an OR-chain conjunct
   evaluates to Unknown under Kleene, forcing every later conjunct to
   run; here the first all-NULL conjunct is simply false and the AND
   stops. *)
let rec compile_true (layout : layout) (e : expr) : Value.t array -> bool =
  match e with
  | Binop (And, a, b) ->
    let fa = compile_true layout a and fb = compile_true layout b in
    fun row -> fa row && fb row
  | Binop (Or, a, b) ->
    let fa = compile_true layout a and fb = compile_true layout b in
    fun row -> fa row || fb row
  | Not e -> compile_false layout e
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), Col (q, n), Const c)
    when not (Value.is_null c) ->
    let i = resolve layout (q, n) in
    fun row ->
      let x = row.(i) in
      (not (Value.is_null x)) && cmp_holds op (cmp_values x c)
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), Col (qa, na), Col (qb, nb)) ->
    let i = resolve layout (qa, na) and j = resolve layout (qb, nb) in
    fun row ->
      let x = row.(i) in
      (not (Value.is_null x))
      &&
      let y = row.(j) in
      (not (Value.is_null y)) && cmp_holds op (cmp_values x y)
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun row ->
      let x = fa row in
      (not (Value.is_null x))
      &&
      let y = fb row in
      (not (Value.is_null y)) && cmp_holds op (cmp_values x y)
  | Is_null e ->
    let f = compile layout e in
    fun row -> Value.is_null (f row)
  | Is_not_null e ->
    let f = compile layout e in
    fun row -> not (Value.is_null (f row))
  | In_list (e, vs) ->
    let f = compile layout e in
    let set = Hashtbl.create (List.length vs) in
    List.iter (fun v -> Hashtbl.replace set v ()) vs;
    fun row ->
      let v = f row in
      (not (Value.is_null v)) && Hashtbl.mem set v
  | e ->
    let f = compile_tv layout e in
    fun row -> f row = T_true

and compile_false (layout : layout) (e : expr) : Value.t array -> bool =
  match e with
  | Binop (And, a, b) ->
    let fa = compile_false layout a and fb = compile_false layout b in
    fun row -> fa row || fb row
  | Binop (Or, a, b) ->
    let fa = compile_false layout a and fb = compile_false layout b in
    fun row -> fa row && fb row
  | Not e -> compile_true layout e
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), Col (q, n), Const c)
    when not (Value.is_null c) ->
    let i = resolve layout (q, n) in
    fun row ->
      let x = row.(i) in
      (not (Value.is_null x)) && not (cmp_holds op (cmp_values x c))
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun row ->
      let x = fa row in
      (not (Value.is_null x))
      &&
      let y = fb row in
      (not (Value.is_null y)) && not (cmp_holds op (cmp_values x y))
  | Is_null e ->
    let f = compile layout e in
    fun row -> not (Value.is_null (f row))
  | Is_not_null e ->
    let f = compile layout e in
    fun row -> Value.is_null (f row)
  | In_list (e, vs) ->
    let f = compile layout e in
    let set = Hashtbl.create (List.length vs) in
    List.iter (fun v -> Hashtbl.replace set v ()) vs;
    fun row ->
      let v = f row in
      (not (Value.is_null v)) && not (Hashtbl.mem set v)
  | e ->
    let f = compile_tv layout e in
    fun row -> f row = T_false

(** A compiled predicate: true only when the expression evaluates to SQL
    TRUE (Unknown filters the row out, per SQL semantics). *)
let compile_pred = compile_true

(** Evaluate a closed expression (no column references). *)
let eval_const e = compile [||] e [||]

(** The distinct layout positions [e] reads, sorted ascending.
    References that do not resolve against [layout] are skipped (the
    caller uses this to know which columns must be decoded before a
    compiled predicate may run on a row). *)
let referenced_cols (layout : layout) (e : expr) : int list =
  let acc = ref [] in
  let add q n =
    match resolve layout (q, n) with
    | i -> acc := i :: !acc
    | exception Unknown_column _ -> ()
  in
  let rec go = function
    | Const _ -> ()
    | Col (q, n) -> add q n
    | Binop (_, a, b) -> go a; go b
    | Not e | Is_null e | Is_not_null e | Like (e, _) | In_list (e, _) -> go e
    | Case (whens, els) ->
      List.iter (fun (c, v) -> go c; go v) whens;
      Option.iter go els
    | Coalesce es -> List.iter go es
    | Agg (_, arg, _) -> Option.iter go arg
  in
  go e;
  List.sort_uniq Int.compare !acc
