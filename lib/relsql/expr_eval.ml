(** Scalar expression evaluation with SQL three-valued logic.

    Expressions are compiled once against a column layout (the ordered
    visible columns of the operator's input) into closures over a
    {!row} view — a window onto one row of cell codes ({!Cell}) and the
    side buffer its side cells index — so per-row evaluation does no
    name resolution and reads the batch in place. Comparisons, IS NULL,
    IN, CASE and COALESCE over columns and inline constants work on the
    codes; only side cells and computed values are decoded. *)

open Sql_ast

(** Visible columns of an intermediate row: cell [i] of a row holds the
    column described by [layout.(i)]. *)
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

(** A row view: cell [j] of the row is [cells.(base + j)], and its side
    cells index [side]. Operators point one view at successive rows of
    a batch instead of copying them out. A view of a boxed table row
    sets [values] instead: cell [j] is then [values.(j)], encoded into
    [side] when an expression reads it, so a predicate over a boxed row
    encodes only the cells its short-circuit evaluation reaches. *)
type row = {
  mutable cells : int array;
  mutable base : int;
  mutable side : Cell.side;
  mutable values : Value.t array;  (* [||] unless the row is boxed *)
}

let view () = { cells = [||]; base = 0; side = Cell.side (); values = [||] }

(** A view of a row of values (encoded into a fresh side buffer). *)
let row_of_values (vs : Value.t array) =
  let side = Cell.side () in
  { cells = Array.map (Cell.encode side) vs; base = 0; side; values = [||] }

(* Cell [i] of the row under view [r]. *)
let[@inline] cell r i =
  let vs = r.values in
  if Array.length vs = 0 then r.cells.(r.base + i) else Cell.encode r.side vs.(i)

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

(* [cmp_values] of two non-null cells read in one side context. Two
   inline cells compare as ints: inline codes order Bool < Int < Lid
   like the type ranks, and Ints by value — exactly [cmp_values]. *)
let[@inline] cmp_cells side x y =
  if x < Cell.null || y < Cell.null then
    cmp_values (Cell.decode side x) (Cell.decode side y)
  else Int.compare x y

(* [cmp_values] of a non-null cell and a non-null value, without boxing
   an inline Int cell. *)
let cmp_cell_value side x v =
  if Cell.is_int x then
    match v with
    | Value.Int y -> Int.compare x y
    | Value.Real f -> Stdlib.compare (float_of_int x) f
    | _ -> cmp_values (Value.Int x) v
  else cmp_values (Cell.decode side x) v

(* A compiled comparison answers the sign of [cmp_values], or this when
   an operand is NULL. *)
let unknown = min_int

let cmp_holds op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Leq -> c <= 0
  | Gt -> c > 0
  | Geq -> c >= 0
  | And | Or | Add | Sub | Mul | Div | Concat -> assert false

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

(** How an operand is read: as a cell of the row's context (a column, an
    inline constant, or a CASE/COALESCE choosing among those), or as a
    computed value. *)
type operand = Code of (row -> Cell.t) | Value of (row -> Value.t)

let tv_value = function
  | T_true -> Value.Bool true
  | T_false -> Value.Bool false
  | T_unknown -> Value.Null

(* Membership of a cell in a literal list. IN is structural (the
   evaluator hashes the literals), and structural equality of two
   values with inline codes is equality of the codes. *)
let in_set vs =
  let set = Hashtbl.create (List.length vs) in
  List.iter (fun v -> Hashtbl.replace set v ()) vs;
  let codes =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun v ->
           let k = Cell.inline v in
           if k = Cell.boxed || k = Cell.null then None else Some k)
         vs)
  in
  let codes = Array.of_list codes in
  let n = Array.length codes in
  let mem_code k =
    let rec go i = i < n && (Array.unsafe_get codes i = k || go (i + 1)) in
    go 0
  in
  (set, mem_code)

(** Compile an expression into a closure over rows shaped by [layout].
    Raises {!Unknown_column} at compile time for unresolvable columns. *)
let rec compile (layout : layout) (e : expr) : row -> Value.t =
  match e with
  | Const v -> fun _ -> v
  | Col (q, n) ->
    let i = resolve layout (q, n) in
    fun r -> Cell.decode r.side (cell r i)
  | Binop (And, a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun r -> sql_and (fa r) (fb r)
  | Binop (Or, a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun r -> sql_or (fa r) (fb r)
  | Binop ((Eq | Neq | Lt | Leq | Gt | Geq), _, _) | In_list _ ->
    let f = compile_tv layout e in
    fun r -> tv_value (f r)
  | Binop (Concat, a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun r -> concat (fa r) (fb r)
  | Binop (((Add | Sub | Mul | Div) as op), a, b) ->
    let fa = compile layout a and fb = compile layout b in
    fun r -> arith op (fa r) (fb r)
  | Not e ->
    let f = compile layout e in
    fun r -> sql_not (f r)
  | Is_null e ->
    let f = compile_null layout e in
    fun r -> Value.Bool (f r)
  | Is_not_null e ->
    let f = compile_null layout e in
    fun r -> Value.Bool (not (f r))
  | Case (whens, els) -> (
    match compile_cell layout e with
    | Some f -> fun r -> Cell.decode r.side (f r)
    | None ->
      let whens =
        List.map (fun (c, v) -> (compile_tv layout c, compile layout v)) whens
      in
      let els = Option.map (compile layout) els in
      fun r ->
        let rec go = function
          | (c, v) :: rest -> (match c r with T_true -> v r | _ -> go rest)
          | [] -> (match els with Some f -> f r | None -> Value.Null)
        in
        go whens)
  | Coalesce es -> (
    match compile_cell layout e with
    | Some f -> fun r -> Cell.decode r.side (f r)
    | None ->
      let fs = List.map (compile layout) es in
      fun r ->
        let rec go = function
          | [] -> Value.Null
          | f :: rest ->
            let v = f r in
            if Value.is_null v then go rest else v
        in
        go fs)
  | Like (e, pattern) ->
    let f = compile layout e in
    fun r -> sql_like (f r) pattern
  | Agg _ ->
    invalid_arg
      "Expr_eval.compile: aggregate outside an aggregate select list"

(** The expression as a cell of the row's context, when it is one: a
    column, an inline constant, or a CASE/COALESCE over such. *)
and compile_cell (layout : layout) (e : expr) : (row -> Cell.t) option =
  match e with
  | Col (q, n) ->
    let i = resolve layout (q, n) in
    Some (fun r -> cell r i)
  | Const v ->
    let k = Cell.inline v in
    if k = Cell.boxed then None else Some (fun _ -> k)
  | Case (whens, els) -> (
    let arms = List.map (fun (c, v) -> (c, compile_cell layout v)) whens in
    let els =
      match els with None -> Some (fun _ -> Cell.null) | Some e -> compile_cell layout e
    in
    match els with
    | Some els when List.for_all (fun (_, f) -> f <> None) arms ->
      let arms =
        List.map (fun (c, f) -> (compile_tv layout c, Option.get f)) arms
      in
      Some
        (fun r ->
          let rec go = function
            | (c, f) :: rest -> (match c r with T_true -> f r | _ -> go rest)
            | [] -> els r
          in
          go arms)
    | _ -> None)
  | Coalesce es ->
    let fs = List.map (compile_cell layout) es in
    if List.for_all Option.is_some fs then
      let fs = List.map Option.get fs in
      Some
        (fun r ->
          let rec go = function
            | [] -> Cell.null
            | f :: rest ->
              let x = f r in
              if x = Cell.null then go rest else x
          in
          go fs)
    else None
  | _ -> None

and operand layout e =
  match compile_cell layout e with Some f -> Code f | None -> Value (compile layout e)

(* Whether the expression is NULL. *)
and compile_null layout e : row -> bool =
  match operand layout e with
  | Code f -> fun r -> f r = Cell.null
  | Value f -> fun r -> Value.is_null (f r)

(* [a] compared with [b]: the sign of [cmp_values], or [unknown]. A
   column against an inline constant or another column is the shape of
   every generated filter and join residual; it reads the cells in
   place and compares ints. *)
and compile_cmp layout a b : row -> int =
  match (a, b) with
  | _, Const v when Value.is_null v -> fun _ -> unknown
  | Const v, _ when Value.is_null v -> fun _ -> unknown
  | Const _, _ ->
    let f = compile_cmp layout b a in
    fun r ->
      let s = f r in
      if s = unknown then s else -s
  | Col (q, n), Const v ->
    let i = resolve layout (q, n) in
    let k = Cell.inline v in
    if k <> Cell.boxed then fun r ->
      let x = cell r i in
      if x = Cell.null then unknown
      else if x < Cell.null then cmp_values (Cell.side_value r.side x) v
      else Int.compare x k
    else fun r ->
      let x = cell r i in
      if x = Cell.null then unknown else cmp_cell_value r.side x v
  | Col (qa, na), Col (qb, nb) ->
    let i = resolve layout (qa, na) and j = resolve layout (qb, nb) in
    fun r ->
      let x = cell r i in
      if x = Cell.null then unknown
      else
        let y = cell r j in
        if y = Cell.null then unknown else cmp_cells r.side x y
  | _ -> (
    match (operand layout a, operand layout b) with
    | Code fa, Code fb ->
      fun r ->
        let x = fa r in
        if x = Cell.null then unknown
        else
          let y = fb r in
          if y = Cell.null then unknown else cmp_cells r.side x y
    | Code fa, Value fb ->
      fun r ->
        let x = fa r in
        if x = Cell.null then unknown
        else
          let v = fb r in
          if Value.is_null v then unknown else cmp_cell_value r.side x v
    | Value fa, Code fb ->
      fun r ->
        let v = fa r in
        if Value.is_null v then unknown
        else
          let y = fb r in
          if y = Cell.null then unknown else -cmp_cell_value r.side y v
    | Value fa, Value fb ->
      fun r ->
        let x = fa r in
        if Value.is_null x then unknown
        else
          let y = fb r in
          if Value.is_null y then unknown else cmp_values x y)

and compile_in layout e vs : row -> tv =
  let set, mem_code = in_set vs in
  match operand layout e with
  | Code f ->
    fun r ->
      let x = f r in
      if x = Cell.null then T_unknown
      else if
        if x < Cell.null then Hashtbl.mem set (Cell.side_value r.side x) else mem_code x
      then T_true
      else T_false
  | Value f ->
    fun r ->
      let v = f r in
      if Value.is_null v then T_unknown
      else if Hashtbl.mem set v then T_true
      else T_false

(* Predicates compile through an unboxed three-valued domain: the
   connectives and comparisons below never build a [Value.Bool] per row,
   which matters in scan and join inner loops where the filter runs once
   per candidate row. The constructors are immediates — no allocation. *)
and compile_tv (layout : layout) (e : expr) : row -> tv =
  match e with
  | Binop (And, a, b) ->
    let fa = compile_tv layout a and fb = compile_tv layout b in
    fun r ->
      (match fa r with
       | T_false -> T_false
       | T_true -> fb r
       | T_unknown -> (match fb r with T_false -> T_false | _ -> T_unknown))
  | Binop (Or, a, b) ->
    let fa = compile_tv layout a and fb = compile_tv layout b in
    fun r ->
      (match fa r with
       | T_true -> T_true
       | T_false -> fb r
       | T_unknown -> (match fb r with T_true -> T_true | _ -> T_unknown))
  | Not e ->
    let f = compile_tv layout e in
    fun r ->
      (match f r with
       | T_true -> T_false
       | T_false -> T_true
       | T_unknown -> T_unknown)
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), a, b) ->
    let c = compile_cmp layout a b in
    fun r ->
      let s = c r in
      if s = unknown then T_unknown else if cmp_holds op s then T_true else T_false
  | Is_null e ->
    let f = compile_null layout e in
    fun r -> if f r then T_true else T_false
  | Is_not_null e ->
    let f = compile_null layout e in
    fun r -> if f r then T_false else T_true
  | In_list (e, vs) -> compile_in layout e vs
  | e ->
    let f = compile layout e in
    fun r ->
      (match f r with
       | Value.Bool true -> T_true
       | Value.Bool false -> T_false
       | _ -> T_unknown)

(* [col = const] / [col <> const] against an inline constant, the leaf
   every generated star filter is made of: true when the cell is the
   constant's code, or a side cell comparing equal to it (a Real equal
   to an Int constant). *)
let eq_inline_leaf layout (q, n) v =
  let k = Cell.inline v in
  if k = Cell.boxed || k = Cell.null then None
  else
    let i = resolve layout (q, n) in
    Some
      (fun r ->
        let x = cell r i in
        x = k || (x < Cell.null && cmp_values (Cell.side_value r.side x) v = 0))

let neq_inline_leaf layout (q, n) v =
  let k = Cell.inline v in
  if k = Cell.boxed || k = Cell.null then None
  else
    let i = resolve layout (q, n) in
    Some
      (fun r ->
        let x = cell r i in
        x <> Cell.null
        && if x < Cell.null then cmp_values (Cell.side_value r.side x) v <> 0 else x <> k)

(* A comparison leaf holding ([want]) or failing ([not want]) — both
   false when an operand is NULL. *)
let cmp_pred layout op a b ~want : row -> bool =
  let inline_leaf =
    match (op, a, b) with
    | (Eq | Neq), Col (q, n), Const v | (Eq | Neq), Const v, Col (q, n) ->
      (if (op = Eq) = want then eq_inline_leaf else neq_inline_leaf) layout (q, n) v
    | _ -> None
  in
  match inline_leaf with
  | Some f -> f
  | None ->
    let c = compile_cmp layout a b in
    if want then fun r ->
      let s = c r in
      s <> unknown && cmp_holds op s
    else fun r ->
      let s = c r in
      s <> unknown && not (cmp_holds op s)

(* Two-valued predicate compilation: [compile_true e] holds exactly when
   the three-valued evaluation of [e] is TRUE, [compile_false e] exactly
   when it is FALSE; the pair is mutually recursive through NOT. A filter
   only keeps TRUE rows, so Unknown can collapse to "no" at every level
   — which restores boolean short-circuiting that Kleene logic forbids.
   On a sparse wide row (DPH: most cells NULL) an OR-chain conjunct
   evaluates to Unknown under Kleene, forcing every later conjunct to
   run; here the first all-NULL conjunct is simply false and the AND
   stops. *)
let rec compile_true (layout : layout) (e : expr) : row -> bool =
  match e with
  | Binop (And, a, b) ->
    let fa = compile_true layout a and fb = compile_true layout b in
    fun r -> fa r && fb r
  | Binop (Or, a, b) ->
    let fa = compile_true layout a and fb = compile_true layout b in
    fun r -> fa r || fb r
  | Not e -> compile_false layout e
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), a, b) -> cmp_pred layout op a b ~want:true
  | Is_null e -> compile_null layout e
  | Is_not_null e ->
    let f = compile_null layout e in
    fun r -> not (f r)
  | In_list (e, vs) ->
    let f = compile_in layout e vs in
    fun r -> f r = T_true
  | e ->
    let f = compile_tv layout e in
    fun r -> f r = T_true

and compile_false (layout : layout) (e : expr) : row -> bool =
  match e with
  | Binop (And, a, b) ->
    let fa = compile_false layout a and fb = compile_false layout b in
    fun r -> fa r || fb r
  | Binop (Or, a, b) ->
    let fa = compile_false layout a and fb = compile_false layout b in
    fun r -> fa r && fb r
  | Not e -> compile_true layout e
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), a, b) -> cmp_pred layout op a b ~want:false
  | Is_null e ->
    let f = compile_null layout e in
    fun r -> not (f r)
  | Is_not_null e -> compile_null layout e
  | In_list (e, vs) ->
    let f = compile_in layout e vs in
    fun r -> f r = T_false
  | e ->
    let f = compile_tv layout e in
    fun r -> f r = T_false

(** A compiled predicate: true only when the expression evaluates to SQL
    TRUE (Unknown filters the row out, per SQL semantics). *)
let compile_pred = compile_true

(** Evaluate a closed expression (no column references). *)
let eval_const e = compile [||] e (view ())

(** The distinct columns [e] reads, unresolved. *)
let column_refs (e : expr) : (string option * string) list =
  let rec go acc = function
    | Const _ -> acc
    | Col (q, n) ->
      if List.exists (fun (q', n') -> String.equal n n' && Option.equal String.equal q q') acc
      then acc
      else (q, n) :: acc
    | Binop (_, a, b) -> go (go acc a) b
    | Not e | Is_null e | Is_not_null e | Like (e, _) | In_list (e, _) -> go acc e
    | Case (whens, els) ->
      let acc = List.fold_left (fun acc (c, v) -> go (go acc c) v) acc whens in
      Option.fold ~none:acc ~some:(go acc) els
    | Coalesce es -> List.fold_left go acc es
    | Agg (_, arg, _) -> Option.fold ~none:acc ~some:(go acc) arg
  in
  go [] e
