(** Order-insensitive digests of query answers, so the harness keeps one
    small value per request instead of the result set (the reported heap
    peak is then the store's, not the harness's). Digesting allocates
    nothing, so it adds no garbage-collection work to the requests timed
    after it. *)

type t = { rows : int; a : int; b : int }

(** The digest of a statement that returns no rows (writes). *)
let none = { rows = 0; a = 0; b = 0 }

(* 63-bit finalizer (splitmix-style), so sums of row hashes do not
   cancel structurally. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x2851F42D4C957F2D in
  let x = (x lxor (x lsr 29)) * 0x1B873593 in
  x lxor (x lsr 32)

(* Structural hashes of the terms: equal terms hash equally in the
   engine's and the reference store's answers. *)
let term_hash = function
  | None -> 0x5bd1e995
  | Some t -> (Hashtbl.seeded_hash 17 t lsl 30) lxor Hashtbl.seeded_hash 91 t

let rec row_hash h = function
  | [] -> mix h
  | t :: rest -> row_hash (mix ((h * 31) + term_hash t)) rest

(** Digest of a row multiset: equal multisets give equal digests
    whatever the row order. *)
let of_rows rows =
  List.fold_left
    (fun d row ->
      let h = row_hash 1 row in
      { rows = d.rows + 1; a = d.a + h; b = d.b + mix h })
    none rows

(** What a digest of a query's answer must cover: a LIMIT makes any
    subset of the full answer legal, so such a digest covers the row
    count and, under ORDER BY, the sequence of projected sort keys — both
    of which every correct evaluator agrees on. *)
type shape = { limited : bool; order_vars : string list }

let shape_of (q : Sparql.Ast.query) =
  { limited = q.Sparql.Ast.limit <> None;
    order_vars =
      List.filter_map
        (fun (o : Sparql.Ast.order_cond) ->
          match o.Sparql.Ast.ord_expr with Sparql.Ast.E_var v -> Some v | _ -> None)
        q.Sparql.Ast.order_by }

let of_results shape (r : Sparql.Ref_eval.results) =
  if not shape.limited then of_rows r.Sparql.Ref_eval.rows
  else begin
    let keyed = List.map (fun v -> List.mem v shape.order_vars) r.Sparql.Ref_eval.vars in
    List.fold_left
      (fun d row ->
        let h = List.fold_left2 (fun h k t -> if k then mix ((h * 31) + term_hash t) else h) d.a keyed row in
        { d with rows = d.rows + 1; a = h })
      none r.Sparql.Ref_eval.rows
  end

let to_string d = Printf.sprintf "%d:%x:%x" d.rows d.a d.b
