(* The executor's cell codec: one int per value, side values in a
   per-batch buffer. Decoding restores every value bit for bit; code
   equality, hashing and order agree with Value's; comparisons compiled
   over codes agree with comparisons over values, on encoded rows and on
   boxed rows encoded as they are read; and batches keep their
   side values through joins, concatenation and permutation, at one and
   two domains. *)

open Relsql

let gen_value : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let edges = [ Cell.int_lo - 1; Cell.int_lo; Cell.int_lo + 1; Cell.int_hi - 1; Cell.int_hi;
                Cell.int_hi + 1; min_int; max_int; 0; -1; 1 ] in
  frequency
    [ (1, return Value.Null);
      (1, map (fun b -> Value.Bool b) bool);
      (4, map (fun i -> Value.Int i) (int_range (-5) 20));
      (2, map (fun i -> Value.Int i) (oneofl edges));
      (2, map (fun i -> Value.Lid i) (int_range 0 20));
      (1, map (fun i -> Value.Lid i) (oneofl edges));
      (2, map (fun i -> Value.Real (float_of_int i)) (int_range (-5) 20));
      (1, map (fun f -> Value.Real f) (oneofl [ 0.0; -0.0; 0.5; -2.5; 1e300; infinity; neg_infinity ]));
      (1,
       map
         (fun bits -> Value.Real (Int64.float_of_bits bits))
         (oneofl [ 0x7FF8000000000000L; 0x7FF8000000000001L; 0xFFF8000000000000L ]));
      (2, map (fun i -> Value.Str (Printf.sprintf "s%d" i)) (int_range 0 9)) ]

let arb_value = QCheck.make ~print:Value.to_string gen_value

(* Bit-exact value identity. *)
let same_value a b =
  match (a, b) with
  | Value.Real x, Value.Real y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Stdlib.compare a b = 0

let sign c = compare c 0

let round_trip =
  QCheck.Test.make ~name:"decode (encode v) = v, bit for bit" ~count:2000
    (QCheck.list arb_value) (fun vs ->
      let side = Cell.side () in
      let codes = List.map (Cell.encode side) vs in
      List.for_all2 (fun v c -> same_value v (Cell.decode side c)) vs codes
      && List.for_all2
           (fun v c -> (Cell.inline v <> Cell.boxed) = not (Cell.is_side c))
           vs codes)

let agrees_with_value =
  QCheck.Test.make ~name:"cell equality, hash and order agree with Value" ~count:3000
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      (* Each value in a context of its own, behind a side value of the
         other context, so equal side values sit at different slots. *)
      let sa = Cell.side () and sb = Cell.side () in
      ignore (Cell.add sb (Value.Str "pad"));
      let ca = Cell.encode sa a and cb = Cell.encode sb b in
      let eq = Value.equal a b in
      Cell.equal sa ca sb cb = eq
      && sign (Cell.compare sa ca sb cb) = sign (Value.compare a b)
      && ((not eq) || Cell.hash sa ca = Cell.hash sb cb)
      && (Cell.is_side ca || Cell.is_side cb
          || ((ca = cb) = eq && sign (Int.compare ca cb) = sign (Value.compare a b))))

(* The comparison semantics the evaluator had over values: Int/Real
   coerce, everything else orders by Value.compare. *)
let value_cmp a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> compare x y
  | _ -> (
    match (Value.as_float a, Value.as_float b) with
    | Some x, Some y -> compare x y
    | _ -> Value.compare a b)

let comparisons_agree =
  let open Sql_ast in
  let ops = [ Eq; Neq; Lt; Leq; Gt; Geq ] in
  QCheck.Test.make ~name:"code comparisons agree with value comparisons" ~count:2000
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      let layout : Expr_eval.layout = [| (None, "a"); (None, "b") |] in
      (* The same row as encoded cells and as a boxed row read cell by
         cell: both must answer as the value semantics do. *)
      let rows =
        [ Expr_eval.row_of_values [| a; b |]; { (Expr_eval.view ()) with values = [| a; b |] } ]
      in
      let holds op c =
        match op with
        | Eq -> c = 0 | Neq -> c <> 0 | Lt -> c < 0 | Leq -> c <= 0 | Gt -> c > 0
        | _ -> c >= 0
      in
      let want op = (not (Value.is_null a)) && (not (Value.is_null b)) && holds op (value_cmp a b) in
      let want_false op =
        (not (Value.is_null a)) && (not (Value.is_null b)) && not (holds op (value_cmp a b))
      in
      let a_col = Col (None, "a") and b_col = Col (None, "b") in
      List.for_all
        (fun op ->
          List.for_all
            (fun e ->
              List.for_all
                (fun row ->
                  Expr_eval.compile_pred layout e row = want op
                  && Expr_eval.compile_pred layout (Not e) row = want_false op)
                rows)
            [ Binop (op, a_col, b_col); Binop (op, a_col, Const b);
              Binop (op, Const a, b_col); Binop (op, Case ([ (Is_not_null a_col, a_col) ], None), b_col) ])
        ops
      (* IN is structural membership. *)
      && List.for_all
           (fun row ->
             Expr_eval.compile_pred layout (In_list (a_col, [ b ])) row
             = ((not (Value.is_null a)) && Stdlib.compare a b = 0))
           rows)

(* ------------------------------------------------------------------ *)
(* Batches with side values                                            *)
(* ------------------------------------------------------------------ *)

let layout n = Array.init n (fun j -> (None, Printf.sprintf "c%d" j))

let mixed i j =
  match (i + j) mod 5 with
  | 0 -> Value.Int i
  | 1 -> Value.Str (Printf.sprintf "r%d.%d" i j)
  | 2 -> Value.Real (float_of_int i +. 0.5)
  | 3 -> if i mod 2 = 0 then Value.Null else Value.Lid j
  | _ -> Value.Int (Cell.int_hi + i)

let check_rows what want got =
  Alcotest.(check int) (what ^ ": row count") (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) ->
      if not (Array.length w = Array.length g && Array.for_all2 same_value w g) then
        Alcotest.failf "%s: row %d differs" what i)
    (List.combine want got)

(* Per-morsel batches built by push_join, push_join_sel, push_padded and
   permute on a pool, reassembled by concat: the rows come back as a
   sequential model builds them, every side value intact. *)
let test_batches_across_domains () =
  let n = 300 in
  let outer = Batch.create (layout 2) in
  for i = 0 to n - 1 do
    Batch.push_row outer [| mixed i 0; mixed i 1 |]
  done;
  let inner i = [| mixed i 2; mixed i 3; mixed i 4 |] in
  let want =
    List.concat
      (List.init n (fun i ->
           let o = [| mixed i 0; mixed i 1 |] in
           if i mod 7 = 0 then [ Array.append o [| Value.Null; Value.Null |] ]
           else
             let r = inner i in
             [ Array.append o [| r.(0); r.(2) |]; Array.append o [| r.(2); r.(1) |] ]))
  in
  List.iter
    (fun domains ->
      let pool = Dpool.get domains in
      let morsels = 6 in
      let parts = Array.make morsels (Batch.create (layout 4)) in
      ignore
        (Dpool.run pool ~morsels (fun ~worker:_ m ->
             let out = Batch.create ~capacity:1 (layout 4) in
             let cells = Array.make 3 Cell.null and side = Cell.side () in
             for i = m * n / morsels to ((m + 1) * n / morsels) - 1 do
               if i mod 7 = 0 then Batch.push_padded out ~src:outer i
               else begin
                 Cell.clear side;
                 Array.iteri (fun j v -> cells.(j) <- Cell.encode side v) (inner i);
                 Batch.push_join_sel out ~src:outer i cells side [| 0; 2 |];
                 Batch.push_join_sel out ~src:outer i cells side [| 2; 1 |]
               end
             done;
             (* A permutation that reverses the morsel twice. *)
             let k = Batch.length out in
             let rev b = Batch.permute b (Array.init (Batch.length b) (fun j -> k - 1 - j)) in
             parts.(m) <- rev (rev out)));
      let all = Batch.concat (layout 4) parts in
      check_rows (Printf.sprintf "%d domains" domains) want (Batch.to_rows all);
      (* A whole-row join of the concatenated batch onto itself. *)
      let joined = Batch.create (layout 8) in
      for i = 0 to Batch.length all - 1 do
        let side = Batch.side all in
        let cells = Array.init 4 (fun j -> Batch.cell all i j) in
        Batch.push_join joined ~src:all i cells side 4
      done;
      check_rows
        (Printf.sprintf "%d domains, self join" domains)
        (List.map (fun r -> Array.append r r) want)
        (Batch.to_rows joined))
    [ 1; 2 ]

(* Cell.Tbl, the map behind column indexes and hash-join builds: a key
   given as a cell (in any side context) or as a value finds the binding
   of every Value.equal key, and only those; removal and iteration see
   the same keys. *)
let tbl_agrees_with_value =
  QCheck.Test.make ~name:"Cell.Tbl keys by Value.equal, as cell or value" ~count:1000
    (QCheck.pair (QCheck.list arb_value) (QCheck.list arb_value)) (fun (keys, probes) ->
      let t = Cell.Tbl.create 4 in
      let distinct = ref [] in
      List.iter
        (fun k ->
          if not (List.exists (Value.equal k) !distinct) then begin
            distinct := k :: !distinct;
            Cell.Tbl.add_value t k k
          end)
        keys;
      let side = Cell.side () in
      ignore (Cell.add side (Value.Str "pad"));
      let found_as_cell p =
        match Cell.Tbl.find t side (Cell.encode side p) with
        | k -> Some k
        | exception Not_found -> None
      in
      let found_as_value p =
        match Cell.Tbl.find_value t p with k -> Some k | exception Not_found -> None
      in
      let iterated = ref [] in
      Cell.Tbl.iter (fun k v -> iterated := (k, v) :: !iterated) t;
      Cell.Tbl.length t = List.length !distinct
      && List.for_all (fun (k, v) -> same_value k v) !iterated
      && List.for_all
           (fun p ->
             let want = List.find_opt (Value.equal p) !distinct in
             let same = Option.equal same_value want in
             same (found_as_cell p) && same (found_as_value p))
           (keys @ probes)
      && begin
        List.iter (fun k -> Cell.Tbl.remove_value t k) !distinct;
        Cell.Tbl.length t = 0
      end)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ round_trip; agrees_with_value; comparisons_agree; tbl_agrees_with_value ]
  @ [ Alcotest.test_case "batches keep side values across domains" `Quick
        test_batches_across_domains ]
