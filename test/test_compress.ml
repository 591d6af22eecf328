(** Compressed columnar storage: Packed encode/decode round-trips, SWAR
    equality scans, zone-map soundness, RLE postings, merge-round
    invariants — and the load-bearing property: bit-identical results
    between the compressed and uncompressed executors across the full
    domain counts on three table layouts. *)

let value_eq a b = Stdlib.compare a b = 0

(* ------------------------------------------------------------------ *)
(* Packed: encode/decode                                               *)
(* ------------------------------------------------------------------ *)

(** A mixed-type matrix spanning several zone blocks: NULLs, bools,
    small and negative ints, floats (including NaN and int-twins),
    strings and lids. *)
let mixed_cell rid pos =
  let open Relsql.Value in
  match pos with
  | 0 -> if rid mod 11 = 0 then Null else Int (rid mod 7)
  | 1 -> (
    match rid mod 5 with
    | 0 -> Real (float_of_int (rid mod 13))
    | 1 -> Real Float.nan
    | 2 -> Real (-2.5)
    | 3 -> Int (rid mod 13)
    | _ -> Null)
  | 2 -> Str (Printf.sprintf "s%d" (rid mod 17))
  | 3 -> if rid mod 3 = 0 then Bool (rid mod 2 = 0) else Lid (rid mod 9)
  | _ -> Int (-rid)

let mixed_pack ?(nrows = 2500) () =
  Relsql.Packed.pack ~ncols:5 ~nrows mixed_cell ~live:(fun _ -> true)

let test_pack_roundtrip () =
  let nrows = 2500 in
  let pk = mixed_pack ~nrows () in
  Alcotest.(check int) "nrows" nrows (Relsql.Packed.nrows pk);
  Alcotest.(check int) "ncols" 5 (Relsql.Packed.ncols pk);
  for rid = 0 to nrows - 1 do
    for pos = 0 to 4 do
      let want = mixed_cell rid pos in
      let got = Relsql.Packed.cell pk rid pos in
      if not (value_eq want got) then
        Alcotest.failf "cell (%d,%d): want %s got %s" rid pos
          (Relsql.Value.to_string want)
          (Relsql.Value.to_string got)
    done
  done;
  (* row and read_cols agree with cell *)
  let dst = Array.make 5 Relsql.Cell.null and side = Relsql.Cell.side () in
  for rid = 0 to nrows - 1 do
    let row = Relsql.Packed.row pk rid in
    Relsql.Cell.clear side;
    Relsql.Packed.read_cols pk rid [| 0; 2; 4 |] dst side;
    List.iter
      (fun pos ->
        if not (value_eq row.(pos) (Relsql.Packed.cell pk rid pos)) then
          Alcotest.failf "row (%d,%d) disagrees with cell" rid pos;
        if not (value_eq (Relsql.Cell.decode side dst.(pos)) row.(pos)) then
          Alcotest.failf "read_cols (%d,%d) disagrees with row" rid pos)
      [ 0; 2; 4 ]
  done

let test_pack_width_and_size () =
  (* A constant column needs exactly one bit per row (code 1, no NULL). *)
  let pk1 =
    Relsql.Packed.pack ~ncols:1 ~nrows:4096
      (fun _ _ -> Relsql.Value.Str "only")
      ~live:(fun _ -> true)
  in
  Alcotest.(check int) "constant column packs to 1 bit" 1
    (Relsql.Packed.col_bits pk1 0);
  (* A repetitive table is much smaller packed than boxed. *)
  let pk = mixed_pack () in
  Alcotest.(check bool) "packed_words < boxed_words" true
    (Relsql.Packed.packed_words pk < Relsql.Packed.boxed_words pk)

(* ------------------------------------------------------------------ *)
(* Packed: SWAR equality scan                                          *)
(* ------------------------------------------------------------------ *)

(** [iter_eq] over every probe constant and several [lo,hi) windows must
    select exactly the rows a compiled [col = const] predicate keeps. *)
let check_iter_eq_vs_pred pk layout pos const =
  let open Relsql.Sql_ast in
  let e = Binop (Eq, Col (None, snd layout.(pos)), Const const) in
  let keep = Relsql.Expr_eval.compile_pred layout e in
  let nrows = Relsql.Packed.nrows pk in
  let naive lo hi =
    let acc = ref [] in
    for rid = hi - 1 downto lo do
      if keep (Relsql.Expr_eval.row_of_values (Relsql.Packed.row pk rid)) then
        acc := rid :: !acc
    done;
    !acc
  in
  match Relsql.Packed.eq_codes pk pos const with
  | None -> () (* no exact code set; the executor falls back to [keep] *)
  | Some codes ->
    let codes = Array.of_list codes in
    List.iter
      (fun (lo, hi) ->
        let got = ref [] in
        Relsql.Packed.iter_eq pk pos codes lo hi (fun rid ->
            (* iter_eq over-approximates per word; confirm like the
               executor does, through the compiled predicate. *)
            let v = Relsql.Expr_eval.view () in
            v.Relsql.Expr_eval.cells <- Array.make (Relsql.Packed.ncols pk) Relsql.Cell.null;
            Relsql.Packed.read_cols pk rid
              (Array.init (Relsql.Packed.ncols pk) Fun.id)
              v.Relsql.Expr_eval.cells v.Relsql.Expr_eval.side;
            if keep v then got := rid :: !got);
        Alcotest.(check (list int))
          (Printf.sprintf "iter_eq %s [%d,%d)"
             (Relsql.Value.to_string const) lo hi)
          (naive lo hi) (List.rev !got))
      [ (0, nrows); (0, min 100 nrows); (nrows / 3, (2 * nrows) / 3); (7, 8) ]

let test_iter_eq_matches_naive () =
  let pk = mixed_pack () in
  let layout : Relsql.Expr_eval.layout =
    [| (None, "a"); (None, "b"); (None, "c"); (None, "d"); (None, "e") |]
  in
  let open Relsql.Value in
  List.iter
    (fun (pos, const) -> check_iter_eq_vs_pred pk layout pos const)
    [ (0, Int 3);
      (0, Int 99) (* absent *);
      (1, Real 4.0) (* matches both Real 4.0 and Int 4 cells *);
      (1, Int 4);
      (1, Real (-2.5));
      (1, Real Float.nan);
      (1, Real 1e300) (* beyond exact-int range *);
      (2, Str "s3");
      (2, Str "nope");
      (3, Bool true);
      (3, Lid 5) ]

let test_iter_eq_one_bit_column () =
  (* Width-1 columns take the [y <> ones] SWAR special case. *)
  let pk =
    Relsql.Packed.pack ~ncols:1 ~nrows:200
      (fun rid _ ->
        if rid mod 3 = 0 then Relsql.Value.Null else Relsql.Value.Int 42)
      ~live:(fun _ -> true)
  in
  Alcotest.(check int) "one bit" 1 (Relsql.Packed.col_bits pk 0);
  match Relsql.Packed.eq_codes pk 0 (Relsql.Value.Int 42) with
  | None -> Alcotest.fail "eq_codes on 1-bit column"
  | Some codes ->
    let codes = Array.of_list codes in
    let n = ref 0 in
    Relsql.Packed.iter_eq pk 0 codes 0 200 (fun rid ->
        Alcotest.(check bool) "only non-null rids" true (rid mod 3 <> 0);
        incr n);
    Alcotest.(check int) "all 42-rows visited" (200 - 67) !n

(* ------------------------------------------------------------------ *)
(* Packed: zone maps                                                   *)
(* ------------------------------------------------------------------ *)

(** Soundness: a block the compiled zone filter rejects must contain no
    row satisfying the predicate — checked over comparison, NULL and
    IN-list shapes, against a column that hides NaN in one block. *)
let test_zone_filter_sound () =
  let nrows = 4 * Relsql.Packed.block_rows in
  let cell rid _ =
    let block = rid / Relsql.Packed.block_rows in
    match block with
    | 0 -> Relsql.Value.Real (float_of_int (rid mod 50))
    | 1 -> Relsql.Value.Int (1000 + (rid mod 50))
    | 2 ->
      if rid mod 97 = 0 then Relsql.Value.Real Float.nan
      else Relsql.Value.Real (float_of_int (2000 + (rid mod 50)))
    | _ -> if rid mod 2 = 0 then Relsql.Value.Null else Relsql.Value.Str "zzz"
  in
  let pk = Relsql.Packed.pack ~ncols:1 ~nrows cell ~live:(fun _ -> true) in
  let layout : Relsql.Expr_eval.layout = [| (None, "x") |] in
  let open Relsql.Sql_ast in
  let x = Col (None, "x") in
  let exprs =
    [ Binop (Lt, x, Const (Relsql.Value.Real 0.));
      Binop (Gt, x, Const (Relsql.Value.Int 1999));
      Binop (Leq, Const (Relsql.Value.Int 1000), x);
      Binop (Eq, x, Const (Relsql.Value.Real 25.));
      Is_null x;
      Is_not_null x;
      In_list (x, [ Relsql.Value.Int 1010; Relsql.Value.Str "zzz" ]);
      Binop
        ( And,
          Binop (Geq, x, Const (Relsql.Value.Int 0)),
          Binop (Lt, x, Const (Relsql.Value.Int 100)) ) ]
  in
  let scratch = Array.make 1 Relsql.Value.Null in
  List.iter
    (fun e ->
      let zone_ok = Relsql.Packed.compile_zone_filter pk layout e in
      let keep = Relsql.Expr_eval.compile_pred layout e in
      let pruned = ref 0 in
      for bi = 0 to Relsql.Packed.block_count pk - 1 do
        if not (zone_ok bi) then begin
          incr pruned;
          let lo = bi * Relsql.Packed.block_rows in
          let hi = min nrows (lo + Relsql.Packed.block_rows) in
          for rid = lo to hi - 1 do
            scratch.(0) <- Relsql.Packed.cell pk rid 0;
            if keep (Relsql.Expr_eval.row_of_values scratch) then
              Alcotest.failf "zone filter pruned a matching row %d" rid
          done
        end
      done;
      ignore !pruned)
    exprs;
  (* and at least one of those predicates actually prunes something *)
  let zone_ok =
    Relsql.Packed.compile_zone_filter pk layout
      (Binop (Gt, x, Const (Relsql.Value.Int 5000)))
  in
  Alcotest.(check bool) "x > 5000 prunes the first block" false (zone_ok 0)

let test_eq_prefilter () =
  let pk = mixed_pack () in
  let layout : Relsql.Expr_eval.layout =
    [| (None, "a"); (None, "b"); (None, "c"); (None, "d"); (None, "e") |]
  in
  let open Relsql.Sql_ast in
  (* top-level conjunct with an equality over a dictionary column *)
  let e =
    Binop
      ( And,
        Binop (Eq, Col (None, "c"), Const (Relsql.Value.Str "s3")),
        Is_not_null (Col (None, "a")) )
  in
  (match Relsql.Packed.eq_prefilter pk layout e with
   | None -> Alcotest.fail "prefilter should fire on c = 's3'"
   | Some (pos, codes) ->
     Alcotest.(check int) "prefilter picks column c" 2 pos;
     Alcotest.(check bool) "non-empty code set" true (Array.length codes > 0));
  (* an equality that can never match proves the scan empty *)
  match
    Relsql.Packed.eq_prefilter pk layout
      (Binop (Eq, Col (None, "c"), Const (Relsql.Value.Str "missing")))
  with
  | Some (_, [||]) -> ()
  | Some _ -> Alcotest.fail "absent constant should yield empty codes"
  | None -> Alcotest.fail "prefilter should resolve absent constants"

(* ------------------------------------------------------------------ *)
(* Packed: value-ordered codes                                         *)
(* ------------------------------------------------------------------ *)

(* Cells that stress the value order: Ints and their Real twins
   ([1] next to [1.0]), NaNs with different payloads, [0.0] and
   [-0.0], Reals past 2^53, negative ints, strings, lids and bools. *)
let gen_value : Relsql.Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Relsql.Value in
  frequency
    [ (1, return Null);
      (4, map (fun i -> Int i) (int_range (-3) 12));
      (3, map (fun i -> Real (float_of_int i)) (int_range (-3) 12));
      (1, map (fun f -> Real f) (oneofl [ 0.0; -0.0; 0.5; -2.5; 1e300; 9007199254740994.0 ]));
      (1,
       map
         (fun bits -> Real (Int64.float_of_bits bits))
         (oneofl [ 0x7FF8000000000000L; 0x7FF8000000000001L; 0xFFF8000000000000L ]));
      (2, map (fun i -> Str (Printf.sprintf "s%d" i)) (int_range 0 9));
      (2, map (fun i -> Lid i) (int_range 0 6));
      (1, map (fun b -> Bool b) bool) ]

(* Bit-exact value equality: [0.0] and [-0.0], or two NaN payloads,
   are different representatives. *)
let same_value a b =
  match (a, b) with
  | Relsql.Value.Real x, Relsql.Value.Real y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Stdlib.compare a b = 0

(* The pre-sorted-dictionary candidate-code search, kept as the
   reference: scan the whole decode array with Value.equal. *)
let linear_eq_codes (c : Relsql.Packed.col) v =
  let structural v acc =
    if c.Relsql.Packed.direct then
      match v with
      | Relsql.Value.Int x when x >= 0 && x <= c.Relsql.Packed.dmax -> (x + 1) :: acc
      | _ -> acc
    else begin
      let acc = ref acc in
      for i = Array.length c.Relsql.Packed.decode - 1 downto 0 do
        if Relsql.Value.equal c.Relsql.Packed.decode.(i) v then acc := (i + 1) :: !acc
      done;
      !acc
    end
  in
  match v with
  | Relsql.Value.Null -> Some []
  | Relsql.Value.Int x ->
    Some (structural (Relsql.Value.Real (float_of_int x)) (structural v []))
  | Relsql.Value.Real f ->
    let bound = float_of_int Relsql.Packed.max_exact_float_int in
    if Float.is_integer f && Float.abs f > bound then None
    else
      let acc = structural v [] in
      Some
        (if Float.is_integer f then structural (Relsql.Value.Int (int_of_float f)) acc
         else acc)
  | _ -> Some (structural v [])

let eq_codes_vs_linear =
  QCheck.Test.make ~name:"eq_codes_col ≡ linear decode scan" ~count:300
    QCheck.(
      make
        ~print:(fun (cells, probes) ->
          String.concat " " (List.map Relsql.Value.to_string cells)
          ^ " | "
          ^ String.concat " " (List.map Relsql.Value.to_string probes))
        Gen.(pair (list_size (int_range 1 300) gen_value) (list_size (int_range 1 20) gen_value)))
    (fun (cells, probes) ->
      let cells = Array.of_list cells in
      let pk =
        Relsql.Packed.pack ~ncols:1 ~nrows:(Array.length cells)
          (fun rid _ -> cells.(rid))
          ~live:(fun _ -> true)
      in
      (match Relsql.Packed.check pk ~live:(fun _ -> true) ~exact:true with
       | Ok () -> ()
       | Error m -> QCheck.Test.fail_report m);
      let c = pk.Relsql.Packed.cols.(0) in
      let sorted = Option.map (List.sort Int.compare) in
      List.for_all
        (fun v ->
          sorted (Relsql.Packed.eq_codes_col c v) = sorted (linear_eq_codes c v))
        (probes @ Array.to_list cells))

(* Bit-exact image equality: widths, words, decode representatives and
   every zone field. *)
let same_image what (a : Relsql.Packed.t) (b : Relsql.Packed.t) =
  let open Relsql.Packed in
  let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let same_zone z w =
    z.z_nonnull = w.z_nonnull && z.z_nulls = w.z_nulls && z.z_nnum = w.z_nnum
    && same_float z.z_num_lo w.z_num_lo && same_float z.z_num_hi w.z_num_hi
    && z.z_has_nan = w.z_has_nan && same_value z.z_lo w.z_lo && same_value z.z_hi w.z_hi
  in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "%s: %s" what m) fmt in
  if a.nrows <> b.nrows || Array.length a.cols <> Array.length b.cols then fail "shape";
  Array.iteri
    (fun pos c ->
      let d = b.cols.(pos) in
      if c.width <> d.width || c.direct <> d.direct || c.dmax <> d.dmax then
        fail "column %d: width %d/%d direct %b/%b dmax %d/%d" pos c.width d.width c.direct
          d.direct c.dmax d.dmax;
      if c.words <> d.words then fail "column %d: words" pos;
      if Array.length c.decode <> Array.length d.decode
         || not (Array.for_all2 same_value c.decode d.decode)
      then fail "column %d: decode" pos;
      if Array.length c.zones <> Array.length d.zones
         || not (Array.for_all2 same_zone c.zones d.zones)
      then fail "column %d: zones" pos;
      if c.boxed_cell_words <> d.boxed_cell_words then fail "column %d: boxed words" pos)
    a.cols;
  true

type write =
  | Insert of int  (* rows, drawn from the next values of the stream *)
  | Delete of int  (* slot, modulo the slot count *)
  | Set of int * int  (* slot, column *)
  | Flip of int  (* slot whose id column gets a lid or a negative int *)
  | Jump  (* one row whose id is twice the slot count *)
  | Merge

(* Column 0 holds the slot's own id, so it stays Direct and widens as
   the table grows, until a [Jump] id needs a wider field than the
   distinct count does (Direct -> Dict, and back once the ids catch
   up); column 1 dense ids until a [Flip] lands; column 2 the mixed
   cells of [gen_value]; column 3 strings (Dict). *)
let merge_cell g ~slots col =
  let open Relsql.Value in
  match col with
  | 0 -> Int slots
  | 1 -> if QCheck.Gen.int_bound 20 g = 0 then Null else Int (QCheck.Gen.int_bound slots g)
  | 2 -> gen_value g
  | _ -> Str (Printf.sprintf "v%03d" (QCheck.Gen.int_bound 400 g))

(** Random writes and merges over a table, mirrored cell for cell into
    a boxed model of its slots (dead ones included). After every merge
    the packed main must equal, bit for bit, the model's cells packed
    from scratch — so no write, width growth or Direct/Dict flip leaves
    a trace of the order of merges that led to it, and each value class
    decodes to its first occurrence in slot order. *)
let merge_vs_pack =
  QCheck.Test.make ~name:"Table.merge ≡ packing the same cells from scratch" ~count:60
    QCheck.(
      make
        ~print:(fun (seed, ws) ->
          Printf.sprintf "seed %d: %s" seed
            (String.concat " "
               (List.map
                  (function
                    | Insert n -> Printf.sprintf "I%d" n
                    | Delete r -> Printf.sprintf "D%d" r
                    | Set (r, c) -> Printf.sprintf "S%d/%d" r c
                    | Flip r -> Printf.sprintf "F%d" r
                    | Jump -> "J"
                    | Merge -> "M")
                  ws)))
        Gen.(
          pair int
            (list_size (int_range 1 40)
               (frequency
                  [ (3, map (fun n -> Insert n) (int_range 1 700));
                    (3, map (fun r -> Delete r) nat);
                    (3, map2 (fun r c -> Set (r, c)) nat (int_bound 3));
                    (1, map (fun r -> Flip r) nat);
                    (1, return Jump);
                    (3, return Merge) ]))))
    (fun (seed, writes) ->
      let g = Random.State.make [| seed |] in
      let t = Relsql.Table.create "M" (Relsql.Schema.make [ "id"; "flip"; "mixed"; "str" ]) in
      let model = ref [||] in
      let set rid pos v =
        let rid' = Relsql.Table.set_cell t rid pos v in
        if rid' <> rid then begin
          let row = Array.copy !model.(rid) in
          row.(pos) <- v;
          model := Array.append !model [| row |]
        end
        else if not (Relsql.Value.equal !model.(rid).(pos) v) then !model.(rid).(pos) <- v
      in
      let check_merged () =
        Relsql.Table.merge t;
        Relsql.Table.check t;
        let n = Relsql.Table.slot_count t in
        n = 0
        || same_image "merge vs pack" (Relsql.Table.packed_view t)
             (Relsql.Packed.pack ~ncols:4 ~nrows:n
                (fun rid pos -> !model.(rid).(pos))
                ~live:(Relsql.Table.is_live t))
      in
      List.for_all
        (fun w ->
          let n = Relsql.Table.slot_count t in
          let insert rows =
            Array.iter (fun row -> ignore (Relsql.Table.insert t (Array.copy row))) rows;
            model := Array.append !model rows
          in
          (match w with
           | Insert k -> insert (Array.init k (fun i -> Array.init 4 (merge_cell g ~slots:(n + i))))
           | Jump ->
             let row = Array.init 4 (merge_cell g ~slots:n) in
             row.(0) <- Relsql.Value.Int ((2 * n) + 1);
             insert [| row |]
           | Delete r -> if n > 0 then Relsql.Table.delete_row t (r mod n)
           | Set (r, c) ->
             if n > 0 && Relsql.Table.is_live t (r mod n) then
               set (r mod n) c (merge_cell g ~slots:n c)
           | Flip r ->
             if n > 0 && Relsql.Table.is_live t (r mod n) then
               set (r mod n) 1
                 (if r mod 2 = 0 then Relsql.Value.Lid 3 else Relsql.Value.Int (-1))
           | Merge -> ());
          w <> Merge || check_merged ())
        writes
      && check_merged ())

(** A DPH-shaped table whose second predicate/value pair never holds a
    value and whose first rarely does: merges must copy the all-NULL
    columns' unchanged words and keep the zones of blocks that lost no
    slot, and the image must still equal the same cells packed from
    scratch — over inserts that span several blocks, deletes, cell
    writes (which relocate main rows) and merges. *)
let merge_vs_pack_null_columns =
  QCheck.Test.make ~name:"Table.merge ≡ packing, all-NULL columns" ~count:40
    QCheck.(
      make
        ~print:(fun (seed, ws) ->
          Printf.sprintf "seed %d: %s" seed
            (String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%d:%d" k n) ws)))
        Gen.(pair int (list_size (int_range 1 25) (pair (int_bound 3) (int_range 1 1500)))))
    (fun (seed, writes) ->
      let g = Random.State.make [| seed |] in
      let cols = [ "entry"; "pred0"; "val0"; "pred1"; "val1" ] in
      let t = Relsql.Table.create "DPH" (Relsql.Schema.make cols) in
      let model = ref [||] in
      let cell ~slot pos =
        let open Relsql.Value in
        match pos with
        | 0 -> Int slot
        | 1 -> if Random.State.int g 8 = 0 then Int 7 else Null
        | 2 -> if Random.State.int g 8 = 0 then Int (Random.State.int g 50) else Null
        | _ -> Null
      in
      let check_merged () =
        Relsql.Table.merge t;
        Relsql.Table.check t;
        let n = Relsql.Table.slot_count t in
        n = 0
        || same_image "merge vs pack" (Relsql.Table.packed_view t)
             (Relsql.Packed.pack ~ncols:5 ~nrows:n
                (fun rid pos -> !model.(rid).(pos))
                ~live:(Relsql.Table.is_live t))
      in
      List.for_all
        (fun (kind, k) ->
          let n = Relsql.Table.slot_count t in
          match kind with
          | 0 ->
            let rows = Array.init k (fun i -> Array.init 5 (cell ~slot:(n + i))) in
            Array.iter (fun row -> ignore (Relsql.Table.insert t (Array.copy row))) rows;
            model := Array.append !model rows;
            true
          | 1 ->
            (* a few deletes, clustered so most blocks lose nothing *)
            if n > 0 then
              for j = 0 to (k mod 5) do
                Relsql.Table.delete_row t ((k + j) mod n)
              done;
            true
          | 2 ->
            if n > 0 && Relsql.Table.is_live t (k mod n) then begin
              let rid = k mod n and v = Relsql.Value.Int (k mod 50) in
              let rid' = Relsql.Table.set_cell t rid 2 v in
              if rid' <> rid then begin
                let row = Array.copy !model.(rid) in
                row.(2) <- v;
                model := Array.append !model [| row |]
              end
              else !model.(rid).(2) <- v
            end;
            true
          | _ -> check_merged ())
        writes
      && check_merged ())

(* ------------------------------------------------------------------ *)
(* Table: merge rounds / postings                                      *)
(* ------------------------------------------------------------------ *)

let make_keyed_table () =
  let db = Relsql.Database.create "t" in
  let t = Relsql.Database.create_table db "T" (Relsql.Schema.make [ "k"; "v" ]) in
  Relsql.Table.create_index_on t "k";
  (* keys in sorted runs so the postings are RLE-compressible *)
  for k = 0 to 2 do
    for i = 0 to 999 do
      ignore
        (Relsql.Table.insert t
           [| Relsql.Value.Int k; Relsql.Value.Int (i mod 10) |])
    done
  done;
  t

let test_merge_postings_roundtrip () =
  let t = make_keyed_table () in
  let want =
    List.map (fun k -> Relsql.Table.lookup t 0 (Relsql.Value.Int k)) [ 0; 1; 2 ]
  in
  Relsql.Table.merge t;
  Relsql.Table.check t;
  Alcotest.(check bool) "frozen" true (Relsql.Table.frozen t);
  List.iteri
    (fun k w ->
      Alcotest.(check (array int))
        (Printf.sprintf "lookup k=%d survives the merge" k)
        w
        (Relsql.Table.lookup t 0 (Relsql.Value.Int k));
      let via_iter = ref [] in
      Relsql.Table.lookup_iter t 0 (Relsql.Value.Int k) (fun rid ->
          via_iter := rid :: !via_iter);
      Alcotest.(check (list int)) "lookup_iter agrees" (Array.to_list w)
        (List.rev !via_iter))
    want;
  (* the report shows run-compressed postings and a real size win *)
  let r = Relsql.Table.compression_report t in
  Alcotest.(check bool) "report frozen" true r.Relsql.Table.r_frozen;
  Alcotest.(check bool) "posting words < entries" true
    (r.Relsql.Table.r_posting_words < r.Relsql.Table.r_posting_entries);
  Alcotest.(check bool) "packed bytes < boxed bytes" true
    (r.Relsql.Table.r_packed_bytes < r.Relsql.Table.r_boxed_bytes)

(* A merged table must be indistinguishable from a boxed copy of the
   same slots (dead ones included, so rids and blocks line up) merged
   fresh: same live rows, postings, column widths, zone maps and packed
   codes. *)
let assert_merged_like_fresh what t =
  let n = Relsql.Table.slot_count t in
  let fresh = Relsql.Table.create "fresh" (Relsql.Table.schema t) in
  List.iter (Relsql.Table.create_index fresh) (Relsql.Table.indexed_columns t);
  for rid = 0 to n - 1 do
    ignore (Relsql.Table.insert fresh (Array.copy (Relsql.Table.get t rid)))
  done;
  for rid = 0 to n - 1 do
    if not (Relsql.Table.is_live t rid) then Relsql.Table.delete_row fresh rid
  done;
  Relsql.Table.merge fresh;
  let rows tb = Relsql.Table.fold (fun acc rid row -> (rid, row) :: acc) [] tb in
  Alcotest.(check bool) (what ^ ": rows") true (rows t = rows fresh);
  let keys = Hashtbl.create 16 in
  Relsql.Table.iter (fun _ row -> Hashtbl.replace keys row.(0) ()) t;
  Hashtbl.iter
    (fun k () ->
      Alcotest.(check (array int)) (what ^ ": posting")
        (Relsql.Table.lookup fresh 0 k) (Relsql.Table.lookup t 0 k))
    keys;
  let r = Relsql.Table.compression_report t
  and rf = Relsql.Table.compression_report fresh in
  Alcotest.(check (pair int int)) (what ^ ": posting words")
    (rf.Relsql.Table.r_posting_entries, rf.Relsql.Table.r_posting_words)
    (r.Relsql.Table.r_posting_entries, r.Relsql.Table.r_posting_words);
  Alcotest.(check (list (pair string int))) (what ^ ": column widths")
    rf.Relsql.Table.r_col_bits r.Relsql.Table.r_col_bits;
  let pk = Relsql.Table.packed_view t and pkf = Relsql.Table.packed_view fresh in
  Alcotest.(check int) (what ^ ": packed main covers every slot") n
    (Relsql.Packed.nrows pk);
  Array.iteri
    (fun i (c : Relsql.Packed.col) ->
      let cf = pkf.Relsql.Packed.cols.(i) in
      Alcotest.(check bool) (what ^ ": zone maps") true
        (c.Relsql.Packed.zones = cf.Relsql.Packed.zones);
      Alcotest.(check bool) (what ^ ": packed codes") true
        (c.Relsql.Packed.words = cf.Relsql.Packed.words
        && c.Relsql.Packed.decode = cf.Relsql.Packed.decode))
    pk.Relsql.Packed.cols

(* Every write and every merge moves the epoch; the self-check holds
   after each. *)
let epoch_moves what t f =
  let e0 = Relsql.Table.epoch t in
  let r = f () in
  Alcotest.(check bool) (what ^ " bumps the epoch") true
    (Relsql.Table.epoch t > e0);
  Relsql.Table.check t;
  r

let test_merge_round_invariants () =
  let t = make_keyed_table () in
  Relsql.Table.check t;
  Alcotest.(check int) "a new table is all delta" 0 (Relsql.Table.main_slots t);
  Alcotest.(check int) "delta holds every slot" (Relsql.Table.slot_count t)
    (Relsql.Table.delta_rows t);
  let row_before = Array.copy (Relsql.Table.get t 1234) in
  epoch_moves "first merge" t (fun () -> Relsql.Table.merge t);
  Alcotest.(check bool) "packed main present" true (Relsql.Table.frozen t);
  Alcotest.(check int) "first merge counted" 1 (Relsql.Table.merge_count t);
  Alcotest.(check bool) "packed reads match"
    true
    (value_eq (Array.to_list row_before)
       (Array.to_list (Relsql.Table.get t 1234)));
  (* A merge with nothing pending is a no-op: same epoch, same count. *)
  let e = Relsql.Table.epoch t in
  Relsql.Table.merge t;
  Alcotest.(check int) "idle merge keeps the epoch" e (Relsql.Table.epoch t);
  Alcotest.(check int) "idle merge not counted" 1 (Relsql.Table.merge_count t);
  (* delete on the packed main punches a tombstone into the alive
     bitmap instead of re-encoding, and the write is visible in the
     delta accounting for [rdfstore stats] reporting *)
  let live0 = Relsql.Table.row_count t in
  epoch_moves "delete" t (fun () -> Relsql.Table.delete_row t 42);
  Alcotest.(check bool) "delete keeps the packed main" true
    (Relsql.Table.frozen t);
  Alcotest.(check int) "tombstone counted" 1
    (Relsql.Table.main_tombstones t);
  Alcotest.(check int) "row_count drops" (live0 - 1)
    (Relsql.Table.row_count t);
  Alcotest.(check bool) "deleted rid filtered from lookup" false
    (Array.exists (( = ) 42) (Relsql.Table.lookup t 0 (Relsql.Value.Int 0)));
  Alcotest.(check bool) "packed reads match after delete" true
    (value_eq (Array.to_list row_before)
       (Array.to_list (Relsql.Table.get t 1234)));
  (* insert appends to the boxed delta side *)
  let rid =
    epoch_moves "insert" t (fun () ->
        Relsql.Table.insert t [| Relsql.Value.Int 7; Relsql.Value.Null |])
  in
  Alcotest.(check int) "insert lands delta-side" 1
    (Relsql.Table.delta_rows t);
  Alcotest.(check bool) "delta rid beyond the packed main" true
    (rid >= Relsql.Table.main_slots t);
  Alcotest.(check bool) "packed reads match" true
    (value_eq (Array.to_list row_before)
       (Array.to_list (Relsql.Table.get t 1234)));
  Alcotest.(check (array int)) "new key indexed" [| rid |]
    (Relsql.Table.lookup t 0 (Relsql.Value.Int 7));
  (* equal-value writes change nothing *)
  let e = Relsql.Table.epoch t in
  Alcotest.(check int) "equal write keeps the rid" 1234
    (Relsql.Table.set_cell t 1234 0 row_before.(0));
  Alcotest.(check int) "equal write keeps the epoch" e (Relsql.Table.epoch t);
  (* merge folds the delta back into a fresh packed main *)
  let live1 = Relsql.Table.row_count t in
  epoch_moves "merge" t (fun () -> Relsql.Table.merge t);
  Alcotest.(check int) "merge empties the delta" 0
    (Relsql.Table.delta_rows t + Relsql.Table.main_tombstones t);
  Alcotest.(check int) "merge counted" 2 (Relsql.Table.merge_count t);
  Alcotest.(check int) "merge preserves row_count" live1
    (Relsql.Table.row_count t);
  Alcotest.(check bool) "reads match after merge" true
    (value_eq (Array.to_list row_before)
       (Array.to_list (Relsql.Table.get t 1234)));
  Alcotest.(check bool) "new key still indexed post-merge" true
    (Array.length (Relsql.Table.lookup t 0 (Relsql.Value.Int 7)) = 1);
  assert_merged_like_fresh "merge" t;
  (* repeated rounds of every write kind — main tombstone, delta
     append, main relocation on the indexed column, in-place delta
     update, delta tombstone — each checked, then re-packed *)
  for round = 1 to 3 do
    let what = Printf.sprintf "round %d" round in
    epoch_moves (what ^ " main delete") t (fun () ->
        Relsql.Table.delete_row t (100 * round));
    let r1 =
      epoch_moves (what ^ " insert") t (fun () ->
          Relsql.Table.insert t
            [| Relsql.Value.Int (10 + round); Relsql.Value.Int round |])
    in
    let r2 =
      epoch_moves (what ^ " insert") t (fun () ->
          Relsql.Table.insert t [| Relsql.Value.Int 1; Relsql.Value.Null |])
    in
    let moved =
      epoch_moves (what ^ " relocation") t (fun () ->
          Relsql.Table.set_cell t (500 + round) 0 (Relsql.Value.Int (20 + round)))
    in
    Alcotest.(check bool) "main write relocates" true
      (moved >= Relsql.Table.main_slots t);
    Alcotest.(check int) "delta write stays in place" r1
      (epoch_moves (what ^ " delta update") t (fun () ->
           Relsql.Table.set_cell t r1 1 (Relsql.Value.Str "x")));
    epoch_moves (what ^ " delta delete") t (fun () ->
        Relsql.Table.delete_row t r2);
    epoch_moves (what ^ " merge") t (fun () -> Relsql.Table.merge t);
    Alcotest.(check int) (what ^ ": counted") (2 + round)
      (Relsql.Table.merge_count t);
    assert_merged_like_fresh what t
  done

(* The shared merge policy: due once the pending delta rows and main
   tombstones exceed both the floor and a quarter of the main. *)
let test_merge_policy () =
  let t = Relsql.Table.create "P" (Relsql.Schema.make [ "k" ]) in
  let add n =
    for i = 1 to n do
      ignore (Relsql.Table.insert t [| Relsql.Value.Int i |])
    done
  in
  add 16;
  Alcotest.(check bool) "16 delta rows are under the floor" false
    (Relsql.Table.merge_due t);
  add 1;
  Alcotest.(check bool) "17 delta rows over an empty main" true
    (Relsql.Table.merge_due t);
  add 183;
  Relsql.Table.merge t;
  Alcotest.(check int) "main of 200" 200 (Relsql.Table.main_slots t);
  add 50;
  Alcotest.(check bool) "a quarter of the main is not yet due" false
    (Relsql.Table.merge_due t);
  Relsql.Table.delete_row t 0;
  Alcotest.(check bool) "one main tombstone more is" true
    (Relsql.Table.merge_due t)

(* ------------------------------------------------------------------ *)
(* Executor: compressed ≡ uncompressed matrix                          *)
(* ------------------------------------------------------------------ *)

let with_tiny_morsels f =
  let saved = !Relsql.Executor.par_min_rows in
  Relsql.Executor.par_min_rows := 2;
  Fun.protect
    ~finally:(fun () -> Relsql.Executor.par_min_rows := saved)
    f

let batch_strings b =
  List.map
    (fun row ->
      String.concat "\t"
        (List.map Relsql.Value.to_string (Array.to_list row)))
    (Relsql.Batch.to_rows b)

(** Run every query uncompressed (sequential) for a baseline, merge the
    whole database, and demand row-for-row, order-included equality at
    every domain count (hash-join builds of 1, 4, 8 and 16 radix
    partitions). *)
let check_matrix name ~layout triples queries =
  with_tiny_morsels (fun () ->
      let e, _, _ = Db2rdf.Engine.create_colored ~layout triples in
      let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
      let stmts =
        List.map
          (fun (n, src) ->
            (n, Db2rdf.Engine.translate e (Sparql.Parser.parse src)))
          queries
      in
      let baseline =
        List.map
          (fun (n, stmt) ->
            (n, batch_strings (Relsql.Executor.run ~domains:1 db stmt)))
          stmts
      in
      ignore (Relsql.Database.merge_all db);
      Relsql.Database.check db;
      List.iter
        (fun domains ->
          List.iter2
            (fun (n, stmt) (_, expect) ->
              let got = batch_strings (Relsql.Executor.run ~domains db stmt) in
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s: compressed d=%d ≡ boxed" name n domains)
                expect got)
            stmts baseline)
        [ 1; 2; 4; 8 ])

let par_queries =
  [ ("scan", "SELECT ?s ?o WHERE { ?s ?p ?o }");
    ("sort", "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s");
    ("sort-window",
     "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) LIMIT 37 OFFSET 11");
    ("distinct", "SELECT DISTINCT ?p WHERE { ?s ?p ?o }");
    ("join",
     "SELECT ?a ?b ?v WHERE { ?a <http://microbench.org/SV1> ?b . \
      ?a <http://microbench.org/SV2> ?v }");
    ("group-count",
     "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p");
    ("group-distinct",
     "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p");
    ("global-count", "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }") ]

let test_matrix_fig1 () =
  check_matrix "fig1"
    ~layout:(Db2rdf.Layout.make ~dph_cols:4 ~rph_cols:4)
    (Helpers.fig1_triples ())
    [ ("scan", "SELECT ?s ?o WHERE { ?s ?p ?o }");
      ("founder", "SELECT ?x ?y WHERE { ?x <founder> ?y }");
      ("fig6", Helpers.fig6_query_src);
      ( "star",
        "SELECT ?x ?i WHERE { ?x <industry> ?i . ?x <employees> ?e }" ) ]

let test_matrix_micro () =
  let triples = Workloads.Micro.generate ~scale:2_000 in
  check_matrix "micro"
    ~layout:(Db2rdf.Layout.make ~dph_cols:8 ~rph_cols:8)
    triples
    (par_queries @ Workloads.Micro.queries)

let test_matrix_spill () =
  (* 3-column hash relations force heavy spill chains (Section 2.1's
     worst case) — the packed path must reproduce them exactly. *)
  let triples = Workloads.Micro.generate ~scale:1_500 in
  check_matrix "spill"
    ~layout:(Db2rdf.Layout.make ~dph_cols:3 ~rph_cols:3)
    triples par_queries

(* ------------------------------------------------------------------ *)
(* Executor: the row reader over a packed main and a live delta        *)
(* ------------------------------------------------------------------ *)

let reader_row i =
  let open Relsql.Value in
  [| Int (i mod 50); Int (i mod 7);
     (if i mod 9 = 0 then Null else Str (Printf.sprintf "n%d" (i mod 13)));
     Int (i mod 11) |]

(* [t] (indexed on [k]) plus the outer side [o] of the join shapes. *)
let reader_db name =
  let db = Relsql.Database.create name in
  let t =
    Relsql.Database.create_table db "t"
      (Relsql.Schema.make [ "k"; "v"; "w"; "m" ])
  in
  Relsql.Table.create_index_on t "k";
  let o = Relsql.Database.create_table db "o" (Relsql.Schema.make [ "x"; "y" ]) in
  for i = 0 to 199 do
    ignore
      (Relsql.Table.insert o
         [| Relsql.Value.Int (i mod 60); Relsql.Value.Int (i mod 5) |])
  done;
  (db, t)

(* Each scan's filter, by how the packed main evaluates it. *)
let reader_queries =
  [ ("scan/block", `Block,
     "SELECT a.w, a.k FROM t AS a WHERE a.v = 3 OR a.m = 4");
    ("scan/code", `Code,
     "SELECT a.w FROM t AS a \
      WHERE CASE WHEN a.v = 1 THEN a.k WHEN a.v = 2 THEN a.m END = 5");
    ("scan/decoded", `Decoded, "SELECT a.k FROM t AS a WHERE a.w LIKE 'n1%'");
    ("scan/unfiltered", `Plan "SeqScan t", "SELECT a.w, a.m FROM t AS a");
    ("lookup", `Plan "IndexLookup t",
     "SELECT a.v, a.w FROM t AS a WHERE a.k IN (7, 34) AND a.v <> 2");
    ("inl/column-key", `Plan "IndexNLJoin(inner) t",
     "SELECT b.y, a.w FROM o AS b JOIN t AS a ON a.k = b.x");
    ("inl/code-residual", `Plan "IndexNLJoin(inner) t",
     "SELECT b.y, a.w FROM o AS b JOIN t AS a ON a.k = b.x AND a.v = 3");
    ("inl/cross-residual", `Plan "IndexNLJoin(inner) t",
     "SELECT b.y, a.w FROM o AS b JOIN t AS a ON a.k = b.x AND a.v <> b.y");
    ("inl/computed-key", `Plan "IndexNLJoin(inner) t",
     "SELECT b.y, a.w FROM o AS b JOIN t AS a ON a.k = b.x + 1");
    ("inl/left-outer", `Plan "IndexNLJoin(left) t",
     "SELECT b.x, a.w FROM o AS b LEFT JOIN t AS a ON a.k = b.x AND a.v = 3") ]

(** Scans, index lookups and both index-join paths over a table with a
    multi-block packed main, a live delta, tombstones on both sides and
    a row relocated by [set_cell] return, row for row and in order, what
    they return over the same rows in a never-merged table — at 1 and 2
    domains, with morsels small enough that a parallel scan morsel
    crosses from the main into the delta. *)
let test_reader_matrix () =
  let db, t = reader_db "packed" in
  for i = 0 to 2999 do
    ignore (Relsql.Table.insert t (reader_row i))
  done;
  Relsql.Table.merge t;
  for rid = 0 to 2999 do
    if rid mod 97 = 0 then Relsql.Table.delete_row t rid
  done;
  for i = 3000 to 3299 do
    let rid = Relsql.Table.insert t (reader_row i) in
    if i mod 11 = 0 then Relsql.Table.delete_row t rid
  done;
  let moved = Relsql.Table.set_cell t 1234 0 (Relsql.Value.Int 7) in
  let main = Relsql.Table.main_slots t in
  Alcotest.(check bool) "main spans several blocks" true
    (main > 2 * Relsql.Packed.block_rows);
  Alcotest.(check bool) "set_cell relocated the main row" true (moved >= main);
  Alcotest.(check bool) "live delta" true (Relsql.Table.delta_rows t > 0);
  Alcotest.(check bool) "main tombstones" true
    (Relsql.Table.main_tombstones t > 0);
  Alcotest.(check bool) "delta tombstones" true
    (Relsql.Table.slot_count t - Relsql.Table.main_tombstones t
     > Relsql.Table.row_count t);
  let boxed, bt = reader_db "boxed" in
  Relsql.Table.iter
    (fun _ row -> ignore (Relsql.Table.insert bt (Array.copy row)))
    t;
  let layout =
    Array.map (fun n -> (Some "a", n)) [| "k"; "v"; "w"; "m" |]
  in
  let pk = Relsql.Table.packed_view t in
  with_tiny_morsels (fun () ->
      List.iter
        (fun (name, shape, sql) ->
          let stmt = Relsql.Sql_parser.parse sql in
          let where =
            match stmt.Relsql.Sql_ast.body with
            | Relsql.Sql_ast.Select { where = Some e; _ } -> Some e
            | _ -> None
          in
          let plan = Relsql.Executor.explain db stmt in
          let expect what ok =
            Alcotest.(check bool) (name ^ ": " ^ what) true ok
          in
          (match shape, where with
           | `Plan op, _ -> expect op (Helpers.contains plan op)
           | `Block, Some e ->
             expect "block filter"
               (Relsql.Packed.compile_block_pred pk layout e <> None)
           | `Code, Some e ->
             expect "code filter only"
               (Relsql.Packed.compile_block_pred pk layout e = None
                && Relsql.Packed.compile_code_pred pk layout e <> None)
           | `Decoded, Some e ->
             expect "decoded filter"
               (Relsql.Packed.compile_code_pred pk layout e = None)
           | _, None -> Alcotest.failf "%s: no WHERE" name);
          let expected =
            batch_strings (Relsql.Executor.run ~domains:1 boxed stmt)
          in
          Alcotest.(check bool) (name ^ ": non-empty") true (expected <> []);
          List.iter
            (fun domains ->
              Relsql.Scan_cache.clear (Relsql.Database.scan_cache db);
              Alcotest.(check (list string))
                (Printf.sprintf "%s: d=%d ≡ never-merged" name domains)
                expected
                (batch_strings (Relsql.Executor.run ~domains db stmt)))
            [ 1; 2 ])
        reader_queries)

(* ------------------------------------------------------------------ *)
(* Fuzz: compressed backends vs the reference evaluator                *)
(* ------------------------------------------------------------------ *)

(** Fixed-seed differential sweep with compressed storage on every
    backend (the oracle never compresses, so agreement is exactly the
    boxed ≡ packed property over random graphs and queries). *)
let test_fuzz_sweep_compressed () =
  let config =
    { Fuzz.Runner.default_config with
      seed = 4242;
      cases = 60;
      domains = 2;
      compressed = true
    }
  in
  let s = Fuzz.Runner.fuzz config in
  Alcotest.(check int) "no divergences with compression" 0
    s.Fuzz.Runner.divergent;
  Alcotest.(check int) "all cases ran" 60 s.Fuzz.Runner.cases_run

(** Replay the committed reproducer corpus against compressed stores. *)
let test_corpus_replay_compressed () =
  let files =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let r = Fuzz.Repro.read (Filename.concat "corpus" f) in
      match Fuzz.Runner.check_repro ~compressed:true r with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s (compressed): %s" f msg)
    files

let suite =
  [ Alcotest.test_case "packed: round-trip all types" `Quick
      test_pack_roundtrip;
    Alcotest.test_case "packed: widths and size win" `Quick
      test_pack_width_and_size;
    Alcotest.test_case "packed: iter_eq ≡ naive predicate" `Quick
      test_iter_eq_matches_naive;
    Alcotest.test_case "packed: iter_eq one-bit column" `Quick
      test_iter_eq_one_bit_column;
    Alcotest.test_case "packed: zone filter soundness (incl. NaN)" `Quick
      test_zone_filter_sound;
    Alcotest.test_case "packed: equality prefilter" `Quick test_eq_prefilter;
    QCheck_alcotest.to_alcotest eq_codes_vs_linear;
    QCheck_alcotest.to_alcotest merge_vs_pack;
    QCheck_alcotest.to_alcotest merge_vs_pack_null_columns;
    Alcotest.test_case "table: RLE postings survive freeze" `Quick
      test_merge_postings_roundtrip;
    Alcotest.test_case "table: merge round invariants" `Quick
      test_merge_round_invariants;
    Alcotest.test_case "table: merge policy" `Quick test_merge_policy;
    Alcotest.test_case "matrix: fig1 compressed ≡ boxed" `Quick
      test_matrix_fig1;
    Alcotest.test_case "matrix: micro compressed ≡ boxed" `Slow
      test_matrix_micro;
    Alcotest.test_case "matrix: spill-heavy compressed ≡ boxed" `Slow
      test_matrix_spill;
    Alcotest.test_case "matrix: row reader over main + delta ≡ never-merged"
      `Quick test_reader_matrix;
    Alcotest.test_case "fuzz sweep with compressed storage" `Slow
      test_fuzz_sweep_compressed;
    Alcotest.test_case "corpus replay with compressed storage" `Quick
      test_corpus_replay_compressed ]
