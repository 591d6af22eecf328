(* Recycled batch arrays. A random program of batch operations runs
   against a model of lists of rows, at one and two domains: every live
   batch shows exactly its model's rows after every step, so a recycled
   array never shows a previous holder's cells; a released batch raises
   on [cell], [get] and [permute]; releasing a shared holder changes
   nothing. Then
   statement isolation through the executor and the engine: answers do
   not depend on what earlier statements left on the free list, a
   result stays intact while later statements recycle arrays, and a
   scan-cache hit returns the rows its miss returned. *)

open Relsql

(* ------------------------------------------------------------------ *)
(* Batch operations against a model                                    *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int * int option * bool  (* width, capacity hint, [~upto] *)
  | Push of int * int * int * int  (* slot, rows, seed, how *)
  | Project of int * int
  | Permute of int * int
  | Retain of int * int
  | Concat of int * int * bool  (* slots, release the parts *)
  | Release of int
  | Share of int

let show_op = function
  | Create (w, c, u) ->
    Printf.sprintf "Create (%d, %s, %b)" w
      (match c with Some c -> string_of_int c | None -> "-") u
  | Push (s, n, seed, how) -> Printf.sprintf "Push (%d, %d, %d, %d)" s n seed how
  | Project (s, seed) -> Printf.sprintf "Project (%d, %d)" s seed
  | Permute (s, seed) -> Printf.sprintf "Permute (%d, %d)" s seed
  | Retain (s, k) -> Printf.sprintf "Retain (%d, %d)" s k
  | Concat (a, b, r) -> Printf.sprintf "Concat (%d, %d, %b)" a b r
  | Release s -> Printf.sprintf "Release %d" s
  | Share s -> Printf.sprintf "Share %d" s

let gen_op =
  let open QCheck.Gen in
  let slot = int_bound 15 and seed = int_bound 1_000_000 in
  frequency
    [ (3,
       map3
         (fun w c u -> Create (w, c, u))
         (int_range 1 4) (opt (oneofl [ 1; 16; 100; 700 ])) bool);
      (6,
       map4
         (fun s n sd how -> Push (s, n, sd, how))
         slot (oneof [ int_range 1 10; int_range 50 400 ]) seed (int_bound 4));
      (2, map2 (fun s sd -> Project (s, sd)) slot seed);
      (2, map2 (fun s sd -> Permute (s, sd)) slot seed);
      (2, map2 (fun s k -> Retain (s, k)) slot (int_range 2 5));
      (2, map3 (fun a b r -> Concat (a, b, r)) slot slot bool);
      (3, map (fun s -> Release s) slot);
      (1, map (fun s -> Share s) slot) ]

let arb_program =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 40) gen_op)

let layout w : Expr_eval.layout = Array.init w (fun j -> (Some "b", Printf.sprintf "c%d" j))

(* Row [i] of a push drawn from [seed]: small ints, NULLs, strings and
   out-of-range ints (the last two are side cells). *)
let value seed i j =
  match (seed + (i * 7) + (j * 13)) mod 11 with
  | 0 -> Value.Null
  | 1 -> Value.Str (Printf.sprintf "s%d" ((seed + i) mod 5))
  | 2 -> Value.Int (Cell.int_hi + i)
  | k -> Value.Int ((seed / 3) + i + k)

type live = { b : Batch.t; mutable rows : Value.t array list }

exception Wrong of string

let check_live what l =
  let n = Batch.length l.b and w = Batch.width l.b in
  if n <> List.length l.rows then
    raise (Wrong (Printf.sprintf "%s: %d rows, model has %d" what n (List.length l.rows)));
  List.iteri
    (fun i r ->
      for j = 0 to w - 1 do
        if Value.compare (Batch.get l.b i j) r.(j) <> 0 then
          raise
            (Wrong
               (Printf.sprintf "%s: row %d cell %d is %s, model has %s" what i j
                  (Value.to_string (Batch.get l.b i j)) (Value.to_string r.(j))))
      done)
    l.rows

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let check_released what b =
  if not (raises (fun () -> Batch.cell b 0 0) && raises (fun () -> Batch.get b 0 0)) then
    raise (Wrong (what ^ ": a released batch still reads a cell"));
  if not (raises (fun () -> Batch.permute b [| 0 |])) then
    raise (Wrong (what ^ ": a released batch still gives a row"))

let push l n seed how =
  let w = Batch.width l.b in
  let side = Cell.side () in
  let added =
    List.init n (fun i ->
        let r = Array.init w (fun j -> value seed i j) in
        (match how with
         | 0 -> Batch.push_row l.b r
         | 1 ->
           Cell.clear side;
           Batch.push_cells l.b (Array.map (Cell.encode side) r) side
         | 2 ->
           let k = Batch.add_row l.b in
           Array.iteri (fun j v -> Batch.set_cell l.b k j (Cell.encode (Batch.side l.b) v)) r
         | _ ->
           (* The row's cells picked out of a wider, reversed scratch row. *)
           Cell.clear side;
           let wide = Array.init (w + 2) (fun j -> if j < w then Cell.encode side r.(w - 1 - j) else Cell.null) in
           Batch.push_sel l.b wide side (Array.init w (fun j -> w - 1 - j)));
        r)
  in
  l.rows <- l.rows @ added

(* Run [ops] over a fresh set of slots and check every live batch after
   each step; the live batches at the end. *)
let run_program ?(slots = [||]) ops =
  let slots = ref slots in
  let pick s = if Array.length !slots = 0 then None else Some (s mod Array.length !slots) in
  let add l = slots := Array.append !slots [| l |] in
  let drop k = slots := Array.of_list (List.filteri (fun i _ -> i <> k) (Array.to_list !slots)) in
  List.iter
    (fun op ->
      (match op with
       | Create (w, cap, upto) ->
         let b =
           match cap, upto with
           | Some c, true -> Batch.create ~upto:c (layout w)
           | Some c, false -> Batch.create ~capacity:c (layout w)
           | None, _ -> Batch.create (layout w)
         in
         add { b; rows = [] }
       | Push (s, n, seed, how) -> Option.iter (fun k -> push !slots.(k) n seed how) (pick s)
       | Project (s, seed) ->
         Option.iter
           (fun k ->
             let l = !slots.(k) in
             let w = Batch.width l.b in
             let cols = Array.init (1 + (seed mod (w + 1))) (fun j -> (seed + j) mod w) in
             let b = Batch.project l.b (layout (Array.length cols)) cols in
             add { b; rows = List.map (fun r -> Array.map (fun c -> r.(c)) cols) l.rows })
           (pick s)
       | Permute (s, seed) ->
         Option.iter
           (fun k ->
             let l = !slots.(k) in
             let n = List.length l.rows in
             let idx = if n = 0 then [||] else Array.init (seed mod (2 * n)) (fun i -> ((seed * 31) + (i * 17)) mod n) in
             let b = Batch.permute l.b idx in
             let rows = Array.of_list l.rows in
             add { b; rows = Array.to_list (Array.map (fun i -> rows.(i)) idx) })
           (pick s)
       | Retain (s, m) ->
         Option.iter
           (fun k ->
             let l = !slots.(k) in
             let keep v = match v with Value.Int x -> x mod m <> 0 | _ -> true in
             Batch.retain l.b (fun r ->
                 keep (Cell.decode r.Expr_eval.side r.Expr_eval.cells.(r.Expr_eval.base)));
             l.rows <- List.filter (fun r -> keep r.(0)) l.rows)
           (pick s)
       | Concat (a, c, release) -> (
         match pick a, pick c with
         | Some ka, Some kc when Batch.width !slots.(ka).b = Batch.width !slots.(kc).b ->
           let la = !slots.(ka) and lc = !slots.(kc) in
           let b = Batch.concat (Batch.layout la.b) [| la.b; lc.b |] in
           let fresh = { b; rows = la.rows @ lc.rows } in
           if release && ka <> kc then begin
             Batch.release la.b;
             Batch.release lc.b;
             check_released "concat part" la.b;
             check_released "concat part" lc.b;
             drop (max ka kc);
             drop (min ka kc)
           end;
           add fresh
         | _ -> ())
       | Release s ->
         Option.iter
           (fun k ->
             let b = !slots.(k).b in
             Batch.release b;
             check_released "release" b;
             drop k)
           (pick s)
       | Share s ->
         Option.iter
           (fun k ->
             let owner = !slots.(k) in
             let h = { b = Batch.share owner.b; rows = owner.rows } in
             (* Releasing a holder gives nothing back and leaves it as
                it was. *)
             Batch.release h.b;
             check_live "released holder" h;
             (* A holder's first write copies: the owner does not see it. *)
             push h 3 7 0;
             check_live "owner after a holder's write" owner;
             check_live "holder after its write" h;
             Batch.release h.b;
             check_released "written holder" h.b)
           (pick s));
      Array.iteri (fun i l -> check_live (Printf.sprintf "after %s, slot %d" (show_op op) i) l) !slots)
    ops;
  !slots

let one_domain =
  QCheck.Test.make ~name:"batch ops match a row model, one domain" ~count:300 arb_program
    (fun ops ->
      try
        Array.iter (fun l -> Batch.release l.b) (run_program ops);
        true
      with Wrong msg -> QCheck.Test.fail_report msg)

(* Two programs at once, one per domain, each on its own free list; the
   worker's surviving batches are then checked and released by the
   main domain, whose next program reuses their arrays. *)
let two_domains =
  QCheck.Test.make ~name:"batch ops match a row model, two domains" ~count:60
    (QCheck.pair arb_program arb_program) (fun (ops1, ops2) ->
      try
        let d = Domain.spawn (fun () -> try Ok (run_program ops2) with Wrong m -> Error m) in
        let mine = run_program ops1 in
        let theirs = match Domain.join d with Ok s -> s | Error m -> raise (Wrong m) in
        Array.iter (check_live "worker's batch in the main domain") theirs;
        Array.iter (fun l -> Batch.release l.b) theirs;
        Array.iter (fun l -> Batch.release l.b) (run_program ~slots:mine ops2);
        true
      with Wrong msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Statement isolation                                                 *)
(* ------------------------------------------------------------------ *)

let big_db () =
  let db = Database.create "recycle" in
  let t = Database.create_table db "t" (Schema.make [ "x"; "y"; "z" ]) in
  for i = 0 to 1999 do
    ignore (Table.insert t [| Value.Int i; Value.Int (i mod 97); Value.Int (i * 3) |])
  done;
  Table.create_index_on t "x";
  Table.create_index_on t "y";
  db

let run db sql = Executor.run db (Sql_parser.parse sql)

(* Statements whose operators take, grow and release arrays of several
   classes. *)
let churn db =
  List.iter
    (fun sql -> Batch.release (run db sql))
    [ "SELECT a.x, a.z, b.x AS bx FROM t AS a JOIN t AS b ON a.y = b.x WHERE a.x < 1500";
      "WITH c AS (SELECT a.x, a.y, a.z FROM t AS a WHERE a.z > 100) \
       SELECT c.z, c.y, c.x FROM c ORDER BY c.y";
      "SELECT a.y, COUNT(*) AS n FROM t AS a GROUP BY a.y";
      "SELECT DISTINCT a.y, b.y AS yb FROM t AS a JOIN t AS b ON a.x = b.z" ]

let test_result_survives_recycling () =
  let db = big_db () in
  List.iter
    (fun sql ->
      let r = run db sql in
      let want = Batch.to_rows r in
      Alcotest.(check bool) "spans pooled arrays" true (Batch.length r * Batch.width r > 256);
      churn db;
      churn db;
      Alcotest.(check bool) sql true (Batch.to_rows r = want))
    [ "WITH c AS (SELECT a.x, a.y FROM t AS a WHERE a.y < 50) SELECT c.x, c.y FROM c";
      "WITH c AS (SELECT a.x, a.y, a.z FROM t AS a WHERE a.y < 50), \
       d AS (SELECT c.z, c.x FROM c WHERE c.x > 10) SELECT d.x, d.z FROM d";
      "SELECT a.x, b.z FROM t AS a JOIN t AS b ON a.x = b.y";
      "SELECT a.x, a.z FROM t AS a WHERE a.y > 10" ]

let test_scan_cache_hit_after_recycling () =
  let db = big_db () in
  let cached = "SELECT a.x, a.z FROM t AS a WHERE a.y > 3" in
  let hits () = (Scan_cache.stats (Database.scan_cache db)).Plan_cache.hits in
  let r = run db cached in
  let want = Batch.to_rows r in
  Batch.release r;
  Alcotest.(check bool) "spans pooled arrays" true (List.length want * 2 > 256);
  churn db;
  let h0 = hits () in
  let again = run db cached in
  Alcotest.(check bool) "served from the cache" true (hits () > h0);
  Alcotest.(check bool) "hit = miss" true (Batch.to_rows again = want);
  Batch.release again;
  churn db;
  Alcotest.(check bool) "second hit = miss" true (Batch.to_rows (run db cached) = want)

(* Every DQ query on one compressed DBpedia engine and every perfbench
   LUBM template on one boxed LUBM engine, twice, interleaved: each
   answer equals the answer of an engine that ran nothing before it. *)
let check_interleaved name ~options triples queries =
  let fresh =
    List.map
      (fun (q, text) ->
        let e, _, _ = Db2rdf.Engine.create_colored ~options triples in
        (q, text, Db2rdf.Engine.query_string e text))
      queries
  in
  let e, _, _ = Db2rdf.Engine.create_colored ~options triples in
  for round = 1 to 2 do
    List.iter
      (fun (q, text, want) ->
        let got = Db2rdf.Engine.query_string e text in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s, round %d" name q round)
          true (got = want))
      fresh
  done

let test_dbpedia_interleaved () =
  check_interleaved "dbpedia"
    ~options:{ Db2rdf.Engine.default_options with compress = true }
    (Workloads.Dbpedia.generate ~scale:4000)
    Workloads.Dbpedia.queries

let test_lubm_interleaved () =
  let w = Option.get (Perfbench.Streams.find "lubm-lookup") in
  let triples = Workloads.Lubm.generate ~scale:4000 in
  let s = Perfbench.Streams.make w triples ~seed:3 ~n_ops:90 ~n_warmup:0 in
  (* The first read of every template. *)
  let firsts = Hashtbl.create 16 in
  Array.iter
    (function
      | Perfbench.Streams.Read { kind; text } when not (Hashtbl.mem firsts kind) ->
        Hashtbl.add firsts kind text
      | _ -> ())
    s.Perfbench.Streams.measured;
  let queries = List.sort compare (Hashtbl.fold (fun k t acc -> (k, t) :: acc) firsts []) in
  Alcotest.(check int) "every template" 9 (List.length queries);
  check_interleaved "lubm" ~options:w.Perfbench.Streams.options triples queries

let suite =
  List.map QCheck_alcotest.to_alcotest [ one_domain; two_domains ]
  @ [ Alcotest.test_case "result intact while later statements recycle" `Quick
        test_result_survives_recycling;
      Alcotest.test_case "scan-cache hit after recycling = its miss" `Quick
        test_scan_cache_hit_after_recycling;
      Alcotest.test_case "DQ1-DQ20 twice, interleaved = fresh engines" `Quick
        test_dbpedia_interleaved;
      Alcotest.test_case "LUBM templates twice, interleaved = fresh engines" `Quick
        test_lubm_interleaved ]
