(** Physical plan interpreter over row batches.

    Each plan node materializes into a {!Batch.t}: an ordered column
    layout plus one flat growable vector of immediate cell codes
    ({!Cell}). Execution is bottom-up and fully materializing, but
    batch-at-a-time: operators read their inputs through row views in
    place and write rows with int stores, hash joins key their build
    side once per input batch, and selections run as a single in-place
    pass. Values are built only for computed expressions; ids become
    terms in the engine's result decoding alone.

    Two pieces are shared by the operators. A row reader is the one
    place a row id becomes cells: packed fields below the table's main
    boundary, the boxed delta row above it. Scans (after their
    zone-map/SWAR block pass), index lookups and index nested-loop
    probes all read rows through it. A morsel driver runs a row range
    inline, or as per-morsel private batches concatenated in order; it
    serves the fused scan, the fused index nested-loop probe and the
    hash-join probe.

    Under {!run_analyzed} every node also fills its own {!Opstats.t}
    record (rows in/out, index probes, hash-build size, wall time) and
    the resulting tree is returned — the engine's EXPLAIN ANALYZE. A
    plain {!run} makes no labels, estimates or clock reads.

    A soft per-query timeout is enforced by a row-operation counter,
    which is how the benchmark harness reproduces the paper's timeout
    classification (Figure 15). *)

open Sql_ast

exception Timeout

type result = Batch.t

let column_names = Batch.column_names

(* ------------------------------------------------------------------ *)
(* Timeout bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

type ticker = { deadline : float option; mutable ops : int }

let tick t =
  t.ops <- t.ops + 1;
  if t.ops land 8191 = 0 then
    match t.deadline with
    | Some d when Unix.gettimeofday () > d -> raise Timeout
    | _ -> ()

(** Account for [n] row operations at once. Like {!tick}, the clock is
    read only when the count crosses a multiple of 8192. *)
let tick_bulk t n =
  let before = t.ops in
  t.ops <- before + n;
  if t.ops lsr 13 <> before lsr 13 then
    match t.deadline with
    | Some d when Unix.gettimeofday () > d -> raise Timeout
    | _ -> ()

(* Deadline check without op accounting — safe from worker domains,
   which must not mutate the shared ticker. Each morsel body starts
   with this; the submitting domain settles [ops] with {!tick_bulk}
   after the parallel section. *)
let check_deadline t =
  match t.deadline with
  | Some d when Unix.gettimeofday () > d -> raise Timeout
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Morsel-driven parallelism                                           *)
(* ------------------------------------------------------------------ *)

(** Inputs smaller than this stay on the sequential code paths even
    when a pool is available: forking a job costs more than scanning a
    few hundred rows. Tests lower it to exercise the parallel operators
    on tiny inputs. *)
let par_min_rows = ref 128

(** [morsels_for pool n] decides how to split [n] rows: [None] keeps
    the sequential path, [Some (m, msize)] splits into [m] morsels of
    [msize] rows (the last one ragged), [msize] a multiple of [align].
    Several morsels per domain so the atomic claim counter — not a
    scheduler — balances skew. *)
let morsels_for ?(align = 1) pool n =
  if Dpool.size pool <= 1 || n < !par_min_rows then None
  else begin
    let target = 8 * Dpool.size pool in
    let msize = max 1 (max (!par_min_rows / 2) ((n + target - 1) / target)) in
    let msize = (msize + align - 1) / align * align in
    let m = (n + msize - 1) / msize in
    if m <= 1 then None else Some (m, msize)
  end

(** Run [fn] over [morsels] on the pool, recording the participant
    count and the section's wall time into [stats]. *)
let par_section (stats : Opstats.t) pool ~morsels fn =
  let t0 = Unix.gettimeofday () in
  let workers = Dpool.run pool ~morsels fn in
  stats.Opstats.workers <- max stats.Opstats.workers workers;
  stats.Opstats.par_ms <-
    stats.Opstats.par_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0)

let rec next_pow2 n = if n <= 1 then 1 else 2 * next_pow2 ((n + 1) / 2)

(** Partition count for radix-partitioned hash-join builds: twice the
    pool size — enough sub-tables that morsel claiming balances skewed
    builds — or 1 on a sequential pool, where partitioning is pure
    overhead. Capped so the per-partition bookkeeping of tiny builds
    stays bounded. *)
let join_partition_count pool =
  if Dpool.size pool <= 1 then 1 else min 256 (next_pow2 (2 * Dpool.size pool))

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let table_layout table alias : Expr_eval.layout =
  let schema = Table.schema table in
  Array.init (Schema.arity schema) (fun i -> (Some alias, Schema.column schema i))

(* A self-contained key of several cells (multi-column hash joins,
   GROUP BY, DISTINCT aggregate arguments): component [j] is an inline
   code, or [Cell.boxed] with its value at [vals.(j)] ([vals] stays
   empty while no component is boxed). The encoding is canonical, so
   keys are equal exactly when their values are {!Value.equal}
   componentwise. *)
module Key = struct
  type t = { codes : int array; vals : Value.t array }

  let equal a b =
    let n = Array.length a.codes in
    n = Array.length b.codes
    &&
    let rec go j =
      j >= n
      || a.codes.(j) = b.codes.(j)
         && (a.codes.(j) <> Cell.boxed || Value.equal a.vals.(j) b.vals.(j))
         && go (j + 1)
    in
    go 0

  let hash k =
    let h = ref 17 in
    Array.iteri
      (fun j c ->
        h := (!h * 31) + if c = Cell.boxed then Value.hash k.vals.(j) else Cell.mix c)
      k.codes;
    !h

  let has_null k = Array.exists (fun c -> c = Cell.null) k.codes

  (* Component [j], decoded. *)
  let value k j =
    let c = k.codes.(j) in
    if c = Cell.boxed then k.vals.(j) else Cell.inline_value c

  let make n (get : int -> Value.t array ref -> int) =
    let codes = Array.make n 0 and vals = ref [||] in
    for j = 0 to n - 1 do
      codes.(j) <- get j vals
    done;
    { codes; vals = !vals }

  (* Component [j] of a key under construction holding [v]: its inline
     code, or [boxed] with [v] recorded. *)
  let put n (vals : Value.t array ref) j v =
    let k = Cell.inline v in
    if k <> Cell.boxed then k
    else begin
      if !vals == [||] then vals := Array.make n Value.Null;
      !vals.(j) <- v;
      Cell.boxed
    end

  (** The key of the operands on the row under view [r]. *)
  let of_operands (ops : Expr_eval.operand array) (r : Expr_eval.row) =
    let n = Array.length ops in
    make n (fun j vals ->
        match ops.(j) with
        | Expr_eval.Code f ->
          let x = f r in
          if x < Cell.null then put n vals j (Cell.side_value r.Expr_eval.side x) else x
        | Expr_eval.Value f -> put n vals j (f r))

  (** The key of the first [n] cells of the row under view [r]. *)
  let of_row n (r : Expr_eval.row) =
    make n (fun j vals ->
        let x = r.Expr_eval.cells.(r.Expr_eval.base + j) in
        if x < Cell.null then put n vals j (Cell.side_value r.Expr_eval.side x) else x)

  let of_value v = make 1 (fun j vals -> put 1 vals j v)
end

module KeyTbl = Hashtbl.Make (Key)

(* The code in context [dst] of an operand on the row under view [r]. *)
let[@inline] operand_cell dst (o : Expr_eval.operand) (r : Expr_eval.row) =
  match o with
  | Expr_eval.Code f -> Cell.import dst r.Expr_eval.side (f r)
  | Expr_eval.Value f -> Cell.encode dst (f r)

(* One ORDER BY key per row: codes in the key's own side context. *)
type sort_key = { keys : int array; kside : Cell.side; asc : bool }

let sort_key n asc = { keys = Array.make n Cell.null; kside = Cell.side (); asc }

(* Stable parallel sort of an index array: split into contiguous
   chunks, stable-sort each on the pool, then k-way merge preferring
   the leftmost chunk on ties. Equal elements end up ordered by chunk
   and, within a chunk, by the stable per-chunk sort — i.e. by original
   position — so the result is bit-identical to a global
   [Array.stable_sort]. *)
let par_stable_sort ticker pool (stats : Opstats.t) cmp (arr : int array) =
  let n = Array.length arr in
  match morsels_for pool n with
  | None -> Array.stable_sort cmp arr
  | Some (m, msize) ->
    let chunks =
      Array.init m (fun i ->
          let lo = i * msize in
          Array.sub arr lo (min n (lo + msize) - lo))
    in
    par_section stats pool ~morsels:m (fun ~worker:_ i ->
        check_deadline ticker;
        Array.stable_sort cmp chunks.(i));
    let heads = Array.make m 0 in
    for k = 0 to n - 1 do
      let best = ref (-1) in
      for c = 0 to m - 1 do
        if heads.(c) < Array.length chunks.(c) then
          if
            !best < 0
            || cmp chunks.(c).(heads.(c)) chunks.(!best).(heads.(!best)) < 0
          then best := c
      done;
      arr.(k) <- chunks.(!best).(heads.(!best));
      heads.(!best) <- heads.(!best) + 1
    done

(* The positions of [idx] whose row of [b] is the first of its value
   (DISTINCT / UNION): rows are hashed and compared in place, cell by
   cell — no per-row key is built. *)
let first_occurrences ticker b (idx : int array) =
  let w = Batch.width b and side = Batch.side b in
  let row_hash i =
    let h = ref 17 in
    for j = 0 to w - 1 do
      h := (!h * 31) + Cell.hash side (Batch.cell b i j)
    done;
    !h
  in
  let rows_eq a c =
    let rec go j =
      j >= w || (Cell.equal side (Batch.cell b a j) side (Batch.cell b c j) && go (j + 1))
    in
    go 0
  in
  let n = Array.length idx in
  let seen : (int, int list ref) Hashtbl.t = Hashtbl.create (max 16 n) in
  let kept = Array.make n 0 in
  let k = ref 0 in
  Array.iter
    (fun i ->
      tick ticker;
      let h = row_hash i in
      let bucket =
        match Hashtbl.find seen h with
        | b -> b
        | exception Not_found ->
          let b = ref [] in
          Hashtbl.add seen h b;
          b
      in
      if not (List.exists (fun j -> rows_eq i j) !bucket) then begin
        bucket := i :: !bucket;
        kept.(!k) <- i;
        incr k
      end)
    idx;
  Array.sub kept 0 !k

(** DISTINCT, ORDER BY (over precomputed per-row key columns), then
    OFFSET/LIMIT, applied to a computed output batch via an index
    permutation. *)
let finalize ticker pool stats ~distinct ~(sort_keys : sort_key list) ~limit ~offset
    (out : Batch.t) : Batch.t =
  if (not distinct) && sort_keys = [] && limit = None && offset = None then out
  else begin
    let n = Batch.length out in
    let idx = ref (Array.init n (fun i -> i)) in
    if distinct then idx := first_occurrences ticker out !idx;
    (match sort_keys with
     | [] -> ()
     | ks ->
       par_stable_sort ticker pool stats
         (fun a b ->
           let rec cmp = function
             | [] -> 0
             | k :: rest ->
               let c = Cell.compare k.kside k.keys.(a) k.kside k.keys.(b) in
               if c <> 0 then if k.asc then c else -c else cmp rest
           in
           cmp ks)
         !idx);
    let arr = !idx in
    let len = Array.length arr in
    let start = match offset with Some o when o > 0 -> min o len | _ -> 0 in
    let stop =
      match limit with Some l -> min len (start + max 0 l) | None -> len
    in
    if (not distinct) && sort_keys = [] && start = 0 && stop = len then out
    else Batch.permute out (Array.sub arr start (stop - start))
  end

(* ------------------------------------------------------------------ *)
(* Plan interpretation                                                 *)
(* ------------------------------------------------------------------ *)

(** Per-statement execution context. CTE results stay resident as
    batches: the planner resolves a CTE name from its scope list, and a
    Scan over a CTE name reads the stashed batch instead of a row
    store. *)
type ctx = {
  db : Database.t;
  ticker : ticker;
  ctes : (string, Batch.t) Hashtbl.t;
  pool : Dpool.t;  (* size 1 = sequential execution *)
  join_parts : int;
      (* resolved radix partition count for hash-join builds (a power
         of two; 1 = sequential inline build) *)
  analyze : bool;
      (* give every node its own labelled, timed {!Opstats.t} carrying
         the planner's estimate; otherwise every node counts into one
         scratch record that nobody reads *)
  mutable scope : string list;
      (* CTE names the running part was planned with (for estimates) *)
}

(* ------------------------------------------------------------------ *)
(* Row reader                                                          *)
(* ------------------------------------------------------------------ *)

(** The one place a row id becomes cells. Rids below the table's
    packed-main boundary read their cells straight from the packed
    fields — only the [needed] columns, into a per-cursor scratch — and
    rids at or above it are boxed delta rows: the filter reads one
    through a boxed view (each cell encoded as it is read, so a
    rejected row encodes about what the old value predicate read), and
    a kept row encodes its projected cells. A filter that compiles to
    a code predicate is tested on raw packed fields, so a rejected main
    row reads nothing; the compiled cell predicate serves the delta,
    and the main when no code predicate took the filter over. A reader
    is immutable and shared by parallel morsels; each morsel reads
    through its own {!cursor}. *)
type reader = {
  table : Table.t;
  pk : Packed.t;
  mbase : int;  (* slots below this live in the packed main *)
  layout : Expr_eval.layout;  (* the full table row's *)
  code : (int -> bool) option;  (* the filter over packed codes *)
  keep : Expr_eval.row -> bool;  (* the filter over a read row *)
  needed : int array;  (* columns a main row reads *)
  projected : int array;  (* the projection's columns, or all *)
  sel : int array option;  (* projected positions; [None] = all *)
  out_layout : Expr_eval.layout;  (* the projected row's *)
}

type cursor = {
  rd : reader;
  cells : int array;
      (* the row read last; positions outside [needed]/[projected] stay
         stale, nothing reads them *)
  side : Cell.side;  (* its side values *)
  view : Expr_eval.row;  (* a view of [cells] *)
  boxed : Expr_eval.row;  (* a view of a delta row, for the filter *)
  mutable unpacked : int;  (* main rows read *)
  mutable delta : int;  (* delta rows read *)
}

let accept_all _ = true

(** A reader of [t] under [layout] that keeps the rows passing [filter]
    and projects them to [cols]. [~prefiltered:true] says the caller
    already applied [filter] to every main rid it reads (the scan's
    block bitmaps), so those read untested. Raises
    [Expr_eval.Unknown_column] when [filter] reads a column outside
    [layout]. *)
let make_reader ?(prefiltered = false) t layout filter cols =
  let pk = Table.packed_view t and mbase = Table.main_slots t in
  let code =
    match filter with
    | Some _ when prefiltered -> Some accept_all
    | Some e when mbase > 0 -> Packed.compile_code_pred pk layout e
    | _ -> None
  in
  let keep =
    match filter with
    | Some e when code = None || Table.slot_count t > mbase ->
      Expr_eval.compile_pred layout e
    | _ -> accept_all
  in
  let sel, out_layout =
    match cols with
    | None -> (None, layout)
    | Some cs ->
      let sel =
        Array.of_list (List.map (Schema.position_exn (Table.schema t)) cs)
      in
      let label j n = (fst layout.(sel.(j)), n) in
      (Some sel, Array.of_list (List.mapi label cs))
  in
  let projected =
    match sel with Some sel -> sel | None -> Array.init (Array.length layout) Fun.id
  in
  let needed =
    match filter with
    | _ when mbase = 0 -> [||]
    | Some e when code = None ->
      (* The main runs the filter on read cells too. *)
      let refs = List.map (Expr_eval.resolve layout) (Expr_eval.column_refs e) in
      Array.append projected
        (Array.of_list
           (List.filter (fun p -> not (Array.exists (Int.equal p) projected)) refs))
    | _ -> projected
  in
  { table = t; pk; mbase; layout; code; keep; needed; projected; sel; out_layout }

let cursor rd =
  (* Only as wide as the last column a row read writes. *)
  let top w ps = Array.fold_left (fun w p -> max w (p + 1)) w ps in
  let cells = Array.make (top (top 0 rd.needed) rd.projected) Cell.null in
  let side = Cell.side () in
  { rd; cells; side;
    view = { Expr_eval.cells; base = 0; side; values = [||] };
    boxed = { Expr_eval.cells; base = 0; side; values = [||] };
    unpacked = 0; delta = 0 }

(** Read the row at [rid] into the cursor; [false] when the filter
    rejects it. The cells stay valid until the next read: callers copy
    out what they keep. *)
let[@inline] read c rid =
  let rd = c.rd in
  Cell.clear c.side;
  if rid >= rd.mbase then begin
    c.delta <- c.delta + 1;
    let row = Table.get rd.table rid in
    c.boxed.Expr_eval.values <- row;
    rd.keep c.boxed
    && begin
      let ps = rd.projected in
      for i = 0 to Array.length ps - 1 do
        let p = ps.(i) in
        c.cells.(p) <- Cell.encode c.side row.(p)
      done;
      true
    end
  end
  else
    match rd.code with
    | Some cp ->
      cp rid
      && begin
        c.unpacked <- c.unpacked + 1;
        Packed.read_cols rd.pk rid rd.needed c.cells c.side;
        true
      end
    | None ->
      c.unpacked <- c.unpacked + 1;
      Packed.read_cols rd.pk rid rd.needed c.cells c.side;
      rd.keep c.view

(** {!read} [rid] and append the projected row to [out] unless rejected. *)
let[@inline] read_into c out rid =
  if read c rid then
    match c.rd.sel with
    | None -> Batch.push_cells out c.cells c.side
    | Some sel -> Batch.push_sel out c.cells c.side sel

(* ------------------------------------------------------------------ *)
(* Morsel driver                                                       *)
(* ------------------------------------------------------------------ *)

let add_counts (dst : Opstats.t) (src : Opstats.t) =
  let open Opstats in
  dst.rows_in <- dst.rows_in + src.rows_in;
  dst.index_probes <- dst.index_probes + src.index_probes;
  dst.blocks_skipped <- dst.blocks_skipped + src.blocks_skipped;
  dst.rows_unpacked <- dst.rows_unpacked + src.rows_unpacked;
  dst.delta_rows <- dst.delta_rows + src.delta_rows;
  dst.tombstones_skipped <- dst.tombstones_skipped + src.tombstones_skipped

(** [drive ctx stats ~n layout body] runs [body st out lo hi] over
    [[0, n)] and returns the rows it appended to [out]. Inline, one call
    covers the whole range into one batch and counts into [stats]. On
    the pool, each morsel appends to a private batch and counts into a
    private record; the batches are concatenated in morsel order (the
    inline output) and the records summed into [stats]. [body] returns
    the row operations it did; their sum is ticked once, the same on
    both paths. [align] rounds morsels to whole multiples of it. *)
let drive ctx (stats : Opstats.t) ?align ~n layout body =
  let out, ops =
    match morsels_for ?align ctx.pool n with
    | None ->
      let out = Batch.create ~upto:n layout in
      (out, body stats out 0 n)
    | Some (m, msize) ->
      let parts = Array.make m (Batch.create ~capacity:1 layout) in
      let counts = Array.init m (fun _ -> Opstats.make "") in
      let ops = Array.make m 0 in
      par_section stats ctx.pool ~morsels:m (fun ~worker:_ i ->
          check_deadline ctx.ticker;
          let lo = i * msize and hi = min n ((i + 1) * msize) in
          let out = Batch.create ~upto:(hi - lo) layout in
          ops.(i) <- body counts.(i) out lo hi;
          parts.(i) <- out);
      Array.iter (add_counts stats) counts;
      (Batch.concat layout parts, Array.fold_left ( + ) 0 ops)
  in
  tick_bulk ctx.ticker ops;
  out

(* Run [plan]; [stats] is the record its operator counts into. *)
let rec exec_plan ctx (stats : Opstats.t) (plan : Planner.plan) : Batch.t =
  let db = ctx.db and ticker = ctx.ticker in
  (* Execute an input plan, counting its cardinality as consumed rows. *)
  let child p =
    let b = exec ctx stats p in
    stats.Opstats.rows_in <- stats.Opstats.rows_in + Batch.length b;
    b
  in
  match plan with
  | Planner.Empty_row ->
    let out = Batch.create ~capacity:1 [||] in
    Batch.push_row out [||];
    out
  | Planner.Extvp_scan { input; _ } ->
    (* Pure marker: the wrapped access path does the work; this node
       keeps the reduction substitution (and its est-vs-actual q-error)
       visible in EXPLAIN ANALYZE. *)
    child input
  | Planner.Scan { table; alias; filter; cols } ->
    (match Hashtbl.find_opt ctx.ctes table with
     | Some src ->
       let layout =
         Array.map (fun (_, n) -> (Some alias, n)) (Batch.layout src)
       in
       stats.Opstats.rows_in <- Batch.length src;
       tick_bulk ticker (Batch.length src);
       (* The stashed batch is shared by every reader of the CTE: each
          reads it through a holder of its own, which copies before
          any write; a projection builds its fresh batch straight from
          it. *)
       let rows = Batch.share src in
       Option.iter (fun e -> Batch.retain rows (Expr_eval.compile_pred layout e)) filter;
       (match cols with
        | None -> Batch.with_layout rows layout
        | Some cs ->
          let out_layout =
            Array.of_list (List.map (fun n -> (Some alias, n)) cs)
          in
          Batch.project rows out_layout
            (Array.map (Expr_eval.resolve layout) out_layout))
     | None ->
       let t = Database.find_exn db table in
       (* Fused filter/projection scans consult the shared scan cache:
          the key embeds the table epoch, so a hit is valid by
          construction and a stale entry simply ages out. Raw full
          scans are not cached (the entry would be a copy of the
          table). Both the stored and the served batch are private
          copies — batch ownership stays linear. *)
       let scache = Database.scan_cache db in
       let ckey =
         if filter = None && cols = None then None
         else
           Some
             (Scan_cache.key ~table ~epoch:(Table.epoch t) ~filter ~cols)
       in
       (match Option.bind ckey (Scan_cache.find scache) with
        | Some hit ->
          stats.Opstats.cache_hits <- 1;
          let out =
            Batch.with_layout hit
              (Array.map (fun (_, n) -> (Some alias, n)) (Batch.layout hit))
          in
          stats.Opstats.rows_in <- Batch.length out;
          tick_bulk ticker (Batch.length out);
          out
        | None ->
       if ckey <> None then stats.Opstats.cache_misses <- 1;
       let layout = table_layout t alias in
       (* One slot space, two passes in rid order: the packed main
          (slots below [mbase]), then the boxed delta above it. On the
          main, zone maps veto whole blocks, and either the block
          evaluator (one SWAR word scan per filter leaf per block,
          bitmaps combined bitwise) or an extracted [col = const]
          conjunct (word-at-a-time) picks the candidate rows; the
          reader then tests and reads each one. *)
       let pk = Table.packed_view t and mbase = Table.main_slots t in
       let bpred, zone_ok, pre =
         match filter with
         | Some e when mbase > 0 ->
           ( Packed.compile_block_pred pk layout e,
             Packed.compile_zone_filter pk layout e,
             Packed.eq_prefilter pk layout e )
         | _ -> (None, accept_all, None)
       in
       let rd = make_reader ~prefiltered:(bpred <> None) t layout filter cols in
       let bs = Packed.block_rows in
       let scan_range (st : Opstats.t) out lo hi =
         let c = cursor rd in
         let mhi = min hi mbase in
         if lo < mhi then begin
           let visit rid =
             if Table.is_live t rid then read_into c out rid
             else
               st.Opstats.tombstones_skipped <-
                 st.Opstats.tombstones_skipped + 1
           in
           (* The block evaluator (and its scratch bitmaps) is private
              to this call: parallel morsels never share it. *)
           let beval = Option.map (fun mk -> mk ()) bpred in
           for bi = lo / bs to (mhi - 1) / bs do
             let blo = max lo (bi * bs) and bhi = min mhi ((bi + 1) * bs) in
             if not (zone_ok bi) then
               st.Opstats.blocks_skipped <- st.Opstats.blocks_skipped + 1
             else
               match beval with
               | Some bev ->
                 let bm = bev blo bhi in
                 for wi = 0 to (bhi - blo - 1) / 63 do
                   let bits = ref bm.(wi) in
                   let rid = ref (blo + (wi * 63)) in
                   while !bits <> 0 do
                     if !bits land 1 = 1 then visit !rid;
                     bits := !bits lsr 1;
                     incr rid
                   done
                 done
               | None -> (
                 match pre with
                 | Some (pos, codes) -> Packed.iter_eq pk pos codes blo bhi visit
                 | None ->
                   for rid = blo to bhi - 1 do
                     visit rid
                   done)
           done
         end;
         for rid = max lo mbase to hi - 1 do
           if Table.is_live t rid then begin
             read_into c out rid;
             if c.delta land 8191 = 0 then check_deadline ticker
           end
         done;
         st.Opstats.rows_unpacked <- st.Opstats.rows_unpacked + c.unpacked;
         st.Opstats.delta_rows <- st.Opstats.delta_rows + c.delta;
         st.Opstats.rows_in <- st.Opstats.rows_in + c.unpacked + c.delta;
         c.unpacked + c.delta
       in
       (* Over a packed main, morsels align to block boundaries so zone
          pruning and the word-at-a-time pass never split a block
          across workers. *)
       let out =
         drive ctx stats
           ~align:(if mbase > 0 then bs else 1)
           ~n:(Table.slot_count t) rd.out_layout scan_range
       in
       Option.iter (fun k -> Scan_cache.add scache k out) ckey;
       out))
  | Planner.Index_lookup { table; alias; col; keys; filter; cols } ->
    let t = Database.find_exn db table in
    let rd = make_reader t (table_layout t alias) filter cols in
    let c = cursor rd in
    let out = Batch.create rd.out_layout in
    let probe = Table.prober t (Schema.position_exn (Table.schema t) col) in
    let kside = Cell.side () in
    List.iter
      (fun key ->
        stats.Opstats.index_probes <- stats.Opstats.index_probes + 1;
        Cell.clear kside;
        probe kside (Cell.encode kside key) (fun rid ->
            tick ticker;
            stats.Opstats.rows_in <- stats.Opstats.rows_in + 1;
            read_into c out rid))
      keys;
    (* [rows_unpacked] is the packed scan's counter; a lookup reports
       only the delta rows it visited. *)
    stats.Opstats.delta_rows <- stats.Opstats.delta_rows + c.delta;
    out
  | Planner.Values_rows { rows; alias; cols } ->
    let layout = Array.of_list (List.map (fun c -> (Some alias, c)) cols) in
    let out = Batch.create ~capacity:(List.length rows) layout in
    List.iter
      (fun exprs ->
        Batch.push_row out
          (Array.of_list (List.map (fun e -> Expr_eval.eval_const e) exprs)))
      rows;
    out
  | Planner.Subplan { plan; alias } ->
    let b = child plan in
    Batch.with_layout b (Array.map (fun (_, n) -> (Some alias, n)) (Batch.layout b))
  | Planner.Inl_join { outer; table; alias; col; key; kind; residual; cols } ->
    let o = child outer in
    let t = Database.find_exn db table in
    let tlayout = table_layout t alias in
    (* [cols] prunes the inner columns that survive into the output row
       (the planner kept everything the ancestors and any cross-side
       residual reference). A residual over the inner table alone goes
       to the reader, which tests each candidate before anything is
       copied — a failing candidate (the common case for pred-selective
       probes) costs no copy. One that also reads outer columns does
       not compile against the table layout and is checked on the
       joined row instead. *)
    let rd, cross =
      match make_reader t tlayout residual cols with
      | rd -> (rd, None)
      | exception Expr_eval.Unknown_column _ ->
        (make_reader t tlayout None cols, residual)
    in
    let layout = Array.append (Batch.layout o) rd.out_layout in
    let pos = Schema.position_exn (Table.schema t) col in
    let iw = Array.length rd.out_layout in
    let no = Batch.length o and oside = Batch.side o in
    (* Append the joined row of outer row [i] and the row [c] read. *)
    let push_match out c i =
      match rd.sel with
      | None -> Batch.push_join out ~src:o i c.cells c.side iw
      | Some sel -> Batch.push_join_sel out ~src:o i c.cells c.side sel
    in
    (match cross, key with
     | None, Col (q, n) ->
       (* Fused path (the shape of all generated star-join SQL): plain
          column key and no cross-side residual. Probe straight off the
          outer batch's key cell and write each match directly into the
          output — no intermediate scratch row. Postings iterate in
          insertion order, so morsels reproduce the sequential output.
          [Table.prober] compacts postings as it validates them; a pool
          of several domains may probe concurrently, so it gets the
          read-only prober. *)
       let ko = Expr_eval.resolve (Batch.layout o) (q, n) in
       let probe =
         if Dpool.size ctx.pool > 1 then Table.prober_ro t pos
         else Table.prober t pos
       in
       drive ctx stats ~n:no layout (fun st out lo hi ->
           let c = cursor rd in
           let cur = ref 0 and matched = ref false and rids = ref 0 in
           let on_rid rid =
             incr rids;
             if !rids land 8191 = 0 then check_deadline ticker;
             if read c rid then begin
               matched := true;
               push_match out c !cur
             end
           in
           for i = lo to hi - 1 do
             if i land 8191 = 0 then check_deadline ticker;
             cur := i;
             matched := false;
             let k = Batch.cell o i ko in
             if k <> Cell.null then begin
               st.Opstats.index_probes <- st.Opstats.index_probes + 1;
               probe oside k on_rid
             end;
             if (not !matched) && kind = Left_outer then
               Batch.push_padded out ~src:o i
           done;
           !rids)
     | _ ->
       let out = Batch.create ~upto:no layout in
       (* One probe callback for the whole batch — allocating it (and
          the [matched] flag) per outer row showed up in join-heavy
          profiles. A cross residual is tested on the row once it is
          written, which is popped again when it fails. *)
       let probe = Table.prober t pos in
       let matched = ref false and cur = ref 0 in
       let key_of = Expr_eval.operand (Batch.layout o) key in
       let keep = Option.map (Expr_eval.compile_pred layout) cross in
       let c = cursor rd in
       let ov = Batch.view o and jv = Batch.view out and kside = Cell.side () in
       let on_rid rid =
         tick ticker;
         if read c rid then begin
           let m = Batch.mark out in
           push_match out c !cur;
           match keep with
           | None -> matched := true
           | Some keep ->
             Batch.point jv out (Batch.length out - 1);
             if keep jv then matched := true else Batch.pop out m
         end
       in
       for i = 0 to no - 1 do
         Batch.point ov o i;
         cur := i;
         matched := false;
         Cell.clear kside;
         let k = operand_cell kside key_of ov in
         if k <> Cell.null then begin
           stats.Opstats.index_probes <- stats.Opstats.index_probes + 1;
           probe kside k on_rid
         end;
         if (not !matched) && kind = Left_outer then Batch.push_padded out ~src:o i
       done;
       out)
  | Planner.Hash_join { left; right; left_keys; right_keys; kind; residual } ->
    let l = child left in
    let r = child right in
    let llay = Batch.layout l and rlay = Batch.layout r in
    let layout = Array.append llay rlay in
    let keep = Option.map (Expr_eval.compile_pred layout) residual in
    let nr = Batch.length r in
    let rside = Batch.side r in
    (* Build once over the right batch; [probe view f] calls [f] on the
       matching build row indices in build order. Single keys go to a
       {!Table.Join_hash} (one partition inline, radix partitions on
       the pool), added in ascending build order; multi-column keys to
       a {!Key} table whose cons-lists the backward loop makes come out
       forward. Either way matches replay in global build order, so
       every build strategy emits bit-identical output. *)
    let probe : Expr_eval.row -> (int -> unit) -> unit =
      match
        ( List.map (Expr_eval.operand llay) left_keys,
          List.map (Expr_eval.operand rlay) right_keys )
      with
      | [ lop ], [ rop ] ->
        (* Probing only reads: a cell key in the left batch's context,
           a computed key by its value — so parallel morsels share the
           closure. *)
        let probe_key jh (v : Expr_eval.row) f =
          match lop with
          | Expr_eval.Code g ->
            let k = g v in
            if k <> Cell.null then Table.Join_hash.iter_matches jh v.Expr_eval.side k f
          | Expr_eval.Value g ->
            let k = g v in
            if k <> Value.Null then Table.Join_hash.iter_matches_value jh k f
        in
        (match rop with
         | Expr_eval.Code rf when ctx.join_parts > 1 && nr >= !par_min_rows ->
           (* Radix-partitioned parallel build (Balkesen et al., ICDE
              2013, morselized): extract key cells, two-phase
              histogram/scatter them into hash partitions, then build
              disjoint per-partition sub-tables — one morsel per
              partition, so no two workers ever touch the same hash
              table and the "merge" is just the sub-table array.
              [Dpool.partition] keeps each partition's rows in
              ascending build order regardless of how workers claimed
              morsels; probes route by the same hash the scatter used
              and replay matches in that order. The key cells read the
              right batch's context, which no worker writes. *)
           let bt0 = Unix.gettimeofday () in
           let keys = Array.make nr Cell.null in
           let kw =
             Dpool.run_ranges ctx.pool ~n:nr (fun ~worker:_ ~lo ~hi ->
                 check_deadline ticker;
                 let v = Batch.view r in
                 for i = lo to hi - 1 do
                   Batch.point v r i;
                   keys.(i) <- rf v
                 done)
           in
           let jh = Table.Join_hash.create ~parts:ctx.join_parts in
           let starts, perm =
             Dpool.partition ctx.pool ~n:nr ~parts:ctx.join_parts
               ~part_of:(fun i ->
                 let k = keys.(i) in
                 if k = Cell.null then -1 else Table.Join_hash.part_of jh rside k)
           in
           let bw =
             Dpool.run ctx.pool ~morsels:ctx.join_parts (fun ~worker:_ p ->
                 check_deadline ticker;
                 for s = starts.(p) to starts.(p + 1) - 1 do
                   let i = perm.(s) in
                   Table.Join_hash.add jh p rside keys.(i) i
                 done)
           in
           tick_bulk ticker nr;
           stats.Opstats.build_rows <-
             stats.Opstats.build_rows + starts.(ctx.join_parts);
           stats.Opstats.partitions <- ctx.join_parts;
           stats.Opstats.build_workers <- max kw bw;
           stats.Opstats.build_ms <- (Unix.gettimeofday () -. bt0) *. 1000.0;
           probe_key jh
         | _ ->
           let jh = Table.Join_hash.create ~parts:1 in
           let v = Batch.view r and bside = Cell.side () in
           for i = 0 to nr - 1 do
             tick ticker;
             Batch.point v r i;
             Cell.clear bside;
             let k = operand_cell bside rop v in
             if k <> Cell.null then begin
               stats.Opstats.build_rows <- stats.Opstats.build_rows + 1;
               Table.Join_hash.add jh 0 bside k i
             end
           done;
           probe_key jh)
      | lops, rops ->
        let lops = Array.of_list lops and rops = Array.of_list rops in
        let tbl = KeyTbl.create (max 16 nr) in
        let v = Batch.view r in
        for i = nr - 1 downto 0 do
          tick ticker;
          Batch.point v r i;
          let k = Key.of_operands rops v in
          if not (Key.has_null k) then begin
            stats.Opstats.build_rows <- stats.Opstats.build_rows + 1;
            KeyTbl.replace tbl k
              (i :: (try KeyTbl.find tbl k with Not_found -> []))
          end
        done;
        fun v f ->
          let k = Key.of_operands lops v in
          if not (Key.has_null k) then
            List.iter f (try KeyTbl.find tbl k with Not_found -> [])
    in
    (* The build table is frozen before the probe starts; morsels only
       read it, each with a private view. A residual is tested on the
       joined row once it is written, which is popped again when it
       fails. *)
    drive ctx stats ~n:(Batch.length l) layout (fun _ out lo hi ->
        let lv = Batch.view l and jv = Batch.view out in
        let matched = ref false and cur = ref 0 in
        let emit j =
          match keep with
          | None ->
            matched := true;
            Batch.push_pair out ~left:l !cur ~right:r j
          | Some keep ->
            let m = Batch.mark out in
            Batch.push_pair out ~left:l !cur ~right:r j;
            Batch.point jv out (Batch.length out - 1);
            if keep jv then matched := true else Batch.pop out m
        in
        for i = lo to hi - 1 do
          if i land 8191 = 0 then check_deadline ticker;
          Batch.point lv l i;
          cur := i;
          matched := false;
          probe lv emit;
          if (not !matched) && kind = Left_outer then Batch.push_padded out ~src:l i
        done;
        hi - lo)
  | Planner.Nl_join { left; right; kind; cond } ->
    let l = child left in
    let r = child right in
    let layout = Array.append (Batch.layout l) (Batch.layout r) in
    let keep = Option.map (Expr_eval.compile_pred layout) cond in
    let out = Batch.create ~upto:(Batch.length l) layout in
    let jv = Batch.view out in
    let matched = ref false in
    for i = 0 to Batch.length l - 1 do
      matched := false;
      for j = 0 to Batch.length r - 1 do
        tick ticker;
        let m = Batch.mark out in
        Batch.push_pair out ~left:l i ~right:r j;
        match keep with
        | None -> matched := true
        | Some keep ->
          Batch.point jv out (Batch.length out - 1);
          if keep jv then matched := true else Batch.pop out m
      done;
      if (not !matched) && kind = Left_outer then Batch.push_padded out ~src:l i
    done;
    out
  | Planner.Values_join { outer; rows; alias; cols } ->
    let o = child outer in
    let vals_layout = Array.of_list (List.map (fun c -> (Some alias, c)) cols) in
    let layout = Array.append (Batch.layout o) vals_layout in
    (* Row expressions may reference outer columns (lateral). *)
    let compiled =
      List.map
        (fun exprs -> Array.of_list (List.map (Expr_eval.operand (Batch.layout o)) exprs))
        rows
    in
    let ow = Batch.width o in
    let out = Batch.create ~upto:(Batch.length o) layout in
    let oside = Batch.side out and ov = Batch.view o in
    for i = 0 to Batch.length o - 1 do
      Batch.point ov o i;
      List.iter
        (fun ops ->
          tick ticker;
          Batch.push_padded out ~src:o i;
          let oi = Batch.length out - 1 in
          for j = 0 to Array.length ops - 1 do
            Batch.set_cell out oi (ow + j) (operand_cell oside ops.(j) ov)
          done)
        compiled
    done;
    out
  | Planner.Wcoj { atoms; var_order; n_vars; outputs; est_rows = _ } ->
    (* Leapfrog runs sequentially against base tables only (the planner
       never makes a CTE an atom), so the result is bit-identical
       regardless of the domain count. *)
    Leapfrog.run ~tick:(tick_bulk ticker) ~stats db atoms ~var_order ~n_vars
      ~outputs
  | Planner.Filter (p, e) ->
    let b = child p in
    let keep = Expr_eval.compile_pred (Batch.layout b) e in
    Batch.retain b (fun row ->
        tick ticker;
        keep row);
    b
  | Planner.Project { input; items; distinct; order_by; limit; offset } ->
    let b = child input in
    let in_layout = Batch.layout b in
    (* All-column projections (the shape star-join SQL generates) skip
       per-row closure dispatch: resolve each column once and copy. *)
    let plain_cols =
      if order_by <> [] then None
      else
        try
          Some
            (Array.of_list
               (List.map
                  (function
                    | Col (q, n), _ -> Expr_eval.resolve in_layout (q, n)
                    | _ -> raise Exit)
                  items))
        with Exit -> None
    in
    (match plain_cols with
     | Some cols ->
       let out_layout =
         Array.of_list (List.map (fun (_, name) -> (None, name)) items)
       in
       tick_bulk ticker (Batch.length b);
       let out = Batch.project b out_layout cols in
       finalize ticker ctx.pool stats ~distinct ~sort_keys:[] ~limit ~offset out
     | None ->
    let ops =
      Array.of_list (List.map (fun (e, _) -> Expr_eval.operand in_layout e) items)
    in
    let out_layout =
      Array.of_list (List.map (fun (_, name) -> (None, name)) items)
    in
    let n = Batch.length b in
    (* Sort keys resolve against the input layout when their columns do
       (e.g. "R.v_yr"), otherwise the output aliases (e.g. "yr"); SQL
       applies DISTINCT before ORDER BY. Keys are evaluated once per row
       into columns, not once per comparison. *)
    let sort_srcs =
      List.map
        (fun { sort_expr; asc } ->
          match Expr_eval.operand in_layout sort_expr with
          | f -> (`In f, sort_key n asc)
          | exception Expr_eval.Unknown_column _ ->
            (`Out (Expr_eval.operand out_layout sort_expr), sort_key n asc))
        order_by
    in
    let out = Batch.create ~capacity:n out_layout in
    let oside = Batch.side out in
    let iv = Batch.view b and ov = Batch.view out in
    for i = 0 to n - 1 do
      tick ticker;
      Batch.point iv b i;
      let oi = Batch.add_row out in
      for j = 0 to Array.length ops - 1 do
        Batch.set_cell out oi j (operand_cell oside ops.(j) iv)
      done;
      List.iter
        (fun (src, k) ->
          k.keys.(i) <-
            (match src with
             | `In f -> operand_cell k.kside f iv
             | `Out f ->
               Batch.point ov out oi;
               operand_cell k.kside f ov))
        sort_srcs
    done;
    finalize ticker ctx.pool stats ~distinct ~sort_keys:(List.map snd sort_srcs) ~limit
      ~offset out)
  | Planner.Aggregate { input; keys; items; distinct; order_by; limit; offset } ->
    let b = child input in
    let in_layout = Batch.layout b in
    let w = Batch.width b in
    let key_ops = Array.of_list (List.map (Expr_eval.operand in_layout) keys) in
    (* One accumulator per output item. *)
    let module Acc = struct
      type t = {
        mutable count : int;
        mutable sum : float;
        mutable all_int : bool;
        mutable minimum : Value.t option;
        mutable maximum : Value.t option;
        seen : int KeyTbl.t option;
            (* DISTINCT tracking: distinct key -> global index of its
               first occurrence. The sequential path only tests
               membership; the parallel merge replays keys in
               first-occurrence order. *)
      }
    end in
    let compiled_items =
      List.map
        (function
          | Planner.Ai_plain (e, name) ->
            `Plain (Expr_eval.compile in_layout e, name)
          | Planner.Ai_agg (fn, arg, dist, name) ->
            `Agg (fn, Option.map (Expr_eval.compile in_layout) arg, dist, name))
        items
    in
    let fresh_accs () =
      List.filter_map
        (function
          | `Plain _ -> None
          | `Agg (_, _, dist, _) ->
            Some
              { Acc.count = 0; sum = 0.0; all_int = true; minimum = None;
                maximum = None;
                seen = (if dist then Some (KeyTbl.create 8) else None) })
        compiled_items
      |> Array.of_list
    in
    (* num-aware ordering for MIN/MAX, consistent with comparisons *)
    let value_lt a b =
      match Value.as_float a, Value.as_float b with
      | Some x, Some y -> x < y
      | _ -> Value.compare a b < 0
    in
    (* Scalar accumulator update — shared by the sequential path, the
       parallel workers and the DISTINCT-merge replay. *)
    let acc_apply (acc : Acc.t) v =
      acc.Acc.count <- acc.Acc.count + 1;
      (match Value.as_float v with
       | Some x ->
         acc.Acc.sum <- acc.Acc.sum +. x;
         (match v with Value.Int _ -> () | _ -> acc.Acc.all_int <- false)
       | None -> ());
      (match acc.Acc.minimum with
       | None -> acc.Acc.minimum <- Some v
       | Some m -> if value_lt v m then acc.Acc.minimum <- Some v);
      match acc.Acc.maximum with
      | None -> acc.Acc.maximum <- Some v
      | Some m -> if value_lt m v then acc.Acc.maximum <- Some v
    in
    let arg_value arg row =
      match arg with None -> Value.Bool true | Some f -> f row
    in
    (* count-star counts every row; with an argument NULLs don't count *)
    let counted arg v =
      match arg with None -> true | Some _ -> not (Value.is_null v)
    in
    (* Arg-less COUNT DISTINCT is distinct over whole input rows, not
       over the constant the arg-less case evaluates to. *)
    let distinct_key arg v row =
      match arg with Some _ -> Key.of_value v | None -> Key.of_row w row
    in
    let n = Batch.length b in
    let out_layout =
      Array.of_list
        (List.map
           (function `Plain (_, n) -> (None, n) | `Agg (_, _, _, n) -> (None, n))
           compiled_items)
    in
    (* A group's output row; [first] is the index of its first input
       row, -1 for the empty group of an aggregate without GROUP BY. *)
    let gv = Batch.view b in
    let emit_group (first, accs) =
      if first >= 0 then Batch.point gv b first;
      let ai = ref 0 in
      Array.of_list
        (List.map
           (function
             | `Plain (f, _) -> if first < 0 then Value.Null else f gv
             | `Agg (fn, _, _, _) ->
               let acc = accs.(!ai) in
               incr ai;
               (match (fn : Sql_ast.agg_fun) with
                | Sql_ast.A_count -> Value.Int acc.Acc.count
                | Sql_ast.A_sum ->
                  if acc.Acc.count = 0 then Value.Int 0
                  else if acc.Acc.all_int then Value.Int (int_of_float acc.Acc.sum)
                  else Value.Real acc.Acc.sum
                | Sql_ast.A_avg ->
                  if acc.Acc.count = 0 then Value.Null
                  else Value.Real (acc.Acc.sum /. float_of_int acc.Acc.count)
                | Sql_ast.A_min -> Option.value ~default:Value.Null acc.Acc.minimum
                | Sql_ast.A_max -> Option.value ~default:Value.Null acc.Acc.maximum))
           compiled_items)
    in
    let out =
      match morsels_for ctx.pool n with
      | None ->
        let groups : (int * Acc.t array) KeyTbl.t = KeyTbl.create 64 in
        let order = ref [] in
        let v = Batch.view b in
        for i = 0 to n - 1 do
          tick ticker;
          Batch.point v b i;
          let key = Key.of_operands key_ops v in
          let _, accs =
            try KeyTbl.find groups key
            with Not_found ->
              let entry = (i, fresh_accs ()) in
              KeyTbl.add groups key entry;
              order := key :: !order;
              entry
          in
          let ai = ref 0 in
          List.iter
            (function
              | `Plain _ -> ()
              | `Agg (_, arg, _, _) ->
                let acc = accs.(!ai) in
                incr ai;
                let x = arg_value arg v in
                if counted arg x then begin
                  let fresh =
                    match acc.Acc.seen with
                    | None -> true
                    | Some seen ->
                      let dk = distinct_key arg x v in
                      if KeyTbl.mem seen dk then false
                      else begin
                        KeyTbl.add seen dk i;
                        true
                      end
                  in
                  if fresh then acc_apply acc x
                end)
            compiled_items
        done;
        (* SQL: no GROUP BY and no rows still yields one (empty) group. *)
        let nokey = Key.of_operands [||] v in
        if keys = [] && KeyTbl.length groups = 0 then begin
          KeyTbl.add groups nokey (-1, fresh_accs ());
          order := [ nokey ]
        end;
        let out = Batch.create ~capacity:(KeyTbl.length groups) out_layout in
        List.iter
          (fun key -> Batch.push_row out (emit_group (KeyTbl.find groups key)))
          (List.rev !order);
        out
      | Some (m, msize) ->
        (* Parallel aggregation: each worker folds the morsels it claims
           into a private group table, partials merge at the barrier.
           Groups carry the least global row index of any member so the
           merged output can be emitted in first-occurrence order — the
           sequential output order. *)
        let module G = struct
          type t = {
            mutable fidx : int;  (* least global row index in the group *)
            accs : Acc.t array;
          }
        end in
        let wgroups : G.t KeyTbl.t array =
          Array.init (Dpool.size ctx.pool) (fun _ -> KeyTbl.create 64)
        in
        par_section stats ctx.pool ~morsels:m (fun ~worker mi ->
            check_deadline ticker;
            let groups = wgroups.(worker) in
            let v = Batch.view b in
            let lo = mi * msize and hi = min n ((mi + 1) * msize) in
            for i = lo to hi - 1 do
              Batch.point v b i;
              let key = Key.of_operands key_ops v in
              let g =
                match KeyTbl.find_opt groups key with
                | Some g ->
                  (* Morsels are claimed out of order: keep the row with
                     the least global index as group representative. *)
                  if i < g.G.fidx then g.G.fidx <- i;
                  g
                | None ->
                  let g = { G.fidx = i; accs = fresh_accs () } in
                  KeyTbl.add groups key g;
                  g
              in
              let ai = ref 0 in
              List.iter
                (function
                  | `Plain _ -> ()
                  | `Agg (_, arg, _, _) ->
                    let acc = g.G.accs.(!ai) in
                    incr ai;
                    let x = arg_value arg v in
                    if counted arg x then
                      match acc.Acc.seen with
                      | None -> acc_apply acc x
                      | Some seen ->
                        (* DISTINCT partials only record first-occurrence
                           indices; the merge replays them globally so
                           cross-worker duplicates collapse correctly. *)
                        let dk = distinct_key arg x v in
                        (match KeyTbl.find_opt seen dk with
                         | Some j -> if i < j then KeyTbl.replace seen dk i
                         | None -> KeyTbl.add seen dk i))
                compiled_items
            done);
        tick_bulk ticker n;
        let acc_merge (a : Acc.t) (p : Acc.t) =
          a.Acc.count <- a.Acc.count + p.Acc.count;
          a.Acc.sum <- a.Acc.sum +. p.Acc.sum;
          a.Acc.all_int <- a.Acc.all_int && p.Acc.all_int;
          (match p.Acc.minimum with
           | None -> ()
           | Some v ->
             (match a.Acc.minimum with
              | None -> a.Acc.minimum <- Some v
              | Some mn -> if value_lt v mn then a.Acc.minimum <- Some v));
          (match p.Acc.maximum with
           | None -> ()
           | Some v ->
             (match a.Acc.maximum with
              | None -> a.Acc.maximum <- Some v
              | Some mx -> if value_lt mx v then a.Acc.maximum <- Some v));
          match a.Acc.seen, p.Acc.seen with
          | Some sa, Some sp ->
            KeyTbl.iter
              (fun dk i ->
                match KeyTbl.find_opt sa dk with
                | Some j -> if i < j then KeyTbl.replace sa dk i
                | None -> KeyTbl.add sa dk i)
              sp
          | _ -> ()
        in
        let merged : G.t KeyTbl.t = KeyTbl.create 64 in
        Array.iter
          (fun wg ->
            KeyTbl.iter
              (fun key (g : G.t) ->
                match KeyTbl.find_opt merged key with
                | None -> KeyTbl.add merged key g
                | Some mg ->
                  if g.G.fidx < mg.G.fidx then mg.G.fidx <- g.G.fidx;
                  Array.iter2 acc_merge mg.G.accs g.G.accs)
              wg)
          wgroups;
        (* Rebuild DISTINCT accumulators from their merged key sets,
           replayed in first-occurrence order — identical to the
           sequential accumulation, including float summation order. *)
        let agg_has_arg =
          Array.of_list
            (List.filter_map
               (function
                 | `Plain _ -> None
                 | `Agg (_, arg, _, _) -> Some (arg <> None))
               compiled_items)
        in
        KeyTbl.iter
          (fun _ (g : G.t) ->
            Array.iteri
              (fun ai (acc : Acc.t) ->
                match acc.Acc.seen with
                | None -> ()
                | Some seen ->
                  acc.Acc.count <- 0;
                  acc.Acc.sum <- 0.0;
                  acc.Acc.all_int <- true;
                  acc.Acc.minimum <- None;
                  acc.Acc.maximum <- None;
                  KeyTbl.fold (fun dk i l -> (i, dk) :: l) seen []
                  |> List.sort (fun (i, _) (j, _) -> compare (i : int) j)
                  |> List.iter (fun (_, dk) ->
                         acc_apply acc
                           (if agg_has_arg.(ai) then Key.value dk 0
                            else Value.Bool true)))
              g.G.accs)
          merged;
        let ordered =
          List.sort
            (fun (a : G.t) b -> compare a.G.fidx b.G.fidx)
            (KeyTbl.fold (fun _ g l -> g :: l) merged [])
        in
        if keys = [] && ordered = [] then begin
          let out = Batch.create ~capacity:1 out_layout in
          Batch.push_row out (emit_group (-1, fresh_accs ()));
          out
        end
        else begin
          let out = Batch.create ~capacity:(List.length ordered) out_layout in
          List.iter
            (fun (g : G.t) ->
              Batch.push_row out (emit_group (g.G.fidx, g.G.accs)))
            ordered;
          out
        end
    in
    (* Distinct / order / limit over the aggregated output. *)
    let sort_keys =
      match order_by with
      | [] -> []
      | obs ->
        let n = Batch.length out in
        let ks =
          List.map
            (fun { sort_expr; asc } -> (Expr_eval.operand out_layout sort_expr, sort_key n asc))
            obs
        in
        let ov = Batch.view out in
        for i = 0 to n - 1 do
          Batch.point ov out i;
          List.iter (fun (f, k) -> k.keys.(i) <- operand_cell k.kside f ov) ks
        done;
        List.map snd ks
    in
    finalize ticker ctx.pool stats ~distinct ~sort_keys ~limit ~offset out
  | Planner.Union_plan { all; parts } ->
    (match parts with
     | [] -> Batch.create [||]
     | _ ->
       let batches = List.map child parts in
       let first = List.hd batches in
       let total = List.fold_left (fun a b -> a + Batch.length b) 0 batches in
       let out = Batch.create ~capacity:total (Batch.layout first) in
       List.iter (fun b -> Batch.append out b) batches;
       if all then out
       else Batch.permute out (first_occurrences ticker out (Array.init total Fun.id)))

(* Run [plan] as an input of [parent]. Unanalyzed, that is all: the
   node counts into [parent]'s record, so every node of the statement
   shares one scratch record. Analyzed, the node gets its own record
   with its label, the planner's estimate and its wall time, linked
   under [parent]. *)
and exec ctx parent plan =
  if not ctx.analyze then exec_plan ctx parent plan
  else begin
    let stats = Opstats.make (Planner.node_label plan) in
    stats.Opstats.est_rows <- Planner.estimate ~ctes:ctx.scope ctx.db plan;
    let t0 = Unix.gettimeofday () in
    let out = exec_plan ctx stats plan in
    Opstats.finish stats ~rows_out:(Batch.length out)
      ~seconds:(Unix.gettimeofday () -. t0);
    Opstats.add_child parent stats;
    out
  end

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

(** Run a full statement: evaluate each CTE in order into a resident
    batch, then the body. Analyzed, the returned tree has the statement
    at its root and a [CTE <name>] / [body] wrapper over each part's
    operator tree; unanalyzed, the returned record is scratch.
    [timeout] is in seconds of wall time for the whole statement.
    [domains] caps the worker domains hot operators may fan out over
    (default: the database's {!Database.parallelism}; 1 keeps every
    operator on its sequential code path); hash-join builds partition
    by {!join_partition_count} of that pool. The domain count never
    changes results — only how the work is split. *)
let run_with_stats ~analyze ?timeout ?domains db (stmt : stmt)
    : Batch.t * Opstats.t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let ticker = { deadline; ops = 0 } in
  let t0 = if analyze then Unix.gettimeofday () else 0.0 in
  let root = Opstats.make "statement" in
  let pool =
    Dpool.get
      (match domains with Some n -> n | None -> Database.parallelism db)
  in
  let join_parts = join_partition_count pool in
  let ctx =
    { db; ticker; ctes = Hashtbl.create 4; pool; join_parts; analyze; scope = [] }
  in
  (* [name] is the CTE's, [None] for the body. *)
  let run_part name scope plan =
    ctx.scope <- scope;
    if not analyze then exec_plan ctx root plan
    else begin
      let w =
        Opstats.make (match name with Some n -> "CTE " ^ n | None -> "body")
      in
      let b = exec ctx w plan in
      let st = List.hd w.Opstats.children in
      w.Opstats.rows_in <- st.Opstats.rows_in;
      Opstats.finish w ~rows_out:(Batch.length b) ~seconds:st.Opstats.seconds;
      Opstats.add_child root w;
      root.Opstats.rows_in <- root.Opstats.rows_in + Batch.length b;
      b
    end
  in
  let ctes, (body_scope, body) = Planner.plan_stmt db stmt in
  List.iter
    (fun (name, scope, plan) ->
      Hashtbl.replace ctx.ctes name (run_part (Some name) scope plan))
    ctes;
  let b = run_part None body_scope body in
  if analyze then
    Opstats.finish root ~rows_out:(Batch.length b)
      ~seconds:(Unix.gettimeofday () -. t0);
  (b, root)

let run ?timeout ?domains db stmt =
  fst (run_with_stats ~analyze:false ?timeout ?domains db stmt)

let run_analyzed ?timeout ?domains db stmt =
  run_with_stats ~analyze:true ?timeout ?domains db stmt

(** Explain: the physical plans of each CTE and the body, as text. With
    [~analyze:true] the statement is also executed and the per-operator
    metrics tree appended. *)
let explain ?(analyze = false) ?timeout ?domains db
    (stmt : stmt) : string =
  let buf = Buffer.create 512 in
  let ctes, (_, body) = Planner.plan_stmt db stmt in
  List.iter
    (fun (name, _, plan) ->
      Buffer.add_string buf ("CTE " ^ name ^ ":\n");
      Buffer.add_string buf (Planner.plan_to_string plan))
    ctes;
  Buffer.add_string buf "body:\n";
  Buffer.add_string buf (Planner.plan_to_string body);
  if analyze then begin
    let _, stats = run_analyzed ?timeout ?domains db stmt in
    Buffer.add_string buf "analyze:\n";
    Buffer.add_string buf (Opstats.to_string stats)
  end;
  Buffer.contents buf
