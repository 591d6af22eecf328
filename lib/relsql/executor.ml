(** Physical plan interpreter over row batches.

    Each plan node materializes into a {!Batch.t}: an ordered column
    layout plus one flat growable value vector. Execution is bottom-up
    and fully materializing, but batch-at-a-time: operators blit rows
    through reused scratch arrays instead of allocating a fresh array
    per candidate row, hash joins key their build side once per input
    batch, and selections run as a single in-place pass.

    Two pieces are shared by the operators. A row reader is the one
    place a row id becomes cells: packed codes below the table's main
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

(** Partition count for radix-partitioned hash-join builds: an explicit
    request is rounded up to a power of two; auto (0) gives twice the
    pool size — enough sub-tables that morsel claiming balances skewed
    builds — or 1 on a sequential pool, where partitioning is pure
    overhead. Capped so the per-partition bookkeeping of tiny builds
    stays bounded. *)
let resolve_join_partitions pool requested =
  let p =
    if requested > 0 then requested
    else if Dpool.size pool <= 1 then 1
    else 2 * Dpool.size pool
  in
  min 256 (next_pow2 p)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let table_layout table alias : Expr_eval.layout =
  let schema = Table.schema table in
  Array.init (Schema.arity schema) (fun i -> (Some alias, Schema.column schema i))

(* A hashable key for DISTINCT / multi-column hash joins. *)
module Key = struct
  type t = Value.t list
  let equal a b = List.length a = List.length b && List.for_all2 Value.equal a b
  let hash l = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 l
end

module KeyTbl = Hashtbl.Make (Key)

(* Single-value keys (the common case for generated star-join SQL) skip
   the list wrapper entirely. *)
module VTbl = Hashtbl.Make (struct
  type t = Value.t
  let equal = Value.equal
  let hash = Value.hash
end)

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

(** DISTINCT, ORDER BY (over precomputed per-row key columns), then
    OFFSET/LIMIT, applied to a computed output batch via an index
    permutation. *)
let finalize ticker pool stats ~distinct
    ~(sort_keys : (Value.t array * bool) list) ~limit ~offset (out : Batch.t)
    : Batch.t =
  if (not distinct) && sort_keys = [] && limit = None && offset = None then out
  else begin
    let n = Batch.length out in
    let idx = ref (Array.init n (fun i -> i)) in
    if distinct then begin
      (* Dedupe by hashing rows in place — no per-row key allocation. *)
      let w = Batch.width out in
      let row_hash i =
        let h = ref 17 in
        for j = 0 to w - 1 do
          h := (!h * 31) + Value.hash (Batch.get out i j)
        done;
        !h
      in
      let rows_eq a b =
        let rec go j =
          j >= w || (Value.equal (Batch.get out a j) (Batch.get out b j) && go (j + 1))
        in
        go 0
      in
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
        !idx;
      idx := Array.sub kept 0 !k
    end;
    (match sort_keys with
     | [] -> ()
     | ks ->
       par_stable_sort ticker pool stats
         (fun a b ->
           let rec cmp = function
             | [] -> 0
             | ((col : Value.t array), asc) :: rest ->
               let c = Value.compare col.(a) col.(b) in
               if c <> 0 then if asc then c else -c else cmp rest
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
    packed-main boundary decode from the packed image — only the
    [needed] columns, into a per-cursor scratch — and rids at or above
    it are the boxed delta rows themselves. A filter that compiles to a
    code predicate is tested on raw packed fields, so a rejected main
    row decodes nothing; the decoded predicate serves the delta, and
    the main when no code predicate took the filter over. A reader is
    immutable and shared by parallel morsels; each morsel reads through
    its own {!cursor}. *)
type reader = {
  table : Table.t;
  pk : Packed.t;
  mbase : int;  (* slots below this live in the packed main *)
  layout : Expr_eval.layout;  (* the full table row's *)
  code : (int -> bool) option;  (* the filter over packed codes *)
  keep : Value.t array -> bool;  (* the filter over decoded rows *)
  needed : int array;  (* columns a main row decodes *)
  sel : int array option;  (* projected positions; [None] = all *)
  out_layout : Expr_eval.layout;  (* the projected row's *)
}

type cursor = {
  rd : reader;
  scratch : Value.t array;
      (* positions outside [needed] stay stale; nothing reads them *)
  mutable unpacked : int;  (* main rows decoded *)
  mutable delta : int;  (* delta rows read *)
}

(* What {!read} answers for a row the filter rejects: an array no table
   row or scratch can be. *)
let rejected : Value.t array = [| Value.Null |]

let accept_all _ = true

(** A reader of [t] under [layout] that keeps the rows passing [filter]
    and projects them to [cols]. [~prefiltered:true] says the caller
    already applied [filter] to every main rid it reads (the scan's
    block bitmaps), so those decode untested. Raises
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
  let needed =
    if mbase = 0 then [||]
    else
      match sel with
      | None -> Array.init (Array.length layout) Fun.id
      | Some sel ->
        let refs =
          match (filter, code) with
          | Some e, None -> Expr_eval.referenced_cols layout e
          | _ -> []
        in
        Array.of_list (List.sort_uniq Int.compare (Array.to_list sel @ refs))
  in
  { table = t; pk; mbase; layout; code; keep; needed; sel; out_layout }

let cursor rd =
  let scratch =
    if rd.mbase = 0 then [||]
    else Array.make (Array.length rd.layout) Value.Null
  in
  { rd; scratch; unpacked = 0; delta = 0 }

(** The full row at [rid], or {!rejected}. A main row is the cursor's
    scratch, a delta row the table's own array: callers copy out what
    they keep before the next read and never write to it. *)
let[@inline] read c rid =
  let rd = c.rd in
  if rid >= rd.mbase then begin
    c.delta <- c.delta + 1;
    let row = Table.get rd.table rid in
    if rd.keep row then row else rejected
  end
  else
    match rd.code with
    | Some cp ->
      if cp rid then begin
        c.unpacked <- c.unpacked + 1;
        Packed.read_cols rd.pk rid rd.needed c.scratch;
        c.scratch
      end
      else rejected
    | None ->
      c.unpacked <- c.unpacked + 1;
      Packed.read_cols rd.pk rid rd.needed c.scratch;
      if rd.keep c.scratch then c.scratch else rejected

(** {!read} [rid] and append the projected row to [out] unless rejected. *)
let[@inline] read_into c out rid =
  let row = read c rid in
  if row != rejected then
    match c.rd.sel with
    | None -> Batch.push_row out row
    | Some sel -> Batch.push_sel out row sel

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
      (* Capped: a selective operator over a wide table (DPH is ~50
         columns) would otherwise pre-allocate the full footprint for a
         handful of surviving rows. *)
      let out = Batch.create ~capacity:(min 1024 n) layout in
      (out, body stats out 0 n)
    | Some (m, msize) ->
      let parts = Array.make m (Batch.create ~capacity:1 layout) in
      let counts = Array.init m (fun _ -> Opstats.make "") in
      let ops = Array.make m 0 in
      par_section stats ctx.pool ~morsels:m (fun ~worker:_ i ->
          check_deadline ctx.ticker;
          let lo = i * msize and hi = min n ((i + 1) * msize) in
          let out = Batch.create ~capacity:(min 1024 (hi - lo)) layout in
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
       (* The stashed batch is shared by every reader of the CTE: a
          filter retains in a private copy; a projection alone builds
          its fresh batch straight from it. *)
       let rows =
         match filter with
         | Some e ->
           let b = Batch.copy src in
           Batch.retain b (Expr_eval.compile_pred layout e);
           b
         | None when cols = None -> Batch.copy src
         | None -> src
       in
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
          reader then tests and decodes each one. *)
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
    List.iter
      (fun key ->
        stats.Opstats.index_probes <- stats.Opstats.index_probes + 1;
        probe key (fun rid ->
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
       probes) costs no blit. One that also reads outer columns does
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
    let ow = Batch.width o and iw = Array.length rd.out_layout in
    let no = Batch.length o in
    (match cross, key with
     | None, Col (q, n) ->
       (* Fused path (the shape of all generated star-join SQL): plain
          column key and no cross-side residual. Probe straight off the
          outer batch and blit each match directly into the output — no
          intermediate scratch row. Postings iterate in insertion order,
          so morsels reproduce the sequential output. [Table.prober]
          compacts postings as it validates them; a pool of several
          domains may probe concurrently, so it gets the read-only
          prober. *)
       let ko = Expr_eval.resolve (Batch.layout o) (q, n) in
       let probe =
         if Dpool.size ctx.pool > 1 then Table.prober_ro t pos
         else Table.prober t pos
       in
       drive ctx stats ~n:no layout (fun st out lo hi ->
           let c = cursor rd in
           let push =
             match rd.sel with
             | None -> fun i irow -> Batch.push_join out ~src:o i irow iw
             | Some sel ->
               fun i irow -> Batch.push_join_sel out ~src:o i irow sel
           in
           let cur = ref 0 and matched = ref false and rids = ref 0 in
           let on_rid rid =
             incr rids;
             if !rids land 8191 = 0 then check_deadline ticker;
             let irow = read c rid in
             if irow != rejected then begin
               matched := true;
               push !cur irow
             end
           in
           for i = lo to hi - 1 do
             if i land 8191 = 0 then check_deadline ticker;
             cur := i;
             matched := false;
             let k = Batch.get o i ko in
             if not (Value.is_null k) then begin
               st.Opstats.index_probes <- st.Opstats.index_probes + 1;
               probe k on_rid
             end;
             if (not !matched) && kind = Left_outer then
               Batch.push_padded out ~src:o i
           done;
           !rids)
     | _ ->
       let out = Batch.create ~capacity:(min 1024 no) layout in
       (* One probe callback for the whole batch — allocating it (and
          the [matched] flag) per outer row showed up in join-heavy
          profiles. *)
       let probe = Table.prober t pos in
       let matched = ref false in
       let key_fn = Expr_eval.compile (Batch.layout o) key in
       let keep =
         match cross with
         | Some e -> Expr_eval.compile_pred layout e
         | None -> accept_all
       in
       let scratch = Array.make (ow + iw) Value.Null in
       let c = cursor rd in
       let on_rid rid =
         tick ticker;
         let irow = read c rid in
         if irow != rejected then begin
           (match rd.sel with
            | None -> Array.blit irow 0 scratch ow iw
            | Some sel ->
              for j = 0 to iw - 1 do
                scratch.(ow + j) <- irow.(sel.(j))
              done);
           if keep scratch then begin
             matched := true;
             Batch.push_row out scratch
           end
         end
       in
       for i = 0 to no - 1 do
         Batch.blit_row o i scratch 0;
         let k = key_fn scratch in
         matched := false;
         if not (Value.is_null k) then begin
           stats.Opstats.index_probes <- stats.Opstats.index_probes + 1;
           probe k on_rid
         end;
         if (not !matched) && kind = Left_outer then begin
           Array.fill scratch ow iw Value.Null;
           Batch.push_row out scratch
         end
       done;
       out)
  | Planner.Hash_join { left; right; left_keys; right_keys; kind; residual } ->
    let l = child left in
    let r = child right in
    let llay = Batch.layout l and rlay = Batch.layout r in
    let layout = Array.append llay rlay in
    let keep =
      match residual with
      | Some e -> Expr_eval.compile_pred layout e
      | None -> fun _ -> true
    in
    let lw = Batch.width l and rw = Batch.width r in
    let nr = Batch.length r in
    let rscratch = Array.make rw Value.Null in
    (* Build once over the right batch; [probe row f] calls [f] on the
       matching build row indices in build order. The sequential builds'
       backward loops make the cons-lists come out forward; the
       partitioned build appends ascending per partition — either way
       matches replay in global build order, so every build strategy
       emits bit-identical output. *)
    (* A build key that is a plain column reads straight out of the
       right batch — no full-row blit just to extract one cell (DPH/RPH
       rows are wide, so the blit dominated single-key builds). *)
    let direct_rk =
      match right_keys with
      | [ Col (q, n) ] -> (
        match Expr_eval.resolve rlay (q, n) with
        | kc -> Some kc
        | exception Expr_eval.Unknown_column _ -> None)
      | _ -> None
    in
    let probe : Value.t array -> (int -> unit) -> unit =
      match
        ( List.map (Expr_eval.compile llay) left_keys,
          List.map (Expr_eval.compile rlay) right_keys )
      with
      | [ lf ], [ rf ] when ctx.join_parts > 1 && nr >= !par_min_rows ->
        (* Radix-partitioned parallel build (Balkesen et al., ICDE
           2013, morselized): extract keys, two-phase histogram/scatter
           them into hash partitions, then build disjoint per-partition
           sub-tables — one morsel per partition, so no two workers
           ever touch the same hash table and the "merge" is just the
           sub-table array. [Dpool.partition] keeps each partition's
           rows in ascending build order regardless of how workers
           claimed morsels; probes route by the same hash the scatter
           used and replay matches in that order. *)
        let bt0 = Unix.gettimeofday () in
        let keys = Array.make nr Value.Null in
        let kw =
          Dpool.run_ranges ctx.pool ~n:nr (fun ~worker:_ ~lo ~hi ->
              check_deadline ticker;
              match direct_rk with
              | Some kc ->
                for i = lo to hi - 1 do
                  keys.(i) <- Batch.get r i kc
                done
              | None ->
                let scratch = Array.make rw Value.Null in
                for i = lo to hi - 1 do
                  Batch.blit_row r i scratch 0;
                  keys.(i) <- rf scratch
                done)
        in
        let jh = Table.Join_hash.create ~parts:ctx.join_parts in
        let starts, perm =
          Dpool.partition ctx.pool ~n:nr ~parts:ctx.join_parts
            ~part_of:(fun i ->
              let k = keys.(i) in
              if Value.is_null k then -1 else Table.Join_hash.part_of jh k)
        in
        let bw =
          Dpool.run ctx.pool ~morsels:ctx.join_parts (fun ~worker:_ p ->
              check_deadline ticker;
              for s = starts.(p) to starts.(p + 1) - 1 do
                let i = perm.(s) in
                Table.Join_hash.add jh p keys.(i) i
              done)
        in
        tick_bulk ticker nr;
        stats.Opstats.build_rows <-
          stats.Opstats.build_rows + starts.(ctx.join_parts);
        stats.Opstats.partitions <- ctx.join_parts;
        stats.Opstats.build_workers <- max kw bw;
        stats.Opstats.build_ms <- (Unix.gettimeofday () -. bt0) *. 1000.0;
        fun row f ->
          let k = lf row in
          if not (Value.is_null k) then Table.Join_hash.iter_matches jh k f
      | [ lf ], [ rf ] ->
        let tbl = VTbl.create (max 16 nr) in
        for i = nr - 1 downto 0 do
          tick ticker;
          let k =
            match direct_rk with
            | Some kc -> Batch.get r i kc
            | None ->
              Batch.blit_row r i rscratch 0;
              rf rscratch
          in
          if not (Value.is_null k) then begin
            stats.Opstats.build_rows <- stats.Opstats.build_rows + 1;
            VTbl.replace tbl k
              (i :: (try VTbl.find tbl k with Not_found -> []))
          end
        done;
        fun row f ->
          let k = lf row in
          if not (Value.is_null k) then
            List.iter f (try VTbl.find tbl k with Not_found -> [])
      | lfs, rfs ->
        let tbl = KeyTbl.create (max 16 nr) in
        for i = nr - 1 downto 0 do
          tick ticker;
          Batch.blit_row r i rscratch 0;
          let k = List.map (fun f -> f rscratch) rfs in
          if not (List.exists Value.is_null k) then begin
            stats.Opstats.build_rows <- stats.Opstats.build_rows + 1;
            KeyTbl.replace tbl k
              (i :: (try KeyTbl.find tbl k with Not_found -> []))
          end
        done;
        fun row f ->
          let k = List.map (fun f -> f row) lfs in
          if not (List.exists Value.is_null k) then
            List.iter f (try KeyTbl.find tbl k with Not_found -> [])
    in
    let probe_range out scratch lo hi =
      let matched = ref false in
      let emit j =
        Batch.blit_row r j scratch lw;
        if keep scratch then begin
          matched := true;
          Batch.push_row out scratch
        end
      in
      for i = lo to hi - 1 do
        if i land 8191 = 0 then check_deadline ticker;
        Batch.blit_row l i scratch 0;
        matched := false;
        probe scratch emit;
        if (not !matched) && kind = Left_outer then begin
          Array.fill scratch lw rw Value.Null;
          Batch.push_row out scratch
        end
      done
    in
    (* The build table is frozen before the probe starts; morsels only
       read it, each with private scratch. *)
    drive ctx stats ~n:(Batch.length l) layout (fun _ out lo hi ->
        probe_range out (Array.make (lw + rw) Value.Null) lo hi;
        hi - lo)
  | Planner.Nl_join { left; right; kind; cond } ->
    let l = child left in
    let r = child right in
    let layout = Array.append (Batch.layout l) (Batch.layout r) in
    let keep =
      match cond with
      | Some e -> Expr_eval.compile_pred layout e
      | None -> fun _ -> true
    in
    let lw = Batch.width l and rw = Batch.width r in
    let scratch = Array.make (lw + rw) Value.Null in
    let out = Batch.create ~capacity:(min 1024 (Batch.length l)) layout in
    let matched = ref false in
    for i = 0 to Batch.length l - 1 do
      Batch.blit_row l i scratch 0;
      matched := false;
      for j = 0 to Batch.length r - 1 do
        tick ticker;
        Batch.blit_row r j scratch lw;
        if keep scratch then begin
          matched := true;
          Batch.push_row out scratch
        end
      done;
      if (not !matched) && kind = Left_outer then begin
        Array.fill scratch lw rw Value.Null;
        Batch.push_row out scratch
      end
    done;
    out
  | Planner.Values_join { outer; rows; alias; cols } ->
    let o = child outer in
    let vals_layout = Array.of_list (List.map (fun c -> (Some alias, c)) cols) in
    let layout = Array.append (Batch.layout o) vals_layout in
    (* Row expressions may reference outer columns (lateral). *)
    let compiled =
      List.map (fun exprs -> List.map (Expr_eval.compile (Batch.layout o)) exprs) rows
    in
    let ow = Batch.width o and vw = Array.length vals_layout in
    let scratch = Array.make (ow + vw) Value.Null in
    let out = Batch.create ~capacity:(min 1024 (Batch.length o)) layout in
    for i = 0 to Batch.length o - 1 do
      Batch.blit_row o i scratch 0;
      List.iter
        (fun fns ->
          tick ticker;
          List.iteri (fun j f -> scratch.(ow + j) <- f scratch) fns;
          Batch.push_row out scratch)
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
       per-row closure dispatch: resolve each column once and blit. *)
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
    let fns =
      Array.of_list (List.map (fun (e, _) -> Expr_eval.compile in_layout e) items)
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
          match Expr_eval.compile in_layout sort_expr with
          | f -> (`In f, asc)
          | exception Expr_eval.Unknown_column _ ->
            (`Out (Expr_eval.compile out_layout sort_expr), asc))
        order_by
    in
    let sort_keys =
      List.map (fun (_, asc) -> (Array.make n Value.Null, asc)) sort_srcs
    in
    let scratch = Array.make (Batch.width b) Value.Null in
    let orow = Array.make (Array.length fns) Value.Null in
    let out = Batch.create ~capacity:n out_layout in
    for i = 0 to n - 1 do
      tick ticker;
      Batch.blit_row b i scratch 0;
      Array.iteri (fun j f -> orow.(j) <- f scratch) fns;
      Batch.push_row out orow;
      List.iter2
        (fun (src, _) ((col : Value.t array), _) ->
          col.(i) <- (match src with `In f -> f scratch | `Out f -> f orow))
        sort_srcs sort_keys
    done;
    finalize ticker ctx.pool stats ~distinct ~sort_keys ~limit ~offset out)
  | Planner.Aggregate { input; keys; items; distinct; order_by; limit; offset } ->
    let b = child input in
    let in_layout = Batch.layout b in
    let key_fns = List.map (Expr_eval.compile in_layout) keys in
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
    let arg_value arg scratch =
      match arg with None -> Value.Bool true | Some f -> f scratch
    in
    (* count-star counts every row; with an argument NULLs don't count *)
    let counted arg v =
      match arg with None -> true | Some _ -> not (Value.is_null v)
    in
    (* Arg-less COUNT DISTINCT is distinct over whole input rows, not
       over the constant the arg-less case evaluates to. *)
    let distinct_key arg v scratch =
      match arg with Some _ -> [ v ] | None -> Array.to_list scratch
    in
    let n = Batch.length b in
    let out_layout =
      Array.of_list
        (List.map
           (function `Plain (_, n) -> (None, n) | `Agg (_, _, _, n) -> (None, n))
           compiled_items)
    in
    let emit_group (first_row, accs) =
      let ai = ref 0 in
      Array.of_list
        (List.map
           (function
             | `Plain (f, _) ->
               if Array.length first_row = 0 then Value.Null else f first_row
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
        let groups : (Value.t array * Acc.t array) KeyTbl.t =
          KeyTbl.create 64
        in
        let order = ref [] in
        let scratch = Array.make (Batch.width b) Value.Null in
        for i = 0 to n - 1 do
          tick ticker;
          Batch.blit_row b i scratch 0;
          let key = List.map (fun f -> f scratch) key_fns in
          let _, accs =
            try KeyTbl.find groups key
            with Not_found ->
              let entry = (Array.copy scratch, fresh_accs ()) in
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
                let v = arg_value arg scratch in
                if counted arg v then begin
                  let fresh =
                    match acc.Acc.seen with
                    | None -> true
                    | Some seen ->
                      let dk = distinct_key arg v scratch in
                      if KeyTbl.mem seen dk then false
                      else begin
                        KeyTbl.add seen dk i;
                        true
                      end
                  in
                  if fresh then acc_apply acc v
                end)
            compiled_items
        done;
        (* SQL: no GROUP BY and no rows still yields one (empty) group. *)
        if keys = [] && KeyTbl.length groups = 0 then begin
          KeyTbl.add groups [] ([||], fresh_accs ());
          order := [ [] ]
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
            mutable frow : Value.t array;  (* copy of that row *)
            accs : Acc.t array;
          }
        end in
        let wgroups : G.t KeyTbl.t array =
          Array.init (Dpool.size ctx.pool) (fun _ -> KeyTbl.create 64)
        in
        par_section stats ctx.pool ~morsels:m (fun ~worker mi ->
            check_deadline ticker;
            let groups = wgroups.(worker) in
            let scratch = Array.make (Batch.width b) Value.Null in
            let lo = mi * msize and hi = min n ((mi + 1) * msize) in
            for i = lo to hi - 1 do
              Batch.blit_row b i scratch 0;
              let key = List.map (fun f -> f scratch) key_fns in
              let g =
                match KeyTbl.find_opt groups key with
                | Some g ->
                  (* Morsels are claimed out of order: keep the row with
                     the least global index as group representative. *)
                  if i < g.G.fidx then begin
                    g.G.fidx <- i;
                    g.G.frow <- Array.copy scratch
                  end;
                  g
                | None ->
                  let g =
                    { G.fidx = i; frow = Array.copy scratch;
                      accs = fresh_accs () }
                  in
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
                    let v = arg_value arg scratch in
                    if counted arg v then
                      match acc.Acc.seen with
                      | None -> acc_apply acc v
                      | Some seen ->
                        (* DISTINCT partials only record first-occurrence
                           indices; the merge replays them globally so
                           cross-worker duplicates collapse correctly. *)
                        let dk = distinct_key arg v scratch in
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
                  if g.G.fidx < mg.G.fidx then begin
                    mg.G.fidx <- g.G.fidx;
                    mg.G.frow <- g.G.frow
                  end;
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
                           (if agg_has_arg.(ai) then List.hd dk
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
          Batch.push_row out (emit_group ([||], fresh_accs ()));
          out
        end
        else begin
          let out = Batch.create ~capacity:(List.length ordered) out_layout in
          List.iter
            (fun (g : G.t) ->
              Batch.push_row out (emit_group (g.G.frow, g.G.accs)))
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
        let oscratch = Array.make (Batch.width out) Value.Null in
        let cols =
          List.map
            (fun { sort_expr; asc } ->
              (Expr_eval.compile out_layout sort_expr, Array.make n Value.Null, asc))
            obs
        in
        for i = 0 to n - 1 do
          Batch.blit_row out i oscratch 0;
          List.iter (fun (f, col, _) -> col.(i) <- f oscratch) cols
        done;
        List.map (fun (_, col, asc) -> (col, asc)) cols
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
       if not all then begin
         let seen = KeyTbl.create (max 16 (Batch.length out)) in
         Batch.retain out (fun row ->
             tick ticker;
             let k = Array.to_list row in
             if KeyTbl.mem seen k then false
             else begin
               KeyTbl.add seen k ();
               true
             end)
       end;
       out)

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
    operator on its sequential code path). [join_partitions] requests a
    radix partition count for parallel hash-join builds (default: the
    database's {!Database.join_partitions}; 0 = auto from the pool
    size). Neither knob changes results — only how the work is split. *)
let run_with_stats ~analyze ?timeout ?domains ?join_partitions db (stmt : stmt)
    : Batch.t * Opstats.t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let ticker = { deadline; ops = 0 } in
  let t0 = if analyze then Unix.gettimeofday () else 0.0 in
  let root = Opstats.make "statement" in
  let pool =
    Dpool.get
      (match domains with Some n -> n | None -> Database.parallelism db)
  in
  let join_parts =
    resolve_join_partitions pool
      (match join_partitions with
       | Some n -> n
       | None -> Database.join_partitions db)
  in
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

let run ?timeout ?domains ?join_partitions db stmt =
  fst (run_with_stats ~analyze:false ?timeout ?domains ?join_partitions db stmt)

let run_analyzed ?timeout ?domains ?join_partitions db stmt =
  run_with_stats ~analyze:true ?timeout ?domains ?join_partitions db stmt

(** Explain: the physical plans of each CTE and the body, as text. With
    [~analyze:true] the statement is also executed and the per-operator
    metrics tree appended. *)
let explain ?(analyze = false) ?timeout ?domains ?join_partitions db
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
    let _, stats = run_analyzed ?timeout ?domains ?join_partitions db stmt in
    Buffer.add_string buf "analyze:\n";
    Buffer.add_string buf (Opstats.to_string stats)
  end;
  Buffer.contents buf
