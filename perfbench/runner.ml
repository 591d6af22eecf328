(** One benchmark run: generate the dataset and the seeded streams,
    compute the expected answers, then measure. The measured stream is
    cut into contiguous slices; a fresh forked process per slice sets up
    its own store, warms it, runs its slice as a closed loop with one
    client and checks every answer. The run reports over all slices
    together. With tracing on, one more process replays every slice on
    stores built through the layers' public functions, with a span
    around each call. *)

open Streams

type config = {
  w : workload;
  seed : int;
  seconds : int;
  trace : bool;
  scale : int;
  n_ops : int;
  n_warmup : int;
  trace_dir : string;
  rev : string;
}

let config ?scale ?ops ?(trace_dir = "perfbench/out") ?(rev = "unknown")
    w ~seed ~seconds ~trace =
  { w; seed; seconds; trace;
    scale = Option.value ~default:w.scale scale;
    n_ops = Option.value ~default:(w.ops_per_second * seconds) ops;
    n_warmup = (match ops with Some n -> min n w.warmup | None -> w.warmup);
    trace_dir; rev }

(** Per-request deadline; a request that hits it counts as failed. *)
let timeout_s = 30.0

(** Measuring processes per run. The host's speed differs from process
    to process and drifts over seconds, so the run cuts its stream into
    this many slices, measures each in a fresh process, and reports
    medians over them. *)
let processes = 8

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Measured pass                                                       *)
(* ------------------------------------------------------------------ *)

type pass = {
  read_s : float array;  (** per read, stream order *)
  write_s : float array;  (** per write statement, stream order *)
  busy_s : float;  (** summed request wall time of the pass *)
  failed : int;  (** requests that timed out, raised or mismatched *)
  timeouts : int;
  exceptions : int;
  mismatches : int;
  digests : Rowdigest.t array;
  result_rows : int;
  merges : int;  (** table merges fired by the pass's writes *)
  merge_stmt_s : float list;  (** latency of each statement that merged *)
  minor_words : float;  (** allocated inside requests *)
  major_words : float;
  major_collections : int;
}

let ops_per_s p n = float_of_int n /. p.busy_s

let merges_by_table e =
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
  List.map
    (fun name -> (name, Relsql.Table.merge_count (Relsql.Database.find_exn db name)))
    (Relsql.Database.table_names db)

let table_merges e = List.fold_left (fun acc (_, n) -> acc + n) 0 (merges_by_table e)

(* How one request is issued: directly, or as the root span of a traced
   request. Polymorphic because reads and writes return different
   values. *)
type wrap = { wrap : 'a. int -> string -> (unit -> 'a) -> 'a }

let direct = { wrap = (fun _ _ f -> f ()) }

let run_pass ~engine ~wrap ~(read : string -> Sparql.Ref_eval.results)
    ~(write : string -> unit) ~after_read (ops : op array)
    (expected : Rowdigest.t array) =
  let n_reads = Array.fold_left (fun a op -> match op with Read _ -> a + 1 | Write _ -> a) 0 ops in
  let n_stmts =
    Array.fold_left
      (fun a op -> match op with Write { stmts; _ } -> a + List.length stmts | Read _ -> a)
      0 ops
  in
  let read_s = Array.make n_reads 0.0 and write_s = Array.make n_stmts 0.0 in
  let digests = Array.make (Array.length ops) Rowdigest.none in
  let ri = ref 0 and wi = ref 0 and busy = ref 0.0 in
  let failed = ref 0 and timeouts = ref 0 and exceptions = ref 0 and mismatches = ref 0 in
  let rows = ref 0 and merges = ref 0 and merge_stmt_s = ref [] in
  let minor = ref 0.0 and major = ref 0.0 in
  (* Templates share their LIMIT / ORDER BY shape, so parse once per kind. *)
  let shapes = Hashtbl.create 32 in
  let shape kind text =
    match Hashtbl.find_opt shapes kind with
    | Some s -> s
    | None -> let s = Rowdigest.shape_of (Sparql.Parser.parse text) in Hashtbl.add shapes kind s; s
  in
  let gc0 = Gc.quick_stat () in
  (* Issue one request, timing it and its allocation; harness work
     (digests, checks) stays outside the window. *)
  let timed i name f =
    let minor0, _, major0 = Gc.counters () in
    let t0 = now () in
    let r =
      try Ok (wrap.wrap i name f) with
      | Relsql.Executor.Timeout -> Error `Timeout
      | e -> Error (`Exn e)
    in
    let dt = now () -. t0 in
    let minor1, _, major1 = Gc.counters () in
    minor := !minor +. (minor1 -. minor0);
    major := !major +. (major1 -. major0);
    busy := !busy +. dt;
    (r, dt)
  in
  let fail = function
    | `Timeout -> incr timeouts
    | `Exn e ->
      incr exceptions;
      if !exceptions <= 3 then prerr_endline ("perfbench: request raised " ^ Printexc.to_string e)
  in
  Array.iteri
    (fun i op ->
      match op with
      | Read { kind; text } ->
        let r, dt = timed i "read" (fun () -> read text) in
        read_s.(!ri) <- dt;
        incr ri;
        (match r with
         | Ok res ->
           after_read ();
           let d = Rowdigest.of_results (shape kind text) res in
           digests.(i) <- d;
           rows := !rows + d.Rowdigest.rows;
           if d <> expected.(i) then begin
             incr mismatches;
             incr failed;
             if !mismatches <= 3 then
               prerr_endline
                 (Printf.sprintf "perfbench: wrong answer to request %d (%s, expected %s): %s" i
                    (Rowdigest.to_string d) (Rowdigest.to_string expected.(i)) text)
           end
         | Error e -> incr failed; fail e)
      | Write { stmts; _ } ->
        let ok =
          List.fold_left
            (fun ok s ->
              let m0 = table_merges engine in
              let r, dt = timed i "write" (fun () -> write s) in
              write_s.(!wi) <- dt;
              incr wi;
              let m1 = table_merges engine in
              if m1 > m0 then begin
                merges := !merges + (m1 - m0);
                merge_stmt_s := dt :: !merge_stmt_s
              end;
              match r with Ok () -> ok | Error e -> fail e; false)
            true stmts
        in
        if not ok then incr failed)
    ops;
  let gc1 = Gc.quick_stat () in
  { read_s; write_s; busy_s = !busy; failed = !failed; timeouts = !timeouts;
    exceptions = !exceptions; mismatches = !mismatches; digests;
    result_rows = !rows; merges = !merges; merge_stmt_s = !merge_stmt_s;
    minor_words = !minor; major_words = !major;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections }

let untraced_read e text = Db2rdf.Engine.query_string ~timeout:timeout_s e text
let untraced_write e s = Db2rdf.Engine.update_string e s

let warm e (ops : op array) =
  Array.iter (function Read { text; _ } -> ignore (untraced_read e text) | Write _ -> ()) ops

(* ------------------------------------------------------------------ *)
(* Traced layers                                                       *)
(* ------------------------------------------------------------------ *)

(* Operator families of the executor's EXPLAIN ANALYZE labels. ORDER BY,
   DISTINCT and LIMIT run inside Project. *)
let families =
  [ "Scan"; "IndexLookup"; "InlJoin"; "HashJoin"; "NLJoin"; "Union"; "Filter";
    "Project"; "Aggregate"; "Other" ]

let family label =
  let word =
    let stop = ref (String.length label) in
    String.iteri (fun i c -> if (c = ' ' || c = '(') && i < !stop then stop := i) label;
    String.sub label 0 !stop
  in
  match word with
  | "SeqScan" -> "Scan"
  | "IndexNLJoin" -> "InlJoin"
  | "UnionAll" -> "Union"
  | "IndexLookup" | "HashJoin" | "NLJoin" | "Union" | "Filter" | "Project" | "Aggregate" -> word
  | _ -> "Other"

(* Executor counters summed over every analyzed statement. *)
type opsums = {
  fam_s : (string, float ref) Hashtbl.t;
  mutable residual_s : float;
  mutable probes : int;
  mutable rows_out : int;
  mutable build_rows : int;
  mutable blocks_skipped : int;
  mutable rows_unpacked : int;
  mutable delta_rows : int;
  mutable tombstones : int;
}

let new_opsums () =
  let fam_s = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace fam_s f (ref 0.0)) families;
  { fam_s; residual_s = 0.0; probes = 0; rows_out = 0; build_rows = 0;
    blocks_skipped = 0; rows_unpacked = 0; delta_rows = 0; tombstones = 0 }

(* The root is the statement; its children wrap one operator tree per
   CTE and for the body. Root time outside those trees is planning and
   CTE bookkeeping. *)
let add_opstats s (root : Relsql.Opstats.t) =
  let trees = List.concat_map (fun w -> w.Relsql.Opstats.children) root.Relsql.Opstats.children in
  s.residual_s <-
    s.residual_s +. root.Relsql.Opstats.seconds
    -. List.fold_left (fun a t -> a +. t.Relsql.Opstats.seconds) 0.0 trees;
  List.iter
    (Relsql.Opstats.iter (fun (n : Relsql.Opstats.t) ->
         let r = Hashtbl.find s.fam_s (family n.label) in
         r := !r +. Relsql.Opstats.self_seconds n;
         s.probes <- s.probes + n.index_probes;
         s.rows_out <- s.rows_out + n.rows_out;
         s.build_rows <- s.build_rows + n.build_rows;
         s.blocks_skipped <- s.blocks_skipped + n.blocks_skipped;
         s.rows_unpacked <- s.rows_unpacked + n.rows_unpacked;
         s.delta_rows <- s.delta_rows + n.delta_rows;
         s.tombstones <- s.tombstones + n.tombstones_skipped))
    trees

(* The read pipeline of Engine.query_string (default options: hybrid
   optimizer, late fusing, star merging; no WCOJ or ExtVP), one span per
   public call. The statement cache is not consulted: every traced read
   is translated. *)
let traced_read tr e last_stats text =
  let module E = Db2rdf.Engine in
  let loader = E.loader e in
  let dict = Db2rdf.Loader.dictionary loader in
  let span name f = Trace.span tr name f in
  let q = span "sparql.parse" (fun () -> Sparql.Parser.parse text) in
  let pt = span "sparql.pattern_tree" (fun () -> Sparql.Pattern_tree.of_query q) in
  let _, flow =
    span "core.dataflow" (fun () ->
        Db2rdf.Dataflow.compute ~objective:Db2rdf.Dataflow.Best pt
          (Db2rdf.Loader.stats loader) dict)
  in
  let etree = span "core.exec_tree" (fun () -> Db2rdf.Exec_tree.build pt flow) in
  let plan = span "core.merge" (fun () -> Db2rdf.Merge.of_exec (E.merge_ctx e pt q) etree) in
  let stmt = span "core.sqlgen" (fun () -> Db2rdf.Sqlgen.generate loader pt plan q) in
  let r, stats =
    span "relsql.executor" (fun () ->
        Relsql.Executor.run_analyzed ~timeout:timeout_s (Db2rdf.Loader.database loader) stmt)
  in
  last_stats := Some stats;
  span "core.results.decode" (fun () -> Db2rdf.Results.decode dict q r)

let traced_write tr e s =
  let u = Trace.span tr "sparql.parse_update" (fun () -> Sparql.Parser.parse_update s) in
  Trace.span tr "core.update" (fun () -> Db2rdf.Engine.update e u)

let traced_setup tr (w : workload) triples =
  let span name f = Trace.span tr name f in
  span "setup" (fun () ->
      let layout = Db2rdf.Layout.default in
      let direct_map, reverse_map =
        span "setup.coloring" (fun () ->
            let dg, rg =
              span "core.coloring.interference_graphs" (fun () ->
                  Db2rdf.Coloring.interference_graphs triples)
            in
            let color g m = span "core.coloring.color" (fun () -> Db2rdf.Coloring.color ~max_colors:m g) in
            let dcol = color dg layout.Db2rdf.Layout.dph_cols in
            let rcol = color rg layout.Db2rdf.Layout.rph_cols in
            span "core.coloring.to_pred_map" (fun () ->
                ( Db2rdf.Coloring.to_pred_map ~m:layout.Db2rdf.Layout.dph_cols dcol,
                  Db2rdf.Coloring.to_pred_map ~m:layout.Db2rdf.Layout.rph_cols rcol )))
      in
      let e =
        span "core.engine.create" (fun () ->
            Db2rdf.Engine.create ~layout ~options:w.options ~direct_map ~reverse_map ())
      in
      span "core.engine.load" (fun () -> Db2rdf.Engine.load e triples);
      e)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* Nearest-rank percentile. *)
let percentile a p =
  if Array.length a = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    let n = Array.length s in
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ms s = 1000.0 *. s

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let per x n = if n = 0 then 0.0 else x /. float_of_int n

let table_names = [ "DPH"; "DS"; "RPH"; "RS"; Db2rdf.Dict_table.table_name ]

(* Packed main + boxed delta + index postings. *)
let table_bytes e name =
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
  match Relsql.Database.find db name with
  | None -> 0
  | Some t ->
    let r = Relsql.Table.compression_report t in
    let data =
      if r.Relsql.Table.r_frozen then r.r_packed_bytes + r.r_delta_bytes else r.r_boxed_bytes
    in
    data + (8 * r.r_posting_words)

(* Pending delta rows and main tombstones of the frozen tables (a boxed
   table has no packed main, so neither). *)
let delta_accounting e =
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
  List.fold_left
    (fun (d, t) name ->
      let tbl = Relsql.Database.find_exn db name in
      if Relsql.Table.frozen tbl then
        (d + Relsql.Table.delta_rows tbl, t + Relsql.Table.main_tombstones tbl)
      else (d, t))
    (0, 0) (Relsql.Database.table_names db)

let final_digest e =
  Rowdigest.of_rows (Db2rdf.Engine.query_string e Oracle.dump_query).Sparql.Ref_eval.rows

let store_digest e = Digest.string (Db2rdf.Loader.dump_store (Db2rdf.Engine.loader e))

(** End-to-end metrics, in report order, with their units. *)
let end_to_end_units =
  [ ("setup_s", "s"); ("ops_s", "ops/s"); ("read_p50_ms", "ms"); ("read_p99_ms", "ms");
    ("store_bytes_per_triple", "B"); ("peak_heap_mb", "MB") ]

let stage_names =
  [ "sparql.parse"; "sparql.pattern_tree"; "core.dataflow"; "core.exec_tree";
    "core.merge"; "core.sqlgen"; "relsql.executor"; "core.results.decode" ]

let write_stage_names = [ "sparql.parse_update"; "core.update" ]

(** Per-layer metrics, in report order, with their units. *)
let per_layer_units =
  List.concat_map (fun s -> [ (s ^ ".ms", "ms"); (s ^ ".minor_words", "words") ]) stage_names
  @ [ ("relsql.plan_residual.ms", "ms") ]
  @ List.map (fun f -> ("relsql.op." ^ f ^ ".ms", "ms")) families
  @ [ ("relsql.index_probes", "count"); ("relsql.rows_out", "count");
      ("relsql.build_rows", "count"); ("relsql.blocks_skipped", "count");
      ("relsql.rows_unpacked", "count"); ("relsql.delta_rows", "count");
      ("relsql.tombstones_skipped", "count"); ("core.results.rows", "count");
      ("relsql.plan_cache.hit_ratio", "fraction"); ("relsql.scan_cache.hit_ratio", "fraction");
      ("workload.repeat_share", "fraction"); ("sparql.parse_update.ms", "ms");
      ("core.update.ms", "ms"); ("core.update.minor_words", "words");
      ("write_p50_ms", "ms"); ("write_p99_ms", "ms"); ("error_rate", "fraction");
      ("relsql.table.merges", "count"); ("core.update.merge_stmt.ms", "ms");
      ("relsql.table.delta_rows_end", "count"); ("relsql.table.tombstones_end", "count");
      ("setup.coloring_s", "s"); ("setup.loader_s", "s"); ("setup.dict_freeze_s", "s") ]
  @ List.map (fun t -> ("relsql.table." ^ t ^ ".bytes", "B")) table_names
  @ [ ("rdf.dictionary.bytes", "B"); ("gc.minor_words_per_op", "words");
      ("gc.major_words_per_op", "words"); ("gc.major_collections", "count");
      ("trace.overhead_ratio", "ratio"); ("trace.residual.ms", "ms") ]

let metrics_json units values =
  json_obj
    (List.map
       (fun (name, unit) ->
         let v =
           match List.assoc_opt name values with
           | Some v -> v
           | None -> failwith ("metric not computed: " ^ name)
         in
         (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
       units)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let header cfg (s : Streams.streams) =
  let kinds ops = json_obj (List.map (fun (k, n) -> (k, string_of_int n)) (Streams.kind_counts ops)) in
  "perfbench header: "
    ^ json_obj
        [ ("workload", json_string cfg.w.name); ("seed", string_of_int cfg.seed);
          ("seconds", string_of_int cfg.seconds); ("trace", string_of_bool cfg.trace);
          ("scale", string_of_int cfg.scale); ("nproc", string_of_int (Domain.recommended_domain_count ()));
          ("ocaml_version", json_string Sys.ocaml_version); ("git_rev", json_string cfg.rev);
          ( "ocamlrunparam",
            json_string (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
          ("options_fingerprint", json_string (Db2rdf.Engine.options_fingerprint cfg.w.options));
          ("clients", "1"); ("parallelism", string_of_int cfg.w.options.parallelism);
          ("processes", string_of_int processes);
          ("warmup_requests", string_of_int (Array.length s.warmup));
          ("measured_requests", string_of_int (Array.length s.measured));
          ("request_kinds", kinds s.measured);
          ("stream_fingerprint", json_string (Streams.fingerprint s.measured)) ]

(* All slices' passes as one. *)
let combine (ps : pass list) =
  let sumi f = List.fold_left (fun a p -> a + f p) 0 ps in
  let sumf f = List.fold_left (fun a p -> a +. f p) 0.0 ps in
  { read_s = Array.concat (List.map (fun p -> p.read_s) ps);
    write_s = Array.concat (List.map (fun p -> p.write_s) ps);
    busy_s = sumf (fun p -> p.busy_s); failed = sumi (fun p -> p.failed);
    timeouts = sumi (fun p -> p.timeouts); exceptions = sumi (fun p -> p.exceptions);
    mismatches = sumi (fun p -> p.mismatches);
    digests = Array.concat (List.map (fun p -> p.digests) ps);
    result_rows = sumi (fun p -> p.result_rows); merges = sumi (fun p -> p.merges);
    merge_stmt_s = List.concat_map (fun p -> p.merge_stmt_s) ps;
    minor_words = sumf (fun p -> p.minor_words); major_words = sumf (fun p -> p.major_words);
    major_collections = sumi (fun p -> p.major_collections) }

(* What one measuring process reports about its slice. *)
type slice_report = {
  pass : pass;
  setup_s : float;  (** seconds to build the store *)
  store_bytes : int;
  peak_words : int;
  plan : int * int;  (** statement-cache hits and lookups in the pass *)
  scan : int * int;  (** scan-cache hits and lookups in the pass *)
  slice_merges : (string * int) list;  (** per table, fired by the pass *)
  delta_end : int;
  tombs_end : int;
  final_ok : bool;
  tables : (string * float) list;  (** bytes per table after the pass *)
  dict_bytes : float;
}

let hits_lookups (s0 : Relsql.Plan_cache.stats) (s1 : Relsql.Plan_cache.stats) =
  (s1.hits - s0.hits, s1.hits + s1.misses - s0.hits - s0.misses)

(* In a forked child: the timed set-up, the warm-up, then the untraced
   pass over [slice]. *)
let measure_slice cfg triples warmup slice (exp : Oracle.expected) =
  let w = cfg.w in
  Gc.compact ();
  let t0 = now () in
  let e, _, _ = Db2rdf.Engine.create_colored ~options:w.options triples in
  let setup_s = now () -. t0 in
  warm e warmup;
  let pc0 = Db2rdf.Engine.plan_cache_stats e and sc0 = Db2rdf.Engine.scan_cache_stats e in
  let merges0 = merges_by_table e in
  Gc.compact ();
  let p =
    run_pass ~engine:e ~wrap:direct ~read:(untraced_read e) ~write:(untraced_write e)
      ~after_read:ignore slice exp.Oracle.digests
  in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let pc1 = Db2rdf.Engine.plan_cache_stats e and sc1 = Db2rdf.Engine.scan_cache_stats e in
  let store_bytes = 8 * Obj.reachable_words (Obj.repr e) in
  let delta_end, tombs_end = delta_accounting e in
  let tables = List.map (fun t -> (t, float_of_int (table_bytes e t))) table_names in
  let dict_bytes =
    if cfg.trace then float_of_int (8 * Obj.reachable_words (Obj.repr (Db2rdf.Engine.dictionary e)))
    else 0.0
  in
  (* Reads leave the store as it was, so only a stream with writes can
     leave it different from the reference. *)
  let final_ok = w.write_every = 0 || final_digest e = exp.Oracle.final in
  if not final_ok then prerr_endline "perfbench: store contents differ from the reference after the stream";
  { pass = p; setup_s; store_bytes; peak_words;
    plan = hits_lookups pc0 pc1; scan = hits_lookups sc0 sc1;
    slice_merges = List.map2 (fun (t, m0) (_, m1) -> (t, m1 - m0)) merges0 (merges_by_table e);
    delta_end; tombs_end; final_ok; tables; dict_bytes }

(* What the traced process reports. *)
type traced_report = {
  tpass : pass;  (** the traced replay of every slice *)
  spans : (string * (float * float)) list;  (** name -> total seconds, minor words *)
  sums : opsums;
  loader_s : float;  (** Loader time per build *)
  same_store : bool;  (** every layer-by-layer build equals create_colored's *)
  traced_final_ok : bool;
  span_file : string;
}

(* In a forked child: replay every slice on a store built layer by
   layer, with a span around each public call, and write the span
   file. *)
let trace_slices cfg triples warmup slices expected =
  let w = cfg.w in
  let reference =
    let e, _, _ = Db2rdf.Engine.create_colored ~options:w.options triples in
    store_digest e
  in
  let tr = Trace.create () in
  let sums = new_opsums () in
  let last_stats = ref None in
  let after_read () = Option.iter (add_opstats sums) !last_stats; last_stats := None in
  let offset = ref 0 and loader_s = ref 0.0 in
  let same_store = ref true and final_ok = ref true in
  let passes =
    List.map2
      (fun slice (exp : Oracle.expected) ->
        Gc.compact ();
        Trace.set_request tr (-1);
        let e = traced_setup tr w triples in
        if store_digest e <> reference then begin
          same_store := false;
          prerr_endline "perfbench: the store built layer by layer differs from Engine.create_colored's"
        end;
        Option.iter (fun st -> loader_s := !loader_s +. st.Db2rdf.Loader.total_s) (Db2rdf.Engine.load_stats e);
        warm e warmup;
        Gc.compact ();
        let base = !offset in
        let wrap = { wrap = (fun i name f -> Trace.set_request tr (base + i); Trace.span tr name f) } in
        let p =
          run_pass ~engine:e ~wrap ~read:(traced_read tr e last_stats) ~write:(traced_write tr e)
            ~after_read slice exp.Oracle.digests
        in
        offset := base + Array.length slice;
        if w.write_every > 0 && final_digest e <> exp.Oracle.final then final_ok := false;
        p)
      slices expected
  in
  (try Unix.mkdir cfg.trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let span_file = Filename.concat cfg.trace_dir (Printf.sprintf "%s-seed%d.spans" w.name cfg.seed) in
  Trace.write tr ~file:span_file ~raw_requests:100
    ~title:(Printf.sprintf "perfbench %s seed %d: %d requests in %d slices" w.name cfg.seed !offset
              (List.length slices));
  { tpass = combine passes;
    spans =
      Hashtbl.fold (fun name a acc -> (name, (a.Trace.total_s, a.Trace.minor_words)) :: acc) (Trace.by_name tr) [];
    sums; loader_s = !loader_s /. float_of_int (List.length slices);
    same_store = !same_store; traced_final_ok = !final_ok; span_file }

(** Run once and emit (by default, print) the header, the
    workload-property report, the determinism counters and, last, the
    result object. This process makes the inputs and coordinates; the
    expected answers, each slice's measurement and the traced replay
    each run in a forked child, which inherits the inputs. *)
let run ?(emit = print_endline) cfg =
  let triples = Streams.generate_dataset cfg.w ~scale:cfg.scale in
  let s = Streams.make cfg.w triples ~seed:cfg.seed ~n_ops:cfg.n_ops ~n_warmup:cfg.n_warmup in
  let slices = Streams.slices s.measured processes in
  let n = Array.length s.measured in
  let expected =
    Oracle.in_child (fun () ->
        if cfg.w.write_every > 0 then List.map (Oracle.compute triples) slices
        else
          (* Reads leave the reference as it was: answer the whole
             stream on one reference store and cut the answers. *)
          let all = Oracle.compute triples s.measured in
          let at = ref 0 in
          List.map
            (fun sl ->
              let k = Array.length sl in
              at := !at + k;
              { all with Oracle.digests = Array.sub all.Oracle.digests (!at - k) k })
            slices)
  in
  emit (header cfg s);
  let reports =
    List.map2
      (fun slice exp -> Oracle.in_child (fun () -> measure_slice cfg triples s.warmup slice exp))
      slices expected
  in
  let write_kinds =
    Streams.kind_counts (Array.of_list (List.filter (function Write _ -> true | Read _ -> false) (Array.to_list s.measured)))
  in
  (* Each process has caches of its own, so repeats count within a slice. *)
  let repeats = List.fold_left (fun (a, b) sl -> let x, y = Streams.repeats sl in (a + x, b + y)) (0, 0) slices in
  let p = combine (List.map (fun r -> r.pass) reports) in
  let sum2 f = List.fold_left (fun (a, b) r -> let x, y = f r in (a + x, b + y)) (0, 0) reports in
  let plan_hits, plan_lookups = sum2 (fun r -> r.plan) and scan_hits, scan_lookups = sum2 (fun r -> r.scan) in
  let median_over f = median_of (List.map f reports) in
  let slice_ops_s r = ops_per_s r.pass (Array.length r.pass.digests) in
  let write_pct q = median_over (fun r -> ms (percentile r.pass.write_s q)) in
  let final_ok = List.for_all (fun r -> r.final_ok) reports in
  let merges_by_table =
    List.map
      (fun (t, _) -> (t, List.fold_left (fun a r -> a + List.assoc t r.slice_merges) 0 reports))
      (List.hd reports).slice_merges
  in
  let repeat = ratio (fst repeats) (snd repeats) in
  emit
    ("perfbench properties: "
    ^ json_obj
        [ ("repeat_share", json_float repeat);
          ("plan_cache_hit_ratio", json_float (ratio plan_hits plan_lookups));
          ("scan_cache_hit_ratio", json_float (ratio scan_hits scan_lookups));
          ("write_kinds", json_obj (List.map (fun (k, c) -> (k, string_of_int c)) write_kinds));
          ("write_statements", string_of_int (Array.length p.write_s));
          ("merges_by_table", json_obj (List.map (fun (t, m) -> (t, string_of_int m)) merges_by_table));
          ("write_p50_ms", json_float (write_pct 0.5)); ("write_p99_ms", json_float (write_pct 0.99));
          ("error_rate", json_float (ratio p.failed n));
          ("timeouts", string_of_int p.timeouts);
          ("exceptions", string_of_int p.exceptions); ("mismatches", string_of_int p.mismatches);
          ("final_store_matches_reference", string_of_bool final_ok);
          ("slice_ops_s", "[" ^ String.concat ", " (List.map (fun r -> json_float (slice_ops_s r)) reports) ^ "]") ]);
  let store_per_triple =
    median_of
      (List.map2
         (fun r (exp : Oracle.expected) -> float_of_int r.store_bytes /. float_of_int exp.live_triples)
         reports expected)
  in
  let peak_mb = median_over (fun r -> float_of_int (8 * r.peak_words) /. 1048576.0) in
  let ints f = "[" ^ String.concat ", " (List.map (fun r -> string_of_int (f r)) reports) ^ "]" in
  let untraced_counters =
    [ ("result_rows", string_of_int p.result_rows);
      ("plan_cache_hits", string_of_int plan_hits); ("scan_cache_hits", string_of_int scan_hits);
      ("merges", string_of_int p.merges); ("store_bytes", ints (fun r -> r.store_bytes));
      ("peak_heap_words", ints (fun r -> r.peak_words));
      ("digests", json_string (Digest.to_hex (Digest.string (Marshal.to_string p.digests [])))) ]
  in
  if not cfg.trace then begin
    emit ("perfbench counters: " ^ json_obj untraced_counters);
    let values =
      [ ("setup_s", median_over (fun r -> r.setup_s));
        ("ops_s", median_over slice_ops_s);
        ("read_p50_ms", median_over (fun r -> ms (percentile r.pass.read_s 0.5)));
        ("read_p99_ms", median_over (fun r -> ms (percentile r.pass.read_s 0.99)));
        ("store_bytes_per_triple", store_per_triple); ("peak_heap_mb", peak_mb) ]
    in
    let correct = p.failed = 0 && final_ok in
    emit
      (json_obj
         [ ("correct", string_of_bool correct); ("attempted", string_of_int n);
           ("failed", string_of_int p.failed); ("metrics", metrics_json end_to_end_units values) ])
  end
  else begin
    let t = Oracle.in_child (fun () -> trace_slices cfg triples s.warmup slices expected) in
    let pt = t.tpass and sums = t.sums in
    let same_digests = pt.digests = p.digests in
    if not same_digests then prerr_endline "perfbench: traced and untraced answers differ";
    let total name = match List.assoc_opt name t.spans with Some (s, _) -> s | None -> 0.0 in
    let minor name = match List.assoc_opt name t.spans with Some (_, m) -> m | None -> 0.0 in
    let n_reads = Array.length p.read_s and n_stmts = Array.length p.write_s in
    let per_read x = per x n_reads and per_stmt x = per x n_stmts in
    let per_build x = x /. float_of_int (List.length reports) in
    let stage_sum = List.fold_left (fun a nm -> a +. total nm) 0.0 (stage_names @ write_stage_names) in
    let fam f = !(Hashtbl.find sums.fam_s f) in
    let count x = per_read (float_of_int x) in
    let values =
      List.concat_map
        (fun st -> [ (st ^ ".ms", per_read (ms (total st))); (st ^ ".minor_words", per_read (minor st)) ])
        stage_names
      @ [ ("relsql.plan_residual.ms", per_read (ms sums.residual_s)) ]
      @ List.map (fun f -> ("relsql.op." ^ f ^ ".ms", per_read (ms (fam f)))) families
      @ [ ("relsql.index_probes", count sums.probes); ("relsql.rows_out", count sums.rows_out);
          ("relsql.build_rows", count sums.build_rows);
          ("relsql.blocks_skipped", count sums.blocks_skipped);
          ("relsql.rows_unpacked", count sums.rows_unpacked);
          ("relsql.delta_rows", count sums.delta_rows);
          ("relsql.tombstones_skipped", count sums.tombstones);
          ("core.results.rows", count pt.result_rows);
          ("relsql.plan_cache.hit_ratio", ratio plan_hits plan_lookups);
          ("relsql.scan_cache.hit_ratio", ratio scan_hits scan_lookups);
          ("workload.repeat_share", repeat);
          ("sparql.parse_update.ms", per_stmt (ms (total "sparql.parse_update")));
          ("core.update.ms", per_stmt (ms (total "core.update")));
          ("core.update.minor_words", per_stmt (minor "core.update"));
          ("write_p50_ms", write_pct 0.5); ("write_p99_ms", write_pct 0.99);
          ("error_rate", ratio p.failed n);
          ("relsql.table.merges", float_of_int p.merges);
          ( "core.update.merge_stmt.ms",
            per (ms (List.fold_left ( +. ) 0.0 p.merge_stmt_s)) (List.length p.merge_stmt_s) );
          ("relsql.table.delta_rows_end", median_over (fun r -> float_of_int r.delta_end));
          ("relsql.table.tombstones_end", median_over (fun r -> float_of_int r.tombs_end));
          ("setup.coloring_s", per_build (total "setup.coloring")); ("setup.loader_s", t.loader_s);
          ("setup.dict_freeze_s", per_build (total "core.engine.load") -. t.loader_s) ]
      @ List.map
          (fun tbl -> ("relsql.table." ^ tbl ^ ".bytes", median_over (fun r -> List.assoc tbl r.tables)))
          table_names
      @ [ ("rdf.dictionary.bytes", median_over (fun r -> r.dict_bytes));
          ("gc.minor_words_per_op", per p.minor_words n);
          ("gc.major_words_per_op", per p.major_words n);
          ("gc.major_collections", float_of_int p.major_collections);
          ("trace.overhead_ratio", ops_per_s p n /. ops_per_s pt n);
          ("trace.residual.ms", ms (p.busy_s /. float_of_int n) -. ms (stage_sum /. float_of_int n)) ]
    in
    emit
      ("perfbench counters: "
      ^ json_obj
          (untraced_counters
          @ [ ("index_probes", string_of_int sums.probes); ("rows_out", string_of_int sums.rows_out);
              ("traced_result_rows", string_of_int pt.result_rows) ]));
    emit ("perfbench spans: " ^ t.span_file);
    let correct =
      p.failed = 0 && pt.failed = 0 && final_ok && t.traced_final_ok && t.same_store && same_digests
    in
    emit
      (json_obj
         [ ("correct", string_of_bool correct); ("attempted", string_of_int (2 * n));
           ("failed", string_of_int (p.failed + pt.failed));
           ("metrics", metrics_json per_layer_units values) ])
  end
