(** [rdfstore] — command-line front end to the DB2RDF engine.

    Subcommands:
    - [query]: load an N-Triples file (or a generated workload) and run a
      SPARQL query against a chosen store backend.
    - [update]: load data and apply a SPARQL 1.1 update script
      (INSERT DATA / DELETE DATA / DELETE WHERE) to the live store.
    - [explain]: show the full translation pipeline for a query (flow,
      execution tree, merged plan, SQL, physical plan).
    - [generate]: emit a workload dataset as N-Triples.
    - [stats]: load data and print storage/coloring statistics.
    - [sql]: run a raw SQL statement against the DB2RDF relations. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let data_arg =
  let doc = "N-Triples file to load, or workload:NAME[:SCALE] for a generated \
             dataset (names: micro, lubm, sp2b, dbpedia, prbench, \
             snowflake; SCALE is a positive integer, default 10000)." in
  Arg.(required & opt (some string) None & info [ "d"; "data" ] ~docv:"DATA" ~doc)

let backend_arg =
  let doc = "Store backend: db2rdf, triple, vertical or native." in
  Arg.(value & opt string "db2rdf" & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc)

let columns_arg =
  let doc = "Pred/val column pairs in the DPH and RPH relations." in
  Arg.(value & opt int 24 & info [ "k"; "columns" ] ~docv:"K" ~doc)

let no_color_arg =
  let doc = "Disable graph coloring (use pure 2-hash predicate mapping)." in
  Arg.(value & flag & info [ "no-coloring" ] ~doc)

let timeout_arg =
  let doc = "Per-query timeout in seconds." in
  Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"S" ~doc)

let domains_arg =
  let doc = "OCaml domains the executor may spread hot operators over \
             (1 = sequential; parallel runs return identical results)." in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let compress_arg =
  let doc = "Merge tables into bit-packed columnar storage after load \
             (dictionary-coded columns, zone maps, run-length-encoded \
             postings). Purely physical: query results are identical." in
  Arg.(value & flag & info [ "compress" ] ~doc)

let wcoj_arg =
  let doc = "Allow the worst-case-optimal (leapfrog) multiway join: \
             eligible conjunctive queries translate to a flat join and \
             the planner picks between the binary join tree and the \
             leapfrog operator from characteristic-set statistics. \
             Purely a plan-shape knob: results are identical." in
  Arg.(value & flag & info [ "wcoj" ] ~doc)

let extvp_arg =
  let doc = "Allow ExtVP-style semi-join reductions: the planner may \
             substitute a lazily materialized subset of DPH for a \
             star's base scan when a join edge matches a selective \
             (predicate pair, correlation) signature. Purely a \
             plan-shape knob: results are identical." in
  Arg.(value & flag & info [ "extvp" ] ~doc)

let extvp_build_arg =
  let doc = "With --extvp: eagerly materialize every advisable \
             reduction at load time instead of on first planner \
             request." in
  Arg.(value & flag & info [ "extvp-build" ] ~doc)

let extvp_threshold_arg =
  let doc = "Keep a reduction only when its selectivity (kept rows / \
             DPH rows) is below this threshold (S2RDF's ScaleUB)." in
  Arg.(value & opt float 0.25 & info [ "extvp-threshold" ] ~docv:"F" ~doc)

let extvp_budget_arg =
  let doc = "Memory budget in MB for cached reductions; least recently \
             used are evicted beyond it." in
  Arg.(value & opt int 64 & info [ "extvp-budget" ] ~docv:"MB" ~doc)

let workloads =
  [ ("micro", Workloads.Micro.generate); ("lubm", Workloads.Lubm.generate);
    ("sp2b", Workloads.Sp2b.generate); ("dbpedia", Workloads.Dbpedia.generate);
    ("prbench", Workloads.Prbench.generate);
    ("snowflake", Workloads.Snowflake.generate) ]

(* Report a bad command-line input on stderr as one line and exit 1. *)
let input_error fmt =
  Printf.ksprintf (fun m -> prerr_endline ("rdfstore: " ^ m); exit 1) fmt

(* Triples named by a --data spec: an N-Triples file, or a generated
   workload. An unreadable file, a syntax error ("FILE:LINE: message"),
   an unknown workload or a scale that is not a positive integer is
   reported through [input_error]. *)
let load_triples spec =
  match String.split_on_char ':' spec with
  | "workload" :: rest ->
    let name, scale =
      match rest with
      | [ name ] -> (name, 10_000)
      | [ name; s ] ->
        (match int_of_string_opt s with
         | Some n when n > 0 -> (name, n)
         | _ ->
           input_error "%s: scale must be a positive integer, got %S" spec s)
      | _ -> input_error "%s: expected workload:NAME[:SCALE]" spec
    in
    (match List.assoc_opt name workloads with
     | Some generate -> generate ~scale
     | None ->
       input_error "%s: unknown workload %S (names: %s)" spec name
         (String.concat ", " (List.map fst workloads)))
  | _ ->
    let acc = ref [] in
    (match Rdf.Ntriples.parse_file (fun t -> acc := t :: !acc) spec with
     | () -> List.rev !acc
     | exception Sys_error msg -> input_error "%s" msg
     | exception Rdf.Ntriples.Syntax_error { line; message } ->
       input_error "%s:%d: %s" spec line message)

let build_store ?(compress = false) ?(wcoj = false) ?(extvp = false)
    ?(extvp_build = false)
    ?(extvp_threshold = Relsql.Extvp.default_threshold)
    ?(extvp_budget_mb = 64) backend k no_coloring domains triples :
  Db2rdf.Store.t =
  match backend with
  | "db2rdf" ->
    let options =
      { Db2rdf.Engine.default_options with parallelism = domains; compress;
        wcoj; extvp; extvp_build;
        extvp_threshold; extvp_budget_mb }
    in
    if no_coloring then begin
      let e =
        Db2rdf.Engine.create ~options
          ~layout:(Db2rdf.Layout.make ~dph_cols:k ~rph_cols:k) ()
      in
      Db2rdf.Engine.load e triples;
      Db2rdf.Engine.to_store e
    end
    else begin
      let e, _, _ =
        Db2rdf.Engine.create_colored ~options
          ~layout:(Db2rdf.Layout.make ~dph_cols:k ~rph_cols:k) triples
      in
      Db2rdf.Engine.to_store e
    end
  | "triple" ->
    let ts = Db2rdf.Triple_store.create ~parallelism:domains ~compress () in
    Db2rdf.Triple_store.load ts triples;
    Db2rdf.Triple_store.to_store ts
  | "vertical" ->
    let vs = Db2rdf.Vertical_store.create ~parallelism:domains ~compress () in
    Db2rdf.Vertical_store.load vs triples;
    Db2rdf.Vertical_store.to_store vs
  | "native" ->
    let ns = Db2rdf.Native_store.create () in
    Db2rdf.Native_store.load ns triples;
    Db2rdf.Native_store.to_store ns
  | other ->
    input_error
      "unknown backend %S (expected db2rdf, triple, vertical or native)" other

let read_query = function
  | Some q when Sys.file_exists q ->
    let ic = open_in q in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  | Some q -> q
  | None -> failwith "a SPARQL query (string or file) is required"

(* Parse SPARQL text; a lexical or syntax error is reported on stderr
   as "line L, column C: message" and exits 1. *)
let parse_or_exit parse src =
  let report msg pos =
    let line, col = Sparql.Parser.line_col src pos in
    Printf.eprintf "line %d, column %d: %s\n%!" line col msg;
    exit 1
  in
  match parse src with
  | v -> v
  | exception Sparql.Lexer.Lex_error (msg, pos) -> report msg pos
  | exception Sparql.Parser.Parse_error (msg, pos) -> report msg pos

let query_arg =
  let doc = "SPARQL query text, or a path to a file containing it." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let run_query data backend k no_coloring domains compress wcoj extvp
    extvp_build extvp_threshold extvp_budget_mb timeout query =
  let q = parse_or_exit Sparql.Parser.parse (read_query query) in
  let triples = load_triples data in
  Printf.printf "loaded %d triples into %s\n%!" (List.length triples) backend;
  let store =
    build_store ~compress ~wcoj ~extvp ~extvp_build ~extvp_threshold
      ~extvp_budget_mb backend k no_coloring domains triples
  in
  let t0 = Unix.gettimeofday () in
  match Db2rdf.Store.run ~timeout store q with
  | Db2rdf.Store.Complete r, dt ->
    Printf.printf "%s\n" (String.concat "\t" ("?" :: r.Sparql.Ref_eval.vars));
    List.iter
      (fun row ->
        print_endline
          (String.concat "\t"
             ("" :: List.map
                      (function
                        | Some t -> Rdf.Term.to_string t
                        | None -> "")
                      row)))
      r.Sparql.Ref_eval.rows;
    Printf.printf "%d rows in %.1f ms\n" (List.length r.Sparql.Ref_eval.rows)
      (dt *. 1000.0)
  | outcome, dt ->
    Printf.printf "%s after %.1f ms\n"
      (Db2rdf.Store.outcome_to_string outcome)
      (dt *. 1000.0);
    ignore t0

let query_cmd =
  let info = Cmd.info "query" ~doc:"Load data and evaluate a SPARQL query." in
  Cmd.v info
    Term.(
      const run_query $ data_arg $ backend_arg $ columns_arg $ no_color_arg
      $ domains_arg $ compress_arg
      $ wcoj_arg $ extvp_arg $ extvp_build_arg $ extvp_threshold_arg
      $ extvp_budget_arg $ timeout_arg $ query_arg)

(* ------------------------------------------------------------------ *)
(* update                                                              *)
(* ------------------------------------------------------------------ *)

let update_summary = function
  | Sparql.Ast.Insert_data ts ->
    Printf.sprintf "INSERT DATA (%d triples)" (List.length ts)
  | Sparql.Ast.Delete_data ts ->
    Printf.sprintf "DELETE DATA (%d triples)" (List.length ts)
  | Sparql.Ast.Delete_where tps ->
    Printf.sprintf "DELETE WHERE (%d patterns)" (List.length tps)

let run_update data backend k no_coloring domains compress wcoj extvp
    extvp_build extvp_threshold extvp_budget_mb timeout script =
  let statements = parse_or_exit Sparql.Parser.parse_script (read_query script) in
  let triples = load_triples data in
  Printf.printf "loaded %d triples into %s\n%!" (List.length triples) backend;
  let store =
    build_store ~compress ~wcoj ~extvp ~extvp_build ~extvp_threshold
      ~extvp_budget_mb backend k no_coloring domains triples
  in
  List.iteri
    (fun i stmt ->
      match stmt with
      | Sparql.Ast.S_update u ->
        let t0 = Unix.gettimeofday () in
        store.Db2rdf.Store.update u;
        Printf.printf "stmt %d: %s in %.1f ms\n%!" (i + 1) (update_summary u)
          ((Unix.gettimeofday () -. t0) *. 1000.0)
      | Sparql.Ast.S_query q ->
        (match Db2rdf.Store.run ~timeout store q with
         | Db2rdf.Store.Complete r, dt ->
           Printf.printf "stmt %d: SELECT -> %d rows in %.1f ms\n%!" (i + 1)
             (List.length r.Sparql.Ref_eval.rows) (dt *. 1000.0)
         | outcome, dt ->
           Printf.printf "stmt %d: SELECT -> %s after %.1f ms\n%!" (i + 1)
             (Db2rdf.Store.outcome_to_string outcome) (dt *. 1000.0)))
    statements;
  let dump =
    Sparql.Ast.select
      (Sparql.Ast.Select_vars [ "s"; "p"; "o" ])
      (Sparql.Ast.Bgp
         [ { Sparql.Ast.tp_s = Var "s"; tp_p = Var "p"; tp_o = Var "o" } ])
  in
  match Db2rdf.Store.run ~timeout store dump with
  | Db2rdf.Store.Complete r, _ ->
    Printf.printf "store now holds %d triples\n"
      (List.length r.Sparql.Ref_eval.rows)
  | outcome, _ ->
    Printf.printf "final count unavailable (%s)\n"
      (Db2rdf.Store.outcome_to_string outcome)

let update_cmd =
  let script_arg =
    let doc = "SPARQL update script text (INSERT DATA / DELETE DATA / \
               DELETE WHERE statements and SELECT probes separated by \
               semicolons), or a path to a file containing it." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCRIPT" ~doc)
  in
  let info =
    Cmd.info "update"
      ~doc:"Load data and apply a SPARQL 1.1 update script. Statements \
            run in order against the chosen backend's live store; SELECT \
            statements in the script are evaluated and their row counts \
            printed. Writes land in each table's boxed delta (no \
            re-encode per statement); under --compress a table's delta \
            folds into its packed main once it outgrows a quarter of \
            the main."
  in
  Cmd.v info
    Term.(
      const run_update $ data_arg $ backend_arg $ columns_arg $ no_color_arg
      $ domains_arg $ compress_arg
      $ wcoj_arg $ extvp_arg $ extvp_build_arg
      $ extvp_threshold_arg $ extvp_budget_arg $ timeout_arg $ script_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let run_explain data backend k no_coloring domains compress wcoj extvp
    extvp_build extvp_threshold extvp_budget_mb analyze timeout query =
  let q = parse_or_exit Sparql.Parser.parse (read_query query) in
  let triples = load_triples data in
  let store =
    build_store ~compress ~wcoj ~extvp ~extvp_build ~extvp_threshold
      ~extvp_budget_mb backend k no_coloring domains triples
  in
  print_endline (store.Db2rdf.Store.explain q);
  if analyze then begin
    match store.Db2rdf.Store.analyze ~timeout q with
    | r, Some tree ->
      print_endline "== analyze ==";
      print_string (Relsql.Opstats.to_string tree);
      Printf.printf "(%d result rows)\n" (List.length r.Sparql.Ref_eval.rows)
    | r, None ->
      Printf.printf "(no operator metrics for this backend; %d result rows)\n"
        (List.length r.Sparql.Ref_eval.rows)
    | exception Relsql.Executor.Timeout ->
      Printf.printf "== analyze ==\ntimeout after %.1fs\n" timeout
  end

let analyze_arg =
  let doc = "Also execute the query and print per-operator metrics \
             (rows in/out, index probes, hash-build sizes, timings)." in
  Arg.(value & flag & info [ "analyze" ] ~doc)

let explain_cmd =
  let info =
    Cmd.info "explain"
      ~doc:"Show the translation pipeline (flow, plan, SQL) for a query."
  in
  Cmd.v info
    Term.(
      const run_explain $ data_arg $ backend_arg $ columns_arg $ no_color_arg
      $ domains_arg $ compress_arg
      $ wcoj_arg $ extvp_arg $ extvp_build_arg $ extvp_threshold_arg
      $ extvp_budget_arg $ analyze_arg $ timeout_arg $ query_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let run_generate data output =
  let triples = load_triples data in
  (match output with
   | Some path ->
     Rdf.Ntriples.write_file path triples;
     Printf.printf "wrote %d triples to %s\n" (List.length triples) path
   | None -> List.iter (fun t -> print_endline (Rdf.Triple.to_string t)) triples)

let generate_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to FILE instead of stdout.")
  in
  let info = Cmd.info "generate" ~doc:"Emit a dataset as N-Triples." in
  Cmd.v info Term.(const run_generate $ data_arg $ output)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let print_compression_reports db =
  let reports = Relsql.Database.compression_reports db in
  Printf.printf "\nper-table memory (packed vs boxed-equivalent):\n";
  Printf.printf "  %-14s %9s %12s %12s %7s %s\n" "table" "rows" "boxed" "packed"
    "ratio" "bits/column";
  List.iter
    (fun (r : Relsql.Table.compression_report) ->
      let ratio =
        if r.Relsql.Table.r_packed_bytes > 0 then
          Printf.sprintf "%.2fx"
            (float_of_int r.Relsql.Table.r_boxed_bytes
            /. float_of_int r.Relsql.Table.r_packed_bytes)
        else "-"
      in
      Printf.printf "  %-14s %9d %11dB %11dB %7s %s\n" r.Relsql.Table.r_table
        r.Relsql.Table.r_live_rows r.Relsql.Table.r_boxed_bytes
        r.Relsql.Table.r_packed_bytes ratio
        (String.concat ","
           (List.map
              (fun (c, b) -> Printf.sprintf "%s:%d" c b)
              r.Relsql.Table.r_col_bits));
      (* Delta accounting of packed tables once writes happened: the
         load-time merge alone leaves nothing to report. *)
      if
        r.Relsql.Table.r_frozen
        && (r.Relsql.Table.r_delta_rows > 0 || r.Relsql.Table.r_tombstones > 0
            || r.Relsql.Table.r_merges > 1)
      then
        Printf.printf
          "  %-14s delta: %d rows (%dB), %d tombstones, %d merges\n" ""
          r.Relsql.Table.r_delta_rows r.Relsql.Table.r_delta_bytes
          r.Relsql.Table.r_tombstones r.Relsql.Table.r_merges;
      if r.Relsql.Table.r_posting_entries > 0 then
        Printf.printf "  %-14s postings: %d entries in %d words (%.2fx)\n" ""
          r.Relsql.Table.r_posting_entries r.Relsql.Table.r_posting_words
          (float_of_int r.Relsql.Table.r_posting_entries
          /. float_of_int (max 1 r.Relsql.Table.r_posting_words)))
    reports

let print_extvp_report e =
  match Db2rdf.Engine.extvp_registry e with
  | None -> ()
  | Some reg ->
    let c = Relsql.Extvp.counters reg in
    Printf.printf
      "\nsemi-join reductions: %d cached (%.2f MB), %d built in %.1f ms, %d \
       rejected, %d evicted\n"
      (Relsql.Extvp.cached_count reg)
      (float_of_int c.Relsql.Extvp.bytes /. 1_048_576.0)
      c.Relsql.Extvp.builds
      (1000.0 *. c.Relsql.Extvp.build_s)
      c.Relsql.Extvp.rejections c.Relsql.Extvp.evictions;
    List.iter
      (fun (name, sel, bytes) ->
        Printf.printf "  %-24s sel %.4f  %9dB\n" name sel bytes)
      (Relsql.Extvp.cached reg)

let run_stats data k compress extvp extvp_threshold extvp_budget_mb =
  let triples = load_triples data in
  let options =
    { Db2rdf.Engine.default_options with compress; extvp;
      extvp_build = extvp; extvp_threshold; extvp_budget_mb }
  in
  let e, dcol, rcol =
    Db2rdf.Engine.create_colored ~options
      ~layout:(Db2rdf.Layout.make ~dph_cols:k ~rph_cols:k) triples
  in
  let loader = Db2rdf.Engine.loader e in
  let d = Db2rdf.Loader.report loader Db2rdf.Loader.Direct in
  let r = Db2rdf.Loader.report loader Db2rdf.Loader.Reverse in
  Printf.printf "triples loaded:     %d\n" (Db2rdf.Loader.triples_loaded loader);
  Printf.printf "dictionary size:    %d terms\n"
    (Rdf.Dictionary.size (Db2rdf.Engine.dictionary e));
  Printf.printf "predicates:         %d (DPH colors %d, coverage %.1f%%)\n"
    dcol.Db2rdf.Coloring.total_predicates dcol.Db2rdf.Coloring.colors_used
    (100.0 *. Db2rdf.Coloring.coverage dcol);
  Printf.printf "                    (RPH colors %d, coverage %.1f%%)\n"
    rcol.Db2rdf.Coloring.colors_used (100.0 *. Db2rdf.Coloring.coverage rcol);
  Printf.printf "DPH: %d rows, %d spills, %.1f%% null cells, %.2f MB\n"
    d.Db2rdf.Loader.rows d.Db2rdf.Loader.spills
    (100.0 *. d.Db2rdf.Loader.null_fraction)
    (float_of_int d.Db2rdf.Loader.storage_bytes /. 1_048_576.0);
  Printf.printf "RPH: %d rows, %d spills, %.1f%% null cells, %.2f MB\n"
    r.Db2rdf.Loader.rows r.Db2rdf.Loader.spills
    (100.0 *. r.Db2rdf.Loader.null_fraction)
    (float_of_int r.Db2rdf.Loader.storage_bytes /. 1_048_576.0);
  print_compression_reports (Db2rdf.Loader.database loader);
  if extvp then print_extvp_report e

let stats_cmd =
  let info = Cmd.info "stats" ~doc:"Load data and print storage statistics." in
  Cmd.v info
    Term.(
      const run_stats $ data_arg $ columns_arg $ compress_arg $ extvp_arg
      $ extvp_threshold_arg $ extvp_budget_arg)

(* ------------------------------------------------------------------ *)
(* merge                                                               *)
(* ------------------------------------------------------------------ *)

(* Demonstrate the delta-main write path end to end: load compressed,
   apply an update script (writes stay delta-resident until the merge
   policy fires), then eagerly compact with [Engine.merge] and report
   the per-table storage state before and after. *)
let run_merge data k script =
  let triples = load_triples data in
  let options = { Db2rdf.Engine.default_options with compress = true } in
  let e, _, _ =
    Db2rdf.Engine.create_colored ~options
      ~layout:(Db2rdf.Layout.make ~dph_cols:k ~rph_cols:k) triples
  in
  Printf.printf "loaded %d triples (compressed)\n%!" (List.length triples);
  (match script with
   | None -> ()
   | Some src ->
     List.iteri
       (fun i stmt ->
         match stmt with
         | Sparql.Ast.S_update u ->
           let t0 = Unix.gettimeofday () in
           Db2rdf.Engine.update e u;
           Printf.printf "stmt %d: %s in %.1f ms\n%!" (i + 1)
             (update_summary u)
             ((Unix.gettimeofday () -. t0) *. 1000.0)
         | Sparql.Ast.S_query _ -> ())
       (parse_or_exit Sparql.Parser.parse_script (read_query (Some src))));
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
  print_compression_reports db;
  let t0 = Unix.gettimeofday () in
  let merged = Db2rdf.Engine.merge e in
  Printf.printf "\nmerged %d table(s) in %.1f ms\n" merged
    ((Unix.gettimeofday () -. t0) *. 1000.0);
  print_compression_reports db

let merge_cmd =
  let script_arg =
    let doc = "Optional SPARQL update script applied before the \
               merge." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCRIPT" ~doc)
  in
  let info =
    Cmd.info "merge"
      ~doc:"Load data compressed, optionally apply an update script \
            (its writes land on the boxed delta side and merge only \
            once a delta outgrows a quarter of its main), then eagerly \
            fold every table's delta back into its packed main \
            (fresh zone maps and postings) and report per-table \
            storage before and after."
  in
  Cmd.v info
    Term.(const run_merge $ data_arg $ columns_arg $ script_arg)

(* ------------------------------------------------------------------ *)
(* sql                                                                 *)
(* ------------------------------------------------------------------ *)

let run_sql data k no_coloring domains stmt =
  let triples = load_triples data in
  let e =
    if no_coloring then begin
      let e = Db2rdf.Engine.create ~layout:(Db2rdf.Layout.make ~dph_cols:k ~rph_cols:k) () in
      Db2rdf.Engine.load e triples;
      e
    end
    else begin
      let e, _, _ =
        Db2rdf.Engine.create_colored
          ~layout:(Db2rdf.Layout.make ~dph_cols:k ~rph_cols:k) triples
      in
      e
    end
  in
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
  Relsql.Database.set_parallelism db domains;
  let parsed = Relsql.Sql_parser.parse (read_query stmt) in
  let r = Relsql.Executor.run db parsed in
  print_endline (String.concat "\t" (Relsql.Executor.column_names r));
  Relsql.Batch.iter
    (fun row ->
      print_endline
        (String.concat "\t"
           (Array.to_list (Array.map Relsql.Value.to_string row))))
    r;
  Printf.printf "%d rows\n" (Relsql.Batch.length r)

let sql_cmd =
  let info =
    Cmd.info "sql" ~doc:"Run raw SQL against the DB2RDF relations (DPH/DS/RPH/RS/DICT)."
  in
  Cmd.v info
    Term.(
      const run_sql $ data_arg $ columns_arg $ no_color_arg $ domains_arg
      $ query_arg)

(* ------------------------------------------------------------------ *)
(* load                                                                *)
(* ------------------------------------------------------------------ *)

let build_engine k no_coloring triples =
  let layout = Db2rdf.Layout.make ~dph_cols:k ~rph_cols:k in
  if no_coloring then begin
    let e = Db2rdf.Engine.create ~layout () in
    Db2rdf.Engine.load e triples;
    e
  end
  else begin
    let e, _, _ = Db2rdf.Engine.create_colored ~layout triples in
    e
  end

let print_load_stats ~parse_s (s : Db2rdf.Loader.load_stats) =
  Printf.printf "triples:  %d in, %d new\n" s.Db2rdf.Loader.triples_in
    s.Db2rdf.Loader.triples_new;
  Printf.printf "parse:    %8.1f ms\n" (1000.0 *. parse_s);
  Printf.printf "load:     %8.1f ms\n" (1000.0 *. s.Db2rdf.Loader.total_s);
  Printf.printf "total:    %8.1f ms\n"
    (1000.0 *. (parse_s +. s.Db2rdf.Loader.total_s))

let run_load data k no_coloring verify =
  let t0 = Unix.gettimeofday () in
  let triples = load_triples data in
  let parse_s = Unix.gettimeofday () -. t0 in
  let e = build_engine k no_coloring triples in
  (match Db2rdf.Engine.load_stats e with
   | Some s -> print_load_stats ~parse_s s
   | None -> print_endline "no load ran");
  if verify then begin
    match (Db2rdf.Engine.to_store e).Db2rdf.Store.check () with
    | () -> print_endline "verify:   OK (Table.check and Loader.check)"
    | exception Failure msg ->
      Printf.printf "verify:   FAILED: %s\n" msg;
      exit 1
  end

let load_cmd =
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Also check the loaded store's structural invariants and \
                 fail on the first violation: every table's storage \
                 (Table.check) and the DB2RDF layout (Loader.check: \
                 entity rows, spill flags, lids, the DICT relation).")
  in
  let info =
    Cmd.info "load"
      ~doc:"Bulk-load data and print its timings (parse, load, total)."
  in
  Cmd.v info
    Term.(const run_load $ data_arg $ columns_arg $ no_color_arg $ verify)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let run_fuzz seed cases timeout fuzz_backend domains compressed wcoj extvp
    updates corpus replay verbose =
  (match fuzz_backend with
   | Some b when not (List.mem b Fuzz.Runner.backend_names) ->
     Printf.eprintf "unknown backend %S; available: %s\n" b
       (String.concat ", " Fuzz.Runner.backend_names);
     exit 2
   | _ -> ());
  match replay with
  | Some path ->
    (* Replay one .repro file (or every .repro in a directory). *)
    let files =
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".repro")
        |> List.sort String.compare
        |> List.map (Filename.concat path)
      else [ path ]
    in
    let failures = ref 0 in
    List.iter
      (fun file ->
        let r = Fuzz.Repro.read file in
        match
          Fuzz.Runner.check_repro ?only:fuzz_backend ~domains ~compressed
            ~wcoj ~extvp ~timeout r
        with
        | Ok () -> Printf.printf "PASS %s\n%!" file
        | Error detail ->
          incr failures;
          Printf.printf "FAIL %s\n  %s\n%!" file detail)
      files;
    Printf.printf "%d/%d repro files pass\n" (List.length files - !failures)
      (List.length files);
    if !failures > 0 then exit 1
  | None ->
    (match corpus with
     | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
     | _ -> ());
    let config =
      { Fuzz.Runner.seed;
        cases;
        timeout;
        corpus_dir = corpus;
        only = fuzz_backend;
        domains;
        compressed;
        wcoj;
        extvp;
        updates;
        log = (if verbose then prerr_endline else ignore) }
    in
    let s = Fuzz.Runner.fuzz config in
    Printf.printf
      "fuzz: seed %d, %d cases, %d skipped, %d divergent\n" seed
      s.Fuzz.Runner.cases_run s.Fuzz.Runner.skipped s.Fuzz.Runner.divergent;
    List.iter (fun p -> Printf.printf "  repro: %s\n" p) s.Fuzz.Runner.repro_files;
    if s.Fuzz.Runner.divergent > 0 then exit 1

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Random seed; the whole run is deterministic in it.")
  in
  let cases =
    Arg.(value & opt int 2000 & info [ "cases" ] ~docv:"N"
           ~doc:"Number of (graph, query) cases to generate.")
  in
  let timeout =
    Arg.(value & opt float 5.0 & info [ "timeout" ] ~docv:"S"
           ~doc:"Per-backend, per-case timeout in seconds.")
  in
  let backend =
    Arg.(value & opt (some string) None & info [ "b"; "backend" ] ~docv:"NAME"
           ~doc:(Printf.sprintf
                   "Fuzz a single backend instead of all of them (one of: %s)."
                   (String.concat ", " Fuzz.Runner.backend_names)))
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Run the relational backends with N executor domains \
                 (and a lowered parallelism threshold; hash-join builds \
                 split into 2N radix partitions) so parallel execution \
                 is differentially checked against the reference \
                 evaluator.")
  in
  let compressed =
    Arg.(value & flag & info [ "compressed" ]
           ~doc:"Merge every backend's tables into bit-packed columnar \
                 storage after load (and after writes, per the merge \
                 policy), so compressed-path bugs (packing, zone-map \
                 pruning, word-at-a-time equality, merges) surface as \
                 divergences against the uncompressed oracle.")
  in
  let wcoj =
    Arg.(value & flag & info [ "wcoj" ]
           ~doc:"Run the DB2RDF backends with the leapfrog \
                 (worst-case-optimal) multiway join forced on for every \
                 recognized statement, so leapfrog bugs surface as \
                 divergences against the sequential oracle.")
  in
  let extvp =
    Arg.(value & flag & info [ "extvp" ]
           ~doc:"Run the DB2RDF backends with ExtVP semi-join reductions \
                 forced on for every matching join edge (regardless of \
                 selectivity), so reduction bugs surface as divergences \
                 against the sequential oracle.")
  in
  let updates =
    Arg.(value & flag & info [ "updates" ]
           ~doc:"Fuzz update scripts instead of single queries: random \
                 INSERT DATA / DELETE DATA / DELETE WHERE statements \
                 interleaved with SELECT probes; after every statement \
                 each backend passes its structural checks (Table.check, \
                 and Loader.check on DB2RDF stores) and its store \
                 contents are diffed against the reference graph.")
  in
  let corpus =
    Arg.(value & opt (some string) (Some "test/corpus")
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory for shrunk .repro reproducers (created if \
                   missing); pass an empty string to disable writing.")
  in
  let corpus =
    Term.(const (function Some "" -> None | c -> c) $ corpus)
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"PATH"
           ~doc:"Replay a .repro file (or every .repro in a directory) \
                 instead of generating new cases.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"Log each divergence and shrink result to stderr.")
  in
  let info =
    Cmd.info "fuzz"
      ~doc:"Differential fuzzing: random (graph, query) cases run on the \
            reference evaluator and every relational backend; divergences \
            are shrunk to minimal .repro reproducers. Exits non-zero if any \
            divergence is found."
  in
  Cmd.v info
    Term.(
      const run_fuzz $ seed $ cases $ timeout $ backend $ domains
      $ compressed $ wcoj $ extvp $ updates
      $ corpus $ replay $ verbose)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "rdfstore" ~version:"1.0.0"
      ~doc:"An RDF store over a relational engine (DB2RDF reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ query_cmd; update_cmd; explain_cmd; generate_cmd; stats_cmd;
            merge_cmd; load_cmd; sql_cmd; fuzz_cmd ]))
