(** E18 — SPARQL UPDATE throughput and snapshot reads over a mixed
    read/write workload.

    Two engines are built over the same generated dataset — one boxed,
    one compressed — and driven through an identical deterministic
    update stream: INSERT DATA statements growing the dictionary and
    claiming fresh predicate slots, DELETE DATA statements retiring
    rows (multi-valued cells included), and DELETE WHERE statements
    instantiated through the engine's own query pipeline. Every
    statement lands in the tables' boxed delta (delta-main storage):
    inserts append, deletes tombstone, and on the compressed engine the
    packed main is never re-encoded per statement — so the
    packed-vs-boxed write amplification is measured rather than
    assumed. The boxed engine never packs: its main stays empty. After the first stream the pending delta is folded back
    with a timed {!Db2rdf.Engine.merge}, and a second stream is timed
    against the freshly merged store, giving per-statement cost both
    pre- and post-merge.

    A reference {!Rdf.Graph} replays both streams through
    {!Sparql.Ref_eval.apply_update}; both engines' final contents are
    asserted multiset-equal to it (and to each other) before anything
    is reported. A probe query is timed after the streams, live and
    against a {!Db2rdf.Engine.snapshot} — the snapshot is captured
    before the write bursts and asserted bit-stable across them.

    With [--json-dir] the experiment writes BENCH_update.json: per-phase
    times (pre-merge update stream, merge — only where it folded a
    table, so never for the boxed engine — post-merge update stream,
    live probe, snapshot probe) for both systems, their delta
    accounting (pending delta rows, main tombstones and tables merged),
    and the streams' statement counts. *)

let stream_len = 60

let probe_src = "SELECT ?s ?v WHERE { ?s <p1> ?v }"
let dump_src = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

(* Deterministic mixed stream: a rolling insert / targeted-delete /
   delete-where pattern over fresh vocabulary, so every statement kind
   appears and deletions hit rows the stream itself created. [base]
   offsets the vocabulary so a second stream touches fresh entities. *)
let gen_stream ?(base = 0) () =
  List.init stream_len (fun j ->
      let i = base + j in
      match j mod 3 with
      | 0 ->
        Printf.sprintf
          "INSERT DATA { <u%d> <p0> <o%d> . <u%d> <p1> \"v%d\" . <u%d> <q%d> \
           <u%d> }"
          i i i i i (i mod 7)
          (base + ((j + 1) mod stream_len))
      | 1 -> Printf.sprintf "DELETE DATA { <u%d> <p0> <o%d> }" (i - 1) (i - 1)
      | _ -> Printf.sprintf "DELETE WHERE { <u%d> ?p ?o }" (i - 2))

let sorted_rows (r : Sparql.Ref_eval.results) : string list =
  List.sort String.compare
    (List.map
       (fun row ->
         String.concat "\t"
           (List.map
              (function Some t -> Rdf.Term.to_string t | None -> "")
              row))
       r.Sparql.Ref_eval.rows)

type sys_result = {
  s_name : string;
  s_stream_ms : float;  (** first stream: writes accumulate delta-side *)
  s_delta_rows : int;  (** pending delta rows when the first stream ends *)
  s_tombstones : int;  (** pending main tombstones at the same point *)
  s_merge_ms : float;
  s_merged : int;  (** tables the explicit merge folded back *)
  s_stream2_ms : float;  (** second stream, against the merged store *)
  s_probe_ms : float;
  s_probe_rows : int;
  s_snap_ms : float;
}

let delta_accounting e =
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader e) in
  List.fold_left
    (fun (dr, tb) name ->
      let t = Relsql.Database.find_exn db name in
      (dr + Relsql.Table.delta_rows t, tb + Relsql.Table.main_tombstones t))
    (0, 0)
    (Relsql.Database.table_names db)

let best_of_3 f =
  let one () = snd (Harness.timed f) in
  let a = one () and b = one () and c = one () in
  min a (min b c)

(* One system through the whole protocol: snapshot captured before the
   first stream (must stay bit-stable across everything, the merge
   included), the timed pre-merge stream, a timed explicit merge, the
   timed post-merge stream, timed live and snapshot probes, and the
   final dump for the equality gate. *)
let run_system_with_dump name ~compress triples stream stream2 =
  let options = { Db2rdf.Engine.default_options with compress } in
  let e, _, _ =
    Db2rdf.Engine.create_colored ~options
      ~layout:(Db2rdf.Layout.make ~dph_cols:24 ~rph_cols:24)
      triples
  in
  let snap = Db2rdf.Engine.snapshot e in
  let snap_before =
    sorted_rows (Db2rdf.Engine.snapshot_query_string snap dump_src)
  in
  let _, stream_s =
    Harness.timed (fun () ->
        List.iter (Db2rdf.Engine.update_string e) stream)
  in
  let delta_rows, tombstones = delta_accounting e in
  let merged, merge_s = Harness.timed (fun () -> Db2rdf.Engine.merge e) in
  let _, stream2_s =
    Harness.timed (fun () ->
        List.iter (Db2rdf.Engine.update_string e) stream2)
  in
  if sorted_rows (Db2rdf.Engine.snapshot_query_string snap dump_src)
     <> snap_before
  then failwith (Printf.sprintf "E18: %s snapshot moved under the writer" name);
  let probe_s = best_of_3 (fun () -> Db2rdf.Engine.query_string e probe_src) in
  let probe_rows =
    List.length (Db2rdf.Engine.query_string e probe_src).Sparql.Ref_eval.rows
  in
  let snap2 = Db2rdf.Engine.snapshot e in
  let snap_s =
    best_of_3 (fun () -> Db2rdf.Engine.snapshot_query_string snap2 probe_src)
  in
  let dump = sorted_rows (Db2rdf.Engine.query_string e dump_src) in
  ( { s_name = name;
      s_stream_ms = 1000.0 *. stream_s;
      s_delta_rows = delta_rows;
      s_tombstones = tombstones;
      s_merge_ms = 1000.0 *. merge_s;
      s_merged = merged;
      s_stream2_ms = 1000.0 *. stream2_s;
      s_probe_ms = 1000.0 *. probe_s;
      s_probe_rows = probe_rows;
      s_snap_ms = 1000.0 *. snap_s },
    dump )

let run (cfg : Harness.config) =
  Harness.section
    (Printf.sprintf
       "E18. SPARQL UPDATE + snapshot reads — %d triples, %d statements"
       cfg.Harness.scale stream_len);
  let triples = Workloads.Micro.generate ~scale:cfg.Harness.scale in
  let stream = gen_stream () in
  let stream2 = gen_stream ~base:1000 () in
  (* reference: the same streams over the oracle graph *)
  let g = Rdf.Graph.create () in
  List.iter (Rdf.Graph.add g) triples;
  List.iter
    (fun src -> Sparql.Ref_eval.apply_update g (Sparql.Parser.parse_update src))
    (stream @ stream2);
  let oracle =
    sorted_rows (Sparql.Ref_eval.eval g (Sparql.Parser.parse dump_src))
  in
  let boxed, boxed_dump =
    run_system_with_dump "boxed" ~compress:false triples stream stream2
  in
  let packed, packed_dump =
    run_system_with_dump "compressed" ~compress:true triples stream stream2
  in
  if boxed_dump <> oracle then
    failwith "E18: boxed engine diverges from the reference graph";
  if packed_dump <> oracle then
    failwith "E18: compressed engine diverges from the reference graph";
  Printf.printf
    "both engines match the reference graph after the streams (%d triples); \
     snapshots bit-stable under the writer\n%!"
    (List.length oracle);
  Harness.subsection "per-system times (ms)";
  Harness.print_table
    [ "system"; "stream"; "per-stmt"; "merge"; "stream'"; "per-stmt'";
      "probe"; "snap probe" ]
    (List.map
       (fun r ->
         [ r.s_name;
           Printf.sprintf "%8.2f" r.s_stream_ms;
           Printf.sprintf "%8.3f" (r.s_stream_ms /. float_of_int stream_len);
           Printf.sprintf "%8.3f" r.s_merge_ms;
           Printf.sprintf "%8.2f" r.s_stream2_ms;
           Printf.sprintf "%8.3f" (r.s_stream2_ms /. float_of_int stream_len);
           Printf.sprintf "%8.3f" r.s_probe_ms;
           Printf.sprintf "%8.3f" r.s_snap_ms ])
       [ boxed; packed ]);
  Harness.subsection "delta accounting";
  Harness.print_table
    [ "system"; "delta rows"; "tombstones"; "tables merged" ]
    (List.map
       (fun r ->
         [ r.s_name;
           string_of_int r.s_delta_rows;
           string_of_int r.s_tombstones;
           string_of_int r.s_merged ])
       [ boxed; packed ]);
  Printf.printf
    "\ncompressed write amplification vs boxed: %.2fx pre-merge, %.2fx \
     post-merge\n%!"
    (packed.s_stream_ms /. boxed.s_stream_ms)
    (packed.s_stream2_ms /. boxed.s_stream2_ms);
  let measurement r phase ms extra =
    Harness.J_obj
      ([ ("workload", Harness.J_str "micro");
         ("system", Harness.J_str r.s_name);
         ("query", Harness.J_str phase);
         ("ms", Harness.J_float ms) ]
       @ extra)
  in
  Harness.write_json cfg ~file:"BENCH_update.json"
    (Harness.J_obj
       [ ("experiment", Harness.J_str "update");
         ("scale", Harness.J_int cfg.Harness.scale);
         ("statements", Harness.J_int stream_len);
         ("final_triples", Harness.J_int (List.length oracle));
         ( "measurements",
           Harness.J_list
             (List.concat_map
                (fun r ->
                  [ measurement r "update-stream" r.s_stream_ms
                      [ ("statements", Harness.J_int stream_len);
                        ("delta_rows", Harness.J_int r.s_delta_rows);
                        ("tombstones", Harness.J_int r.s_tombstones) ] ]
                  (* A merge that folded nothing (the boxed engine never
                     packs) times only the clock; leave it out. *)
                  @ (if r.s_merged = 0 then []
                     else
                       [ measurement r "merge" r.s_merge_ms
                           [ ("tables_merged", Harness.J_int r.s_merged) ] ])
                  @ [ measurement r "update-stream-post-merge" r.s_stream2_ms
                        [ ("statements", Harness.J_int stream_len) ];
                      measurement r "probe" r.s_probe_ms
                        [ ("results", Harness.J_int r.s_probe_rows) ];
                      measurement r "snapshot-probe" r.s_snap_ms [] ])
                [ boxed; packed ]) ) ])
