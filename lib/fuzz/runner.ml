(** The differential fuzz loop: generate (graph, query) cases, run each
    on the reference evaluator (oracle) and every relational backend,
    compare, shrink divergences, and write `.repro` reproducer files.

    Equivalence is stricter than the property tests in [test/helpers.ml]:

    - no LIMIT/OFFSET: multiset equality of rows ({!Sparql.Ref_eval.canonical});
    - ORDER BY on projected variables: additionally the backend's rows
      must be sorted under the oracle's ordering key (ties may permute);
    - LIMIT/OFFSET: the oracle runs {e without} the modifiers; the
      backend must return exactly [slice] rows, every returned row must
      belong to the full oracle answer, and — when the ordering is
      checkable — the sequence of sort keys must equal the sliced
      oracle's key sequence.

    A backend raising an unexpected exception counts as a divergence
    ([Crash]); [Timeout] and [Unsupported] do not. *)

open Sparql.Ast

type results = Sparql.Ref_eval.results

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

(** Fresh stores loaded with [triples]. The hash-mapped engine gets a
    deliberately narrow layout (3 columns) so predicate conflicts and
    spill rows occur even on small fuzz graphs.

    [domains > 1] is the parallel-differential mode: every backend
    executes its SQL over that many domains while the oracle stays
    sequential, so any morsel-parallelism bug (ordering, partial-merge,
    races) surfaces as a divergence. Fuzz graphs are tiny, so the
    parallel-dispatch threshold is dropped to 2 rows — otherwise the
    parallel operators would never actually run.

    Their hash-join builds then split into twice as many radix
    partitions as domains, so a partitioned-build bug (routing,
    partition order, NULL keys) surfaces as a divergence too.

    [compressed] merges every backend's tables into bit-packed
    columnar storage after load (and after writes, per the merge
    policy) while the oracle keeps evaluating the
    graph directly — so any compressed-path bug (packing, zone-map
    pruning, word-at-a-time equality, posting run-length encoding)
    surfaces as a divergence against the uncompressed semantics.

    [wcoj] turns on the worst-case-optimal join on every DB2RDF engine
    AND forces the planner's selector to always choose the leapfrog
    operator for recognized statements (the statistics-informed chooser
    would rarely fire on tiny fuzz graphs), so any leapfrog bug —
    iterator seeks, multiplicity, NULL handling, emission order —
    surfaces as a divergence against the sequential oracle.

    [extvp] turns on ExtVP semi-join reductions on every DB2RDF engine
    AND forces the registry to advise and retain every candidate
    reduction regardless of selectivity (tiny fuzz graphs would rarely
    pass the threshold), so any reduction bug — membership, stale
    tables after writes, packed reductions, scan-cache collisions —
    surfaces as a divergence against the sequential oracle. *)
let force_wcoj_selector (e : Db2rdf.Engine.t) =
  Relsql.Database.set_wcoj_selector
    (Db2rdf.Loader.database (Db2rdf.Engine.loader e))
    (Some (fun _ -> { Relsql.Wcoj.use_wcoj = true; est_rows = 0 }))

let force_extvp (e : Db2rdf.Engine.t) =
  Option.iter
    (fun r -> Relsql.Extvp.set_force r true)
    (Db2rdf.Engine.extvp_registry e)

let make_backends ?only ?(domains = 1) ?(compressed = false) ?(wcoj = false)
    ?(extvp = false) (triples : Rdf.Triple.t list) : Db2rdf.Store.t list =
  if domains > 1 then Relsql.Executor.par_min_rows := 2;
  let options =
    { Db2rdf.Engine.default_options with parallelism = domains;
      compress = compressed; wcoj; extvp }
  in
  let forced e =
    if wcoj then force_wcoj_selector e;
    if extvp then force_extvp e
  in
  let thunks =
    [ ( "DB2RDF-hash",
        fun () ->
          let e =
            Db2rdf.Engine.create
              ~layout:(Db2rdf.Layout.make ~dph_cols:3 ~rph_cols:3) ~options ()
          in
          Db2rdf.Engine.load e triples;
          forced e;
          Db2rdf.Engine.to_store ~name:"DB2RDF-hash" e );
      ( "DB2RDF-colored",
        fun () ->
          let e, _, _ =
            Db2rdf.Engine.create_colored
              ~layout:(Db2rdf.Layout.make ~dph_cols:4 ~rph_cols:4) ~options
              triples
          in
          forced e;
          Db2rdf.Engine.to_store ~name:"DB2RDF-colored" e );
      ( "DB2RDF-unopt",
        fun () ->
          let options =
            { Db2rdf.Engine.default_options with
              optimize = false; merge = false; late_fuse = false;
              parallelism = domains; compress = compressed; wcoj; extvp }
          in
          let e =
            Db2rdf.Engine.create
              ~layout:(Db2rdf.Layout.make ~dph_cols:3 ~rph_cols:3) ~options ()
          in
          Db2rdf.Engine.load e triples;
          forced e;
          Db2rdf.Engine.to_store ~name:"DB2RDF-unopt" e );
      ( "TripleStore",
        fun () ->
          let ts =
            Db2rdf.Triple_store.create ~parallelism:domains
              ~compress:compressed ()
          in
          Db2rdf.Triple_store.load ts triples;
          Db2rdf.Triple_store.to_store ts );
      ( "VertStore",
        fun () ->
          let vs =
            Db2rdf.Vertical_store.create ~parallelism:domains
              ~compress:compressed ()
          in
          Db2rdf.Vertical_store.load vs triples;
          Db2rdf.Vertical_store.to_store vs ) ]
  in
  let thunks =
    match only with
    | None -> thunks
    | Some name ->
      (match List.filter (fun (n, _) -> n = name) thunks with
       | [] ->
         invalid_arg
           (Printf.sprintf "unknown backend %S (expected one of: %s)" name
              (String.concat ", " (List.map fst thunks)))
       | fs -> fs)
  in
  List.map (fun (_, f) -> f ()) thunks

let backend_names = [ "DB2RDF-hash"; "DB2RDF-colored"; "DB2RDF-unopt"; "TripleStore"; "VertStore" ]

type outcome =
  | Complete of results
  | Timeout
  | Unsupported of string
  | Crash of string

let run_backend ~timeout (store : Db2rdf.Store.t) (q : query) : outcome =
  match Db2rdf.Store.run ~timeout store q with
  | Db2rdf.Store.Complete r, _ -> Complete r
  | Db2rdf.Store.Timed_out, _ -> Timeout
  | Db2rdf.Store.Unsupported m, _ -> Unsupported m
  | Db2rdf.Store.Failed m, _ -> Crash m
  | exception e -> Crash (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Equivalence                                                         *)
(* ------------------------------------------------------------------ *)

(* Replicates Ref_eval.order_key for materialized rows: unbound sorts
   first, then numerics by value, then everything else by lexical
   form. *)
let term_key : Rdf.Term.t option -> int * float * string = function
  | None -> (-1, 0.0, "")
  | Some t ->
    (match Rdf.Term.as_number t with
     | Some n -> (0, n, "")
     | None -> (1, 0.0, Rdf.Term.to_string t))

(* ORDER BY is checkable when every condition is a plain variable that
   the query projects (the only form sqlgen supports anyway). Returns
   per-row key extractors paired with the sort direction. *)
let order_spec (q : query) (r : results) :
  ((Rdf.Term.t option list -> int * float * string) * bool) list option =
  if q.order_by = [] then None
  else begin
    let find_var v =
      let rec idx i = function
        | [] -> None
        | x :: _ when x = v -> Some i
        | _ :: rest -> idx (i + 1) rest
      in
      idx 0 r.Sparql.Ref_eval.vars
    in
    let specs =
      List.map
        (fun { ord_expr; ord_asc } ->
          match ord_expr with
          | E_var v ->
            (match find_var v with
             | Some i -> Some ((fun row -> term_key (List.nth row i)), ord_asc)
             | None -> None)
          | _ -> None)
        q.order_by
    in
    if List.for_all Option.is_some specs then
      Some (List.map Option.get specs)
    else None
  end

let compare_rows specs a b =
  let rec go = function
    | [] -> 0
    | (key, asc) :: rest ->
      let c = Stdlib.compare (key a) (key b) in
      if c <> 0 then if asc then c else -c else go rest
  in
  go specs

let rec is_sorted specs = function
  | a :: (b :: _ as rest) ->
    compare_rows specs a b <= 0 && is_sorted specs rest
  | _ -> true

let slice ?offset ?limit rows =
  let rows =
    match offset with
    | None -> rows
    | Some k ->
      let rec drop n = function
        | xs when n <= 0 -> xs
        | [] -> []
        | _ :: rest -> drop (n - 1) rest
      in
      drop k rows
  in
  match limit with
  | None -> rows
  | Some n ->
    let rec take n = function
      | _ when n <= 0 -> []
      | [] -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    take n rows

(* Multiset difference a \ b over canonical row strings; empty when a
   is a sub-multiset of b. *)
let multiset_extra a b =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    b;
  List.filter
    (fun k ->
      match Hashtbl.find_opt tbl k with
      | Some n when n > 0 -> Hashtbl.replace tbl k (n - 1); false
      | _ -> true)
    a

let row_strings (r : results) =
  List.map
    (fun row ->
      String.concat "\t"
        (List.map (function Some t -> Rdf.Term.to_string t | None -> "") row))
    r.Sparql.Ref_eval.rows

(** [check_equiv q ~oracle_full got]: [oracle_full] is the reference
    answer with LIMIT/OFFSET stripped. Returns [Error detail] on
    divergence. *)
let check_equiv (q : query) ~(oracle_full : results) (got : results) :
  (unit, string) result =
  let expected_rows =
    slice ?offset:q.offset ?limit:q.limit oracle_full.Sparql.Ref_eval.rows
  in
  let n_expected = List.length expected_rows in
  let n_got = List.length got.Sparql.Ref_eval.rows in
  if n_got <> n_expected then
    Error (Printf.sprintf "row count: oracle %d, backend %d" n_expected n_got)
  else if q.limit = None && q.offset = None then begin
    if Sparql.Ref_eval.canonical oracle_full <> Sparql.Ref_eval.canonical got
    then Error "row multisets differ"
    else
      match order_spec q got with
      | Some specs when not (is_sorted specs got.Sparql.Ref_eval.rows) ->
        Error "backend rows not sorted per ORDER BY"
      | _ -> Ok ()
  end
  else begin
    (* Under LIMIT/OFFSET the backend may pick any correctly-ordered
       slice; its rows must all come from the full oracle answer. *)
    let extra = multiset_extra (row_strings got) (row_strings oracle_full) in
    if extra <> [] then
      Error
        (Printf.sprintf "backend returned row outside oracle answer: %s"
           (List.hd extra))
    else
      match order_spec q got with
      | None -> Ok ()
      | Some specs ->
        if not (is_sorted specs got.Sparql.Ref_eval.rows) then
          Error "backend rows not sorted per ORDER BY"
        else begin
          (* Sort keys of any valid ordered slice are determined by the
             multiset, so they must match the oracle's slice exactly. *)
          let keys rows =
            List.map (fun row -> List.map (fun (key, _) -> key row) specs) rows
          in
          if keys got.Sparql.Ref_eval.rows <> keys expected_rows then
            Error "ORDER BY + LIMIT/OFFSET selected wrong slice"
          else Ok ()
        end
  end

(* ------------------------------------------------------------------ *)
(* Case execution                                                      *)
(* ------------------------------------------------------------------ *)

type divergence = { backend : string; detail : string }

type case_result =
  | Agree
  | Diverged of divergence list
  | Skipped of string  (** oracle timeout / nothing ran *)

let strip_modifiers q = { q with limit = None; offset = None }

(** Run [q] on the oracle and every backend over [triples]. [domains]
    runs the backends in parallel-execution mode, [compressed] merges
    their tables into bit-packed columnar storage (the oracle is always
    sequential and uncompressed). *)
let run_case ?only ?domains ?compressed ?wcoj ?extvp ?(timeout = 5.0)
    (triples : Rdf.Triple.t list) (q : query) : case_result =
  let g = Rdf.Graph.create () in
  List.iter (Rdf.Graph.add g) triples;
  match Sparql.Ref_eval.eval ~timeout g (strip_modifiers q) with
  | exception Sparql.Ref_eval.Timeout -> Skipped "oracle timeout"
  | exception e -> Skipped ("oracle failed: " ^ Printexc.to_string e)
  | oracle_full ->
    let stores = make_backends ?only ?domains ?compressed ?wcoj ?extvp triples in
    let divergences =
      List.filter_map
        (fun (store : Db2rdf.Store.t) ->
          match run_backend ~timeout store q with
          | Timeout | Unsupported _ -> None
          | Crash msg ->
            Some { backend = store.Db2rdf.Store.name; detail = "crash: " ^ msg }
          | Complete got ->
            (match check_equiv q ~oracle_full got with
             | Ok () -> None
             | Error detail ->
               Some { backend = store.Db2rdf.Store.name; detail }))
        stores
    in
    if divergences = [] then Agree else Diverged divergences

(* ------------------------------------------------------------------ *)
(* Update scripts                                                      *)
(* ------------------------------------------------------------------ *)

let dump_query : query =
  select
    (Select_vars [ "s"; "p"; "o" ])
    (Bgp [ { tp_s = Var "s"; tp_p = Var "p"; tp_o = Var "o" } ])

let graph_dump (g : Rdf.Graph.t) : string list =
  List.sort Stdlib.compare
    (List.map
       (fun (tr : Rdf.Triple.t) ->
         String.concat "\t"
           [ Rdf.Term.to_string tr.Rdf.Triple.s;
             Rdf.Term.to_string tr.Rdf.Triple.p;
             Rdf.Term.to_string tr.Rdf.Triple.o ])
       (Rdf.Graph.to_list g))

(** Replay an update script statement by statement. The reference graph
    applies {!Sparql.Ref_eval.apply_update}; every backend applies its
    own [update] (so [DELETE WHERE] runs through the backend's own
    query pipeline). After each update statement, each backend passes
    its [check] ({!Relsql.Table.check} on every table, plus
    {!Db2rdf.Loader.check} on DB2RDF stores) and its full dump
    ([SELECT ?s ?p ?o]) — again through its own query path — is
    diffed against the reference graph; each SELECT statement is
    checked with the same equivalence as plain query fuzzing. Stops at
    the first divergent statement. *)
let run_script_case ?only ?domains ?compressed ?wcoj ?extvp ?(timeout = 5.0)
    (triples : Rdf.Triple.t list) (script : statement list) : case_result =
  let g = Rdf.Graph.create () in
  List.iter (Rdf.Graph.add g) triples;
  let stores = make_backends ?only ?domains ?compressed ?wcoj ?extvp triples in
  let divergences = ref [] and skipped = ref None in
  let push d = divergences := !divergences @ [ d ] in
  let check_dump i (store : Db2rdf.Store.t) =
    match run_backend ~timeout store dump_query with
    | Timeout | Unsupported _ -> ()
    | Crash msg ->
      push
        { backend = store.Db2rdf.Store.name;
          detail = Printf.sprintf "stmt %d: dump crash: %s" i msg }
    | Complete got ->
      let got_rows = List.sort Stdlib.compare (row_strings got) in
      let want_rows = graph_dump g in
      if got_rows <> want_rows then
        push
          { backend = store.Db2rdf.Store.name;
            detail =
              Printf.sprintf
                "stmt %d: store contents diverge from reference graph \
                 (%d vs %d triples)"
                i (List.length got_rows) (List.length want_rows) }
  in
  List.iteri
    (fun i stmt ->
      if !divergences = [] && !skipped = None then
        match stmt with
        | S_update u ->
          Sparql.Ref_eval.apply_update g u;
          List.iter
            (fun (store : Db2rdf.Store.t) ->
              (match store.Db2rdf.Store.update u with
               | () -> ()
               | exception e ->
                 push
                   { backend = store.Db2rdf.Store.name;
                     detail =
                       Printf.sprintf "stmt %d: update crash: %s" i
                         (Printexc.to_string e) });
              (if !divergences = [] then
                 match store.Db2rdf.Store.check () with
                 | () -> ()
                 | exception Failure msg ->
                   push
                     { backend = store.Db2rdf.Store.name;
                       detail = Printf.sprintf "stmt %d: %s" i msg });
              if !divergences = [] then check_dump i store)
            stores
        | S_query q ->
          (match Sparql.Ref_eval.eval ~timeout g (strip_modifiers q) with
           | exception Sparql.Ref_eval.Timeout ->
             skipped := Some (Printf.sprintf "stmt %d: oracle timeout" i)
           | exception e ->
             skipped :=
               Some
                 (Printf.sprintf "stmt %d: oracle failed: %s" i
                    (Printexc.to_string e))
           | oracle_full ->
             List.iter
               (fun (store : Db2rdf.Store.t) ->
                 match run_backend ~timeout store q with
                 | Timeout | Unsupported _ -> ()
                 | Crash msg ->
                   push
                     { backend = store.Db2rdf.Store.name;
                       detail = Printf.sprintf "stmt %d: crash: %s" i msg }
                 | Complete got ->
                   (match check_equiv q ~oracle_full got with
                    | Ok () -> ()
                    | Error detail ->
                      push
                        { backend = store.Db2rdf.Store.name;
                          detail = Printf.sprintf "stmt %d: %s" i detail }))
               stores))
    script;
  match (!divergences, !skipped) with
  | [], None -> Agree
  | [], Some why -> Skipped why
  | divs, _ -> Diverged divs

(* ------------------------------------------------------------------ *)
(* Fuzz loop                                                           *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  cases : int;
  timeout : float;  (** per-backend wall-clock seconds *)
  corpus_dir : string option;  (** write shrunk [.repro] files here *)
  only : string option;  (** restrict to one backend by name *)
  domains : int;  (** backend execution parallelism (1 = sequential) *)
  compressed : bool;  (** merge backend tables into packed form *)
  wcoj : bool;  (** force the leapfrog join on DB2RDF backends *)
  extvp : bool;  (** force semi-join reductions on DB2RDF backends *)
  updates : bool;
      (** fuzz update scripts instead of single queries: random
          interleavings of INSERT DATA / DELETE DATA / DELETE WHERE and
          SELECT, diffing every backend's contents against the
          reference graph after each statement *)
  log : string -> unit;
}

let default_config =
  { seed = 42;
    cases = 200;
    timeout = 5.0;
    corpus_dir = None;
    only = None;
    domains = 1;
    compressed = false;
    wcoj = false;
    extvp = false;
    updates = false;
    log = ignore }

type summary = {
  cases_run : int;
  skipped : int;  (** oracle timeouts / pp round-trip failures *)
  divergent : int;  (** distinct shrunk divergences *)
  repro_files : string list;
}

(* The tested query is the pretty-printed + re-parsed form, so the case
   the backends see is byte-identical to what the repro file replays. *)
let roundtrip (q : query) : query option =
  match Sparql.Parser.parse (Sparql.Pp.to_string q) with
  | q' -> Some q'
  | exception _ -> None

let divergence_lines divs =
  List.map (fun d -> Printf.sprintf "%s: %s" d.backend d.detail) divs

let case_fails ?only ?domains ?compressed ?wcoj ?extvp ~timeout
    (c : Shrink.case) : bool =
  match roundtrip c.Shrink.query with
  | None -> false
  | Some q ->
    (match
       run_case ?only ?domains ?compressed ?wcoj ?extvp ~timeout
         c.Shrink.triples q
     with
     | Diverged _ -> true
     | Agree | Skipped _ -> false)

let shrink_case ?only ?domains ?compressed ?wcoj ?extvp ~timeout
    (c : Shrink.case) : Shrink.case =
  Shrink.minimize
    (case_fails ?only ?domains ?compressed ?wcoj ?extvp ~timeout)
    c

(* Like [roundtrip], for whole scripts: the tested script is the
   pretty-printed + re-parsed form, byte-identical to the repro file. *)
let roundtrip_script (s : statement list) : statement list option =
  match Sparql.Parser.parse_script (Sparql.Pp.script_to_string s) with
  | s' -> Some s'
  | exception _ -> None

let script_fails ?only ?domains ?compressed ?wcoj ?extvp ~timeout
    (c : Shrink.script_case) : bool =
  match roundtrip_script c.Shrink.script with
  | None -> false
  | Some script ->
    (match
       run_script_case ?only ?domains ?compressed ?wcoj ?extvp ~timeout
         c.Shrink.s_triples script
     with
     | Diverged _ -> true
     | Agree | Skipped _ -> false)

(** Run the fuzzer. Deterministic in [config.seed]. With
    [config.updates] each case is an update script replayed over the
    generated graph instead of a single query. *)
let fuzz (config : config) : summary =
  let st = Random.State.make [| config.seed |] in
  let skipped = ref 0 and divergent = ref 0 and repro_files = ref [] in
  let write_repro i description ~query_src ~script_src triples =
    match config.corpus_dir with
    | None -> ()
    | Some dir ->
      let path =
        Filename.concat dir
          (Printf.sprintf "seed%d_case%04d.repro" config.seed i)
      in
      Repro.write ~path { Repro.description; query_src; script_src; triples };
      repro_files := path :: !repro_files;
      config.log ("wrote " ^ path)
  in
  let fuzz_query_case i triples vocab =
    let q0 = Gen_query.generate st vocab in
    match roundtrip q0 with
    | None ->
      incr skipped;
      config.log
        (Printf.sprintf "case %d: query does not pp/parse round-trip:\n%s" i
           (Sparql.Pp.to_string q0))
    | Some q ->
      (match
         run_case ?only:config.only ~domains:config.domains
           ~compressed:config.compressed ~wcoj:config.wcoj
           ~extvp:config.extvp ~timeout:config.timeout triples q
       with
       | Agree -> ()
       | Skipped why ->
         incr skipped;
         config.log (Printf.sprintf "case %d skipped: %s" i why)
       | Diverged divs ->
         incr divergent;
         config.log
           (Printf.sprintf "case %d DIVERGED:\n  %s" i
              (String.concat "\n  " (divergence_lines divs)));
         let small =
           shrink_case ?only:config.only ~domains:config.domains
             ~compressed:config.compressed ~wcoj:config.wcoj
             ~extvp:config.extvp ~timeout:config.timeout
             { Shrink.triples; query = q }
         in
         let small_q =
           match roundtrip small.Shrink.query with
           | Some q -> q
           | None -> small.Shrink.query
         in
         let final_divs =
           match
             run_case ?only:config.only ~domains:config.domains
               ~compressed:config.compressed ~wcoj:config.wcoj
               ~extvp:config.extvp ~timeout:config.timeout
               small.Shrink.triples small_q
           with
           | Diverged ds -> ds
           | Agree | Skipped _ -> divs
         in
         let query_src = Sparql.Pp.to_string small.Shrink.query in
         config.log
           (Printf.sprintf "shrunk to %d triples, query:\n%s"
              (List.length small.Shrink.triples) query_src);
         write_repro i
           (Printf.sprintf "seed %d case %d" config.seed i
            :: divergence_lines final_divs)
           ~query_src ~script_src:None small.Shrink.triples)
  in
  let fuzz_script_case i triples vocab =
    let script0 = Gen_query.generate_script st vocab ~existing:triples in
    match roundtrip_script script0 with
    | None ->
      incr skipped;
      config.log
        (Printf.sprintf "case %d: script does not pp/parse round-trip:\n%s" i
           (Sparql.Pp.script_to_string script0))
    | Some script ->
      (match
         run_script_case ?only:config.only ~domains:config.domains
           ~compressed:config.compressed ~wcoj:config.wcoj
           ~extvp:config.extvp ~timeout:config.timeout triples script
       with
       | Agree -> ()
       | Skipped why ->
         incr skipped;
         config.log (Printf.sprintf "case %d skipped: %s" i why)
       | Diverged divs ->
         incr divergent;
         config.log
           (Printf.sprintf "case %d DIVERGED:\n  %s" i
              (String.concat "\n  " (divergence_lines divs)));
         let small =
           Shrink.minimize_script
             (script_fails ?only:config.only ~domains:config.domains
                ~compressed:config.compressed ~wcoj:config.wcoj
                ~extvp:config.extvp ~timeout:config.timeout)
             { Shrink.s_triples = triples; script }
         in
         let small_script =
           match roundtrip_script small.Shrink.script with
           | Some s -> s
           | None -> small.Shrink.script
         in
         let final_divs =
           match
             run_script_case ?only:config.only ~domains:config.domains
               ~compressed:config.compressed ~wcoj:config.wcoj
               ~extvp:config.extvp ~timeout:config.timeout
               small.Shrink.s_triples small_script
           with
           | Diverged ds -> ds
           | Agree | Skipped _ -> divs
         in
         let script_src = Sparql.Pp.script_to_string small.Shrink.script in
         config.log
           (Printf.sprintf "shrunk to %d triples, script:\n%s"
              (List.length small.Shrink.s_triples) script_src);
         write_repro i
           (Printf.sprintf "seed %d case %d (updates)" config.seed i
            :: divergence_lines final_divs)
           ~query_src:"" ~script_src:(Some script_src) small.Shrink.s_triples)
  in
  for i = 1 to config.cases do
    let triples, vocab = Gen_graph.generate st in
    if config.updates then fuzz_script_case i triples vocab
    else fuzz_query_case i triples vocab
  done;
  { cases_run = config.cases;
    skipped = !skipped;
    divergent = !divergent;
    repro_files = List.rev !repro_files }

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)
(* ------------------------------------------------------------------ *)

(** Replay one reproducer (query or update script); [Error lines] on
    any divergence. *)
let check_repro ?only ?domains ?compressed ?wcoj ?extvp ?(timeout = 5.0)
    (r : Repro.t) : (unit, string) result =
  match r.Repro.script_src with
  | Some src ->
    (match Sparql.Parser.parse_script src with
     | exception Sparql.Parser.Parse_error (msg, _) ->
       Error ("repro script does not parse: " ^ msg)
     | script ->
       (match
          run_script_case ?only ?domains ?compressed ?wcoj ?extvp ~timeout
            r.Repro.triples script
        with
        | Agree -> Ok ()
        | Skipped why -> Error ("repro skipped: " ^ why)
        | Diverged divs -> Error (String.concat "; " (divergence_lines divs))))
  | None ->
    (match Sparql.Parser.parse r.Repro.query_src with
     | exception Sparql.Parser.Parse_error (msg, _) ->
       Error ("repro query does not parse: " ^ msg)
     | q ->
       (match
          run_case ?only ?domains ?compressed ?wcoj ?extvp ~timeout
            r.Repro.triples q
        with
        | Agree -> Ok ()
        | Skipped why -> Error ("repro skipped: " ^ why)
        | Diverged divs -> Error (String.concat "; " (divergence_lines divs))))
