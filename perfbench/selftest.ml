(* Self-test of the benchmark at a tiny scale: a wrong expected answer
   is counted as a failure; the same seed run twice reports identical
   counters; another seed gives another stream over the same dataset;
   and the traced replay answers exactly like the untraced pass (the
   run's "correct" covers that). *)

open Perfbench

let check what ok =
  if not ok then begin
    prerr_endline ("perfbench selftest FAILED: " ^ what);
    exit 1
  end

let wrong_digest_is_a_failure () =
  let w = Option.get (Streams.find "lubm-lookup") in
  let triples = Streams.generate_dataset w ~scale:3000 in
  let s = Streams.make w triples ~seed:5 ~n_ops:40 ~n_warmup:0 in
  let expected = Oracle.compute triples s.Streams.measured in
  let e, _, _ = Db2rdf.Engine.create_colored ~options:w.Streams.options triples in
  let pass digests =
    Runner.run_pass ~engine:e ~wrap:Runner.direct ~read:(Runner.untraced_read e)
      ~write:(Runner.untraced_write e) ~after_read:ignore s.Streams.measured digests
  in
  check "correct digests pass" ((pass expected.Oracle.digests).Runner.failed = 0);
  let tampered = Array.copy expected.Oracle.digests in
  tampered.(7) <- { (tampered.(7)) with Rowdigest.rows = tampered.(7).Rowdigest.rows + 1 };
  let p = pass tampered in
  check "a wrong expected digest counts as one failure" (p.Runner.failed = 1 && p.Runner.mismatches = 1)

type spec = { workload : string; scale : int; ops : int; seed : int; trace : bool }

(* Small-size benchmark runs, each in a process of its own, returning
   the lines each run emits. Every run is forked from one process that
   does nothing else, so every run starts from the same heap, as a
   fresh process would, and its heap counters can be compared. *)
let run_all specs =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    List.iter
      (fun sp ->
        match Unix.fork () with
        | 0 ->
          let w = Option.get (Streams.find sp.workload) in
          let cfg =
            Runner.config ~scale:sp.scale ~ops:sp.ops ~trace_dir:"." w
              ~seed:sp.seed ~seconds:1 ~trace:sp.trace
          in
          let lines = ref [] in
          Runner.run ~emit:(fun l -> lines := l :: !lines) cfg;
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc (List.rev !lines : string list) [];
          flush oc;
          Unix._exit 0
        | pid -> ignore (Unix.waitpid [] pid))
      specs;
    Unix._exit 0
  | zygote ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let out =
      List.map
        (fun sp ->
          match (Marshal.from_channel ic : string list) with
          | lines -> lines
          | exception End_of_file -> check (sp.workload ^ " run died") false; [])
        specs
    in
    close_in ic;
    ignore (Unix.waitpid [] zygote);
    out

let field prefix out =
  match List.find_opt (String.starts_with ~prefix) out with
  | Some l -> String.sub l (String.length prefix) (String.length l - String.length prefix)
  | None -> check ("missing line " ^ prefix) false; ""

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Per workload and mode: seed 11 twice, then seed 12. *)
let cases = [ ("lubm-lookup", 3000, 300); ("dbpedia-analytic", 3000, 200); ("lubm-mixed-rw", 3000, 400) ]

let determinism () =
  let specs =
    List.concat_map
      (fun (workload, scale, ops) ->
        List.concat_map
          (fun trace -> List.map (fun seed -> { workload; scale; ops; seed; trace }) [ 11; 11; 12 ])
          [ false; true ])
      cases
  in
  let rec check_triples specs outs =
    match specs, outs with
    | sp :: _ :: _ :: specs, a :: b :: c :: outs ->
      let result out = List.nth out (List.length out - 1) in
      List.iter
        (fun out -> check (sp.workload ^ " run is correct") (contains (result out) "\"correct\": true"))
        [ a; b; c ];
      let ca = field "perfbench counters: " a and cb = field "perfbench counters: " b in
      check (Printf.sprintf "%s same seed, same counters:\n  %s\n  %s" sp.workload ca cb) (ca = cb);
      let stream out = field "perfbench header: " out in
      check (sp.workload ^ " another seed, another stream") (stream a <> stream c);
      check_triples specs outs
    | _ -> ()
  in
  check_triples specs (run_all specs)

let () =
  determinism ();
  wrong_digest_is_a_failure ();
  print_endline "perfbench selftest: ok"
