(* Command line of the benchmark; see README.md. Prints a header, a
   workload-property report and determinism counters, and as its last
   line the result object. Exits 0 whenever that object was printed
   (its "correct" field carries the verdict). *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rev = ref "unknown" in
  let names = String.concat ", " (List.map (fun w -> w.Perfbench.Streams.name) Perfbench.Streams.workloads) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  one of " ^ names);
      ("--seed", Arg.Set_int seed, "N  request-stream seed");
      ("--seconds", Arg.Set_int seconds, "N  measured seconds the fixed work is sized for");
      ("--trace", Arg.Set_int trace, "0|1  1 = per-layer run (untraced pass + traced replay)");
      ("--rev", Arg.Set_string rev, "REV  source revision recorded in the header") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds N --trace 0|1";
  match Perfbench.Streams.find !workload with
  | None ->
    prerr_endline ("perfbench: unknown workload '" ^ !workload ^ "' (expected " ^ names ^ ")");
    exit 2
  | Some w ->
    Perfbench.Runner.run
      (Perfbench.Runner.config ~rev:!rev w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
