(** Expected answers from the reference store ({!Db2rdf.Native_store},
    the [Sparql.Ref_eval] evaluator over an {!Rdf.Graph}), computed
    outside timing and in a child process, so neither the oracle's
    time nor its heap shows in the measured process. *)

open Sparql.Ast

(* The reference evaluator joins a basic graph pattern in written order,
   which for templates such as LQ1 ([?x type T . ?x takesCourse <c>])
   enumerates a whole class before reaching the selective constant.
   Reordering a BGP never changes its answer multiset, so the oracle
   evaluates each BGP greedily, cheapest estimated pattern first: a bound
   subject costs 1, a constant object its frequency, an object bound by
   an earlier pattern 10, a constant predicate its frequency. Ties keep
   the written order. *)
type freqs = { obj : (Rdf.Term.t, int) Hashtbl.t; pred : (Rdf.Term.t, int) Hashtbl.t; total : int }

let freqs triples =
  let obj = Hashtbl.create 65536 and pred = Hashtbl.create 256 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.iter (fun (t : Rdf.Triple.t) -> bump obj t.Rdf.Triple.o; bump pred t.Rdf.Triple.p) triples;
  { obj; pred; total = List.length triples }

let reorder_bgp f tps =
  let freq tbl t = Option.value ~default:0 (Hashtbl.find_opt tbl t) in
  let cost vars tp =
    let by_var = function Var v -> List.mem v vars | Term _ -> false in
    match tp.tp_s, tp.tp_p, tp.tp_o with
    | Term _, _, _ -> 1
    | s, _, _ when by_var s -> 1
    | _, _, Term o -> freq f.obj o
    | _, _, o when by_var o -> 10
    | _, Term p, _ -> freq f.pred p
    | _ -> f.total
  in
  let rec go vars acc = function
    | [] -> List.rev acc
    | first :: _ as rest ->
      let tp =
        List.fold_left (fun best tp -> if cost vars tp < cost vars best then tp else best) first rest
      in
      go (triple_pat_vars tp @ vars) (tp :: acc) (List.filter (fun x -> x != tp) rest)
  in
  go [] [] tps

let rec reorder f = function
  | Bgp tps -> Bgp (reorder_bgp f tps)
  | Group ps -> Group (List.map (reorder f) ps)
  | Union ps -> Union (List.map (reorder f) ps)
  | Optional p -> Optional (reorder f p)
  | Filter e -> Filter e

type expected = {
  digests : Rowdigest.t array;  (** per measured request *)
  final : Rowdigest.t;  (** every triple after the stream *)
  live_triples : int;
}

(** The full-store query whose answer is compared with [final]. *)
let dump_query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

(** Replay the stream on the reference store: reads are answered (and
    memoized by text until the next write), writes applied with
    [Ref_eval.apply_update]. *)
let compute triples (ops : Streams.op array) =
  let g = Rdf.Graph.create () in
  List.iter (Rdf.Graph.add g) triples;
  let store = Db2rdf.Native_store.of_graph g in
  let f = freqs triples in
  let memo = Hashtbl.create 4096 in
  let digests = Array.make (Array.length ops) Rowdigest.none in
  Array.iteri
    (fun i -> function
      | Streams.Read { text; _ } ->
        digests.(i) <-
          (match Hashtbl.find_opt memo text with
           | Some d -> d
           | None ->
             let q = Sparql.Parser.parse text in
             let d =
               Rowdigest.of_results (Rowdigest.shape_of q)
                 (Db2rdf.Native_store.query store { q with where = reorder f q.where })
             in
             Hashtbl.add memo text d;
             d)
      | Streams.Write { stmts; _ } ->
        Hashtbl.reset memo;
        List.iter
          (fun s -> Sparql.Ref_eval.apply_update g (Sparql.Parser.parse_update s))
          stmts)
    ops;
  let rows = ref [] in
  Rdf.Graph.iter_triples
    (fun t -> rows := [ Some t.Rdf.Triple.s; Some t.Rdf.Triple.p; Some t.Rdf.Triple.o ] :: !rows)
    g;
  { digests; final = Rowdigest.of_rows !rows; live_triples = Rdf.Graph.size g }

(** Run [f] in a forked child and return its result. Must be called
    before any domain is spawned. The caller's garbage is collected
    first, so the child does not inherit it into its heap peak. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  Gc.compact ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r : ('a, string) result =
      try Marshal.from_channel ic with End_of_file -> Error "the child process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match r with Ok v -> v | Error msg -> failwith ("perfbench child: " ^ msg)
