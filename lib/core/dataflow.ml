(** The Data Flow Builder (Section 3.1.1): produced/required variables
    (Definitions 3.2/3.3), the data flow graph (Definition 3.8) and the
    greedy optimal flow tree (Figure 9).

    Nodes are (triple, access-method) pairs plus a distinguished root.
    An edge [(t,m) -> (t',m')] means evaluating [t] with [m] binds every
    variable [t'] requires under [m'], and is suppressed when the two
    triples are OR-connected or when the source is OPTIONAL-guarded with
    respect to the target (bindings may not flow out of an OPTIONAL into
    its mandatory context). A node that requires nothing is fed by the
    root only.

    The graph is kept implicit: per-node arrays (indexed by
    [3 * triple + method]) plus one triple-by-triple table of allowed
    flows, with variables numbered per query, so building it and running
    the greedy are both O(n²) in the number of triples. *)

module VarSet = Sparql.Ast.VarSet
module PT = Sparql.Pattern_tree

type node = { triple : int; meth : Cost.access }

type graph = {
  n : int;  (** triples; nodes are [0 .. 3n-1] *)
  cost : float array;  (** node -> TMC, the weight of every edge into it *)
  req : int array;  (** node -> the one variable it requires, or -1 *)
  vars : int array;  (** [3t], [3t+1], [3t+2] -> variable at triple t's s, p, o, or -1 *)
  flows : Bytes.t;  (** [s * n + d] is ['\001'] iff bindings may flow from triple s to d *)
}

(** Variables required to be bound before a (triple, method) access
    (Definition 3.3). *)
let required (tp : Sparql.Ast.triple_pat) (m : Cost.access) : VarSet.t =
  match m with
  | Cost.Sc -> VarSet.empty
  | Cost.Acs ->
    (match tp.tp_s with
     | Sparql.Ast.Var v -> VarSet.singleton v
     | Sparql.Ast.Term _ -> VarSet.empty)
  | Cost.Aco ->
    (match tp.tp_o with
     | Sparql.Ast.Var v -> VarSet.singleton v
     | Sparql.Ast.Term _ -> VarSet.empty)

(** Variables bound after the access (Definition 3.2): the pattern's
    variables minus the ones the access consumed. *)
let produced (tp : Sparql.Ast.triple_pat) (m : Cost.access) : VarSet.t =
  VarSet.diff
    (VarSet.of_list (Sparql.Ast.triple_pat_vars tp))
    (required tp m)

(* Node ids order nodes by (triple, method), methods as Sc < Acs < Aco —
   the tie-break order of equal-weight edges. *)
let meth_of_int = function 0 -> Cost.Sc | 1 -> Cost.Acs | _ -> Cost.Aco
let node_of_id i = { triple = i / 3; meth = meth_of_int (i mod 3) }
let id_of_node nd =
  (3 * nd.triple) + match nd.meth with Cost.Sc -> 0 | Cost.Acs -> 1 | Cost.Aco -> 2

(** Build the data flow graph for a parse tree: each node's TMC and
    required variable once, and the allowed flows between triples. *)
let build (pt : PT.t) (stats : Dataset_stats.t)
    (dict : Rdf.Dictionary.t) : graph =
  let n = PT.n_triples pt in
  let pat i = (PT.triple pt (i / 3)).PT.pat and meth i = meth_of_int (i mod 3) in
  let cost = Array.init (3 * n) (fun i -> Cost.tmc stats dict (pat i) (meth i)) in
  let ids = Hashtbl.create 8 in
  let var_id = function
    | Sparql.Ast.Term _ -> -1
    | Sparql.Ast.Var v ->
      (match Hashtbl.find_opt ids v with
       | Some id -> id
       | None -> Hashtbl.add ids v (Hashtbl.length ids); Hashtbl.length ids - 1)
  in
  let vars = Array.init (3 * n) (fun i ->
      let tp = pat i in
      var_id (match i mod 3 with 0 -> tp.tp_s | 1 -> tp.tp_p | _ -> tp.tp_o)) in
  (* Definition 3.3: Acs requires the subject, Aco the object. *)
  let req = Array.init (3 * n) (fun i ->
      match i mod 3 with 0 -> -1 | 1 -> vars.(i - 1) | _ -> vars.(i)) in
  let flows = Bytes.init (n * n) (fun i ->
      let s = i / n and d = i mod n in
      if s <> d && (not (PT.or_connected pt s d)) && not (PT.opt_connected pt d s)
      then '\001' else '\000') in
  { n; cost; req; vars; flows }

(* Node [d] is fed by the root: it requires nothing. *)
let root_fed g d = g.req.(d) < 0

(* An edge between two nodes (never into a root-fed node): [s] produces
   (Definition 3.2) the variable [d] requires. *)
let edge g s d =
  let v = g.req.(d) and t = s - (s mod 3) in
  v >= 0 && v <> g.req.(s)
  && (g.vars.(t) = v || g.vars.(t + 1) = v || g.vars.(t + 2) = v)
  && Bytes.unsafe_get g.flows ((s / 3 * g.n) + (d / 3)) = '\001'

let has_edge g src dst =
  let d = id_of_node dst in
  match src with None -> root_fed g d | Some s -> edge g (id_of_node s) d

(* ------------------------------------------------------------------ *)
(* Optimal flow tree                                                   *)
(* ------------------------------------------------------------------ *)

type flow = {
  order : node list;  (** nodes in insertion order, one per triple *)
  method_of : Cost.access array;  (** triple -> chosen method *)
  pos_of : int array;  (** triple -> insertion position *)
  parent_of : node option array;  (** triple -> flow parent node *)
}

type objective = Best | Worst

(* Weight, then node id: the order of edges into distinct nodes. *)
let before g a b =
  let c = Float.compare g.cost.(a) g.cost.(b) in
  c < 0 || (c = 0 && a < b)

(** The greedy algorithm of Figure 9: repeatedly add the first edge, in
    (weight, target, source) order with the root before any node, from
    the tree (or the root) to a triple not yet covered. [Worst] takes the
    last indexed edge in that order, else the first scan edge: the
    realistic bad plan of a naive translator (it still uses indexes but
    starts from the wrong end — Figure 14(c)), used by the
    naive-translation baseline and the Figure 14 experiment. Every triple
    has a root scan edge, so the greedy never gets stuck. Per uncovered
    node, [lo]/[hi] track the smallest/largest tree node with an edge
    into it, so a step is one pass over the nodes. *)
let optimal_flow ?(objective = Best) (pt : PT.t) (g : graph) : flow =
  let n = PT.n_triples pt in
  let method_of = Array.make n Cost.Sc in
  let pos_of = Array.make n (-1) in (* -1: not yet covered *)
  let parent_of = Array.make n None in
  let lo = Array.make (3 * n) max_int and hi = Array.make (3 * n) (-1) in
  let order = ref [] in
  for step = 0 to n - 1 do
    (* Best: the first reachable node. Worst: the last reachable indexed
       node, else the first scan. *)
    let pick = ref (-1) and scan = ref (-1) in
    for d = 0 to (3 * n) - 1 do
      if pos_of.(d / 3) < 0 && (root_fed g d || hi.(d) >= 0) then
        match objective with
        | Best -> if !pick < 0 || before g d !pick then pick := d
        | Worst when d mod 3 = 0 -> if !scan < 0 || before g d !scan then scan := d
        | Worst -> if !pick < 0 || before g !pick d then pick := d
    done;
    let d = if !pick < 0 then !scan else !pick in
    let src =
      if root_fed g d then None
      else Some (node_of_id (match objective with Best -> lo.(d) | Worst -> hi.(d)))
    in
    let nd = node_of_id d in
    method_of.(nd.triple) <- nd.meth;
    pos_of.(nd.triple) <- step;
    parent_of.(nd.triple) <- src;
    order := nd :: !order;
    for d' = 0 to (3 * n) - 1 do
      if pos_of.(d' / 3) < 0 && edge g d d' then begin
        if d < lo.(d') then lo.(d') <- d;
        if d > hi.(d') then hi.(d') <- d
      end
    done
  done;
  { order = List.rev !order; method_of; pos_of; parent_of }

(** Convenience: graph + flow in one step. *)
let compute ?objective pt stats dict =
  let g = build pt stats dict in
  (g, optimal_flow ?objective pt g)

let node_to_string pt nd =
  Printf.sprintf "(t%d:%s, %s)" nd.triple
    (Sparql.Pp.triple_pat_to_string (PT.triple pt nd.triple).PT.pat)
    (Cost.access_to_string nd.meth)

let flow_to_string pt flow =
  String.concat " -> " (List.map (node_to_string pt) flow.order)
