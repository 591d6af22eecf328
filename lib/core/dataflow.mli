(** The Data Flow Builder (Section 3.1.1): produced/required variables
    (Definitions 3.2/3.3), the data flow graph (Definition 3.8) and the
    greedy optimal flow tree (Figure 9). *)

type node = { triple : int; meth : Cost.access }

(** The data flow graph of Definition 3.8, kept implicit: per-node
    arrays indexed by [3 * triple + method] (methods ordered
    [Sc], [Acs], [Aco]) and one table of allowed flows between triples.
    Use {!has_edge} to query it. *)
type graph

(** Variables required to be bound before a (triple, method) access
    (Definition 3.3). *)
val required : Sparql.Ast.triple_pat -> Cost.access -> Sparql.Ast.VarSet.t

(** Variables bound after the access (Definition 3.2). *)
val produced : Sparql.Ast.triple_pat -> Cost.access -> Sparql.Ast.VarSet.t

(** Build the weighted data flow graph in O(n²) for n triples; edge
    weight is the target node's TMC. Edges are suppressed between
    OR-connected triples and out of OPTIONAL scopes (Definition 3.8). *)
val build : Sparql.Pattern_tree.t -> Dataset_stats.t -> Rdf.Dictionary.t -> graph

(** [has_edge g src dst]: is there an edge from [src] ([None] is the
    root) to [dst]? A node that requires no variable is fed by the root
    only. *)
val has_edge : graph -> node option -> node -> bool

(** Node id [3 * triple + method] and back. *)
val id_of_node : node -> int

val node_of_id : int -> node

type flow = {
  order : node list;  (** one chosen node per triple, insertion order *)
  method_of : Cost.access array;  (** triple -> chosen method *)
  pos_of : int array;  (** triple -> insertion position *)
  parent_of : node option array;  (** triple -> flow parent node *)
}

(** [Best] is the paper's greedy (Figure 9), taking the first reachable
    edge in (weight, target, source) order with the root before any
    node; [Worst] takes the last reachable indexed edge in that order,
    else the first scan edge — the deliberately sub-optimal flow used by
    the naive-translation baseline and the Figure 14 experiment. *)
type objective = Best | Worst

val optimal_flow : ?objective:objective -> Sparql.Pattern_tree.t -> graph -> flow

(** Graph + flow in one step. *)
val compute :
  ?objective:objective ->
  Sparql.Pattern_tree.t ->
  Dataset_stats.t ->
  Rdf.Dictionary.t ->
  graph * flow

val node_to_string : Sparql.Pattern_tree.t -> node -> string
val flow_to_string : Sparql.Pattern_tree.t -> flow -> string
