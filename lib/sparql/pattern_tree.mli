(** The query parse tree of the paper (Figure 7) and its ancestor
    machinery (Definitions 3.4–3.7, 3.9–3.11).

    The tree has AND, OR and OPTIONAL interior nodes and triple-pattern
    leaves; FILTER expressions attach to their enclosing AND node.
    Nodes and triples are addressed by dense integer ids. *)

type tp = { id : int; pat : Ast.triple_pat }

type kind =
  | K_and
  | K_or
  | K_opt
  | K_leaf of tp

type t = {
  kinds : kind array;  (** node id -> kind *)
  parents : int array;  (** node id -> parent node id; root's is -1 *)
  depths : int array;  (** node id -> depth; the root's is 0 *)
  children : int list array;
  root : int;
  triples : tp array;  (** triple id -> leaf tp *)
  leaf_node : int array;  (** triple id -> node id of its leaf *)
  filters : (int * Ast.expr) list;  (** (enclosing AND node, expression) *)
}

val n_triples : t -> int
val triple : t -> int -> tp
val kind : t -> int -> kind
val parent : t -> int -> int

val of_pattern : Ast.pattern -> t
val of_query : Ast.query -> t

(** [↑*]: ancestors of a node, nearest first, excluding the node. *)
val ancestors : t -> int -> int list

val depth : t -> int -> int

(** Least common ancestor (Definition 3.4). *)
val lca : t -> int -> int -> int

(** [↑↑ (p, p')]: ancestors of [p] strictly below [LCA (p, p')]
    (Definition 3.5), root side first; empty when [p] is the LCA, e.g.
    when [p = p']. The connectivity and mergeability predicates below
    walk the same paths without allocating, and are all false for equal
    arguments. *)
val up_to_lca : t -> int -> int -> int list

(** [∪ (t, t')] (Definition 3.6): the triples' LCA is an OR. *)
val or_connected : t -> int -> int -> bool

(** [∩ (t, t')] (Definition 3.7): [t'] is OPTIONAL-guarded w.r.t. [t]. *)
val opt_connected : t -> int -> int -> bool

(** Definition 3.9. *)
val and_mergeable : t -> int -> int -> bool

(** Definition 3.10. *)
val or_mergeable : t -> int -> int -> bool

(** Definition 3.11 ([tb] is the optional member). *)
val opt_mergeable : t -> int -> int -> bool

(** Triple ids inside the subtree rooted at a node. *)
val triples_under : t -> int -> int list

(** Is the triple inside (the scope of) any OPTIONAL node? *)
val in_optional : t -> int -> bool

val to_string : t -> string
