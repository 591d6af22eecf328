(** The query parse tree of the paper (Figure 7) and its ancestor
    machinery (Definitions 3.4–3.7, 3.9–3.11).

    The tree has AND, OR and OPTIONAL interior nodes and triple-pattern
    leaves. FILTER expressions are not nodes; each is attached to its
    enclosing AND node together with that node's scope. Basic graph
    patterns are spliced into their enclosing AND so that, as in the
    paper's example, [t1] is a direct child of the top-level AND. *)

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

let n_triples t = Array.length t.triples
let triple t id = t.triples.(id)
let kind t n = t.kinds.(n)
let parent t n = t.parents.(n)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable b_kinds : kind list;  (* reversed *)
  mutable b_parents : int list;  (* reversed *)
  mutable b_children : (int * int) list;  (* child, parent *)
  mutable b_count : int;
  mutable b_tps : tp list;  (* reversed *)
  mutable b_filters : (int * Ast.expr) list;
}

let new_node b kind parent =
  let id = b.b_count in
  b.b_kinds <- kind :: b.b_kinds;
  b.b_parents <- parent :: b.b_parents;
  if parent >= 0 then b.b_children <- (id, parent) :: b.b_children;
  b.b_count <- id + 1;
  id

let rec build b parent (p : Ast.pattern) : int =
  match p with
  | Ast.Bgp tps ->
    (* A lone BGP: one leaf, or an AND over its leaves. *)
    (match tps with
     | [ single ] -> build_leaf b parent single
     | _ ->
       let n = new_node b K_and parent in
       List.iter (fun tp -> ignore (build_leaf b n tp)) tps;
       n)
  | Ast.Group elements ->
    let n = new_node b K_and parent in
    List.iter
      (fun (e : Ast.pattern) ->
        match e with
        | Ast.Bgp tps -> List.iter (fun tp -> ignore (build_leaf b n tp)) tps
        | Ast.Filter expr -> b.b_filters <- (n, expr) :: b.b_filters
        | other -> ignore (build b n other))
      elements;
    n
  | Ast.Union parts ->
    let n = new_node b K_or parent in
    List.iter (fun p -> ignore (build b n p)) parts;
    n
  | Ast.Optional inner ->
    let n = new_node b K_opt parent in
    ignore (build b n inner);
    n
  | Ast.Filter expr ->
    (* A filter with no enclosing group: attach to parent (or to a
       synthetic AND when it is the whole query). *)
    if parent >= 0 then begin
      b.b_filters <- (parent, expr) :: b.b_filters;
      parent
    end
    else begin
      let n = new_node b K_and parent in
      b.b_filters <- (n, expr) :: b.b_filters;
      n
    end

and build_leaf b parent (pat : Ast.triple_pat) : int =
  let tp = { id = List.length b.b_tps; pat } in
  b.b_tps <- tp :: b.b_tps;
  new_node b (K_leaf tp) parent

(** Build the parse tree of a query's WHERE pattern. *)
let of_pattern (p : Ast.pattern) : t =
  let b =
    { b_kinds = []; b_parents = []; b_children = []; b_count = 0; b_tps = [];
      b_filters = [] }
  in
  (* Ensure the root is an interior node so leaf predicates have a
     well-defined enclosing pattern. *)
  let root =
    match p with
    | Ast.Group _ | Ast.Union _ -> build b (-1) p
    | _ ->
      let n = new_node b K_and (-1) in
      ignore (build b n p);
      n
  in
  let kinds = Array.of_list (List.rev b.b_kinds) in
  let parents = Array.of_list (List.rev b.b_parents) in
  (* A parent is created before its children, so ids are topological. *)
  let depths = Array.make (Array.length parents) 0 in
  Array.iteri (fun n p -> if p >= 0 then depths.(n) <- depths.(p) + 1) parents;
  (* [b_children] is in reverse creation order; prepending restores
     creation order per parent. *)
  let children = Array.make (Array.length kinds) [] in
  List.iter
    (fun (c, p) -> children.(p) <- c :: children.(p))
    b.b_children;
  let triples = Array.of_list (List.rev b.b_tps) in
  let leaf_node = Array.make (Array.length triples) (-1) in
  Array.iteri
    (fun n k -> match k with K_leaf tp -> leaf_node.(tp.id) <- n | _ -> ())
    kinds;
  { kinds; parents; depths; children; root; triples; leaf_node;
    filters = List.rev b.b_filters }

let of_query (q : Ast.query) : t = of_pattern q.where

(* ------------------------------------------------------------------ *)
(* Ancestor machinery                                                  *)
(* ------------------------------------------------------------------ *)

(** [↑*]: ancestors of a node, nearest first, excluding the node itself. *)
let ancestors t n =
  let rec go n acc =
    let p = t.parents.(n) in
    if p < 0 then List.rev acc else go p (p :: acc)
  in
  go n []

(** Depth of a node (root has depth 0). *)
let depth t n = t.depths.(n)

(* The walks below are top-level functions over the parent array so the
   predicates the optimizer calls per pair of triples allocate nothing. *)
let rec lift parents n d target =
  if d > target then lift parents parents.(n) (d - 1) target else n

let rec meet parents a b = if a = b then a else meet parents parents.(a) parents.(b)

(** Least common ancestor of two nodes (Definition 3.4). *)
let lca t a b =
  let da = t.depths.(a) and db = t.depths.(b) in
  let m = Int.min da db in
  meet t.parents (lift t.parents a da m) (lift t.parents b db m)

(** [↑↑ (p, p')] (Definition 3.5): the ancestors of [p] strictly below
    [LCA (p, p')], root side first. Empty when [p] is itself the LCA —
    in particular when [p = p']. *)
let up_to_lca t p p' =
  let stop = lca t p p' in
  let rec go n acc = if n = stop then acc else go t.parents.(n) (n :: acc) in
  if p = stop then [] else go t.parents.(p) []

(* Does every node from [n] up to (excluding) its ancestor [stop]
   satisfy [f]? *)
let rec walk_for_all t f n stop =
  n = stop || (f t.kinds.(n) && walk_for_all t f t.parents.(n) stop)

(* The same over [↑↑ (p, ·)], whose LCA is [stop]. *)
let path_for_all t f p stop = p = stop || walk_for_all t f t.parents.(p) stop

let is_and = function K_and -> true | K_or | K_opt | K_leaf _ -> false
let is_or = function K_or -> true | K_and | K_opt | K_leaf _ -> false
let is_opt = function K_opt -> true | K_and | K_or | K_leaf _ -> false
let not_opt k = not (is_opt k)

(** [∪ (t, t')] (Definition 3.6): the two triples' LCA is an OR. *)
let or_connected t ta tb =
  is_or t.kinds.(lca t t.leaf_node.(ta) t.leaf_node.(tb))

(** [∩ (t, t')] (Definition 3.7): [t'] is guarded by an OPTIONAL with
    respect to [t]. *)
let opt_connected t ta tb =
  let na = t.leaf_node.(ta) and nb = t.leaf_node.(tb) in
  not (path_for_all t not_opt nb (lca t na nb))

(* The LCA and every node of both paths up to it satisfy [f]. *)
let mergeable f t ta tb =
  let na = t.leaf_node.(ta) and nb = t.leaf_node.(tb) in
  let l = lca t na nb in
  f t.kinds.(l) && path_for_all t f na l && path_for_all t f nb l

(** Definition 3.9: the LCA and all intermediate ancestors of both
    triples are AND nodes. *)
let and_mergeable t ta tb = mergeable is_and t ta tb

(** Definition 3.10: the LCA and all intermediate ancestors are OR
    nodes. *)
let or_mergeable t ta tb = mergeable is_or t ta tb

(** Definition 3.11: as {!and_mergeable}, except the parent of the
    later (optional) triple [tb] is an OPTIONAL node. *)
let opt_mergeable t ta tb =
  let na = t.leaf_node.(ta) and nb = t.leaf_node.(tb) in
  let l = lca t na nb in
  is_and t.kinds.(l)
  && path_for_all t is_and na l
  && (* [↑↑ (tb, ta)] is non-empty; its node adjacent to [tb] is the
        OPTIONAL guard and everything above it, AND. *)
  nb <> l
  && (let g = t.parents.(nb) in
      g <> l && is_opt t.kinds.(g) && path_for_all t is_and g l)

(** The triple ids inside the subtree rooted at node [n]. *)
let triples_under t n =
  let acc = ref [] in
  let rec go n =
    match t.kinds.(n) with
    | K_leaf tp -> acc := tp.id :: !acc
    | K_and | K_or | K_opt -> List.iter go t.children.(n)
  in
  go n;
  List.rev !acc

(** Is triple [tid] inside (the scope of) any OPTIONAL node? *)
let in_optional t tid = not (path_for_all t not_opt t.leaf_node.(tid) (-1))

(* ------------------------------------------------------------------ *)
(* Debug printing                                                      *)
(* ------------------------------------------------------------------ *)

let rec pp_node t buf indent n =
  let pad = String.make indent ' ' in
  match t.kinds.(n) with
  | K_leaf tp ->
    Buffer.add_string buf
      (Printf.sprintf "%st%d: %s\n" pad tp.id (Pp.triple_pat_to_string tp.pat))
  | K_and ->
    Buffer.add_string buf (pad ^ "AND\n");
    List.iter (pp_node t buf (indent + 2)) t.children.(n)
  | K_or ->
    Buffer.add_string buf (pad ^ "OR\n");
    List.iter (pp_node t buf (indent + 2)) t.children.(n)
  | K_opt ->
    Buffer.add_string buf (pad ^ "OPTIONAL\n");
    List.iter (pp_node t buf (indent + 2)) t.children.(n)

let to_string t =
  let buf = Buffer.create 256 in
  pp_node t buf 0 t.root;
  Buffer.contents buf
