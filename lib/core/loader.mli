(** Insertion into the DB2RDF schema: predicate-to-column placement,
    spill rows, and multi-value (lid) indirection (Sections 2.1–2.2).

    A store owns the four relations, the direct and reverse predicate
    mappings, the dictionary, the statistics, and the bookkeeping the
    query translator needs: which predicates are multi-valued (need a
    DS/RS join) and which are involved in spills (veto star merging —
    Section 3.2.1). *)

type side = Direct | Reverse

(** Wall-clock summary of the last bulk {!load} call. [parse_s] is the
    caller-measured input-parsing time (0 for in-memory triple lists). *)
type load_stats = {
  triples_in : int;  (** input triples, duplicates included *)
  triples_new : int;  (** triples actually inserted after dedup *)
  parse_s : float;
  total_s : float;  (** parse + insertion *)
}

type t

(** Create an empty store. The predicate mappings default to the 2-hash
    composition over the layout's widths. *)
val create :
  ?layout:Layout.t ->
  ?direct_map:Pred_map.t ->
  ?reverse_map:Pred_map.t ->
  ?dict:Rdf.Dictionary.t ->
  unit ->
  t

val database : t -> Relsql.Database.t
val dictionary : t -> Rdf.Dictionary.t
val stats : t -> Dataset_stats.t
val triples_loaded : t -> int

(** Insert one triple into both sides of the store; duplicates are
    ignored (RDF graphs are sets). *)
val insert : t -> Rdf.Triple.t -> unit

(** Bulk load: {!insert} over every triple, in order. [parse_s] folds
    the caller's input-parsing time into the reported {!load_stats}. *)
val load : ?parse_s:float -> t -> Rdf.Triple.t list -> unit

(** Timings of the most recent {!load} (None before any load). *)
val last_load_stats : t -> load_stats option

(** Delete one triple (no-op when absent). Spill rows and registry
    entries are left in place — they only make the translator more
    conservative. *)
val delete : t -> Rdf.Triple.t -> unit

(** Candidate columns the translator must probe for a predicate on a
    side (never empty). *)
val candidate_columns : t -> side -> pred_term:Rdf.Term.t -> int list

(** Columns that actually hold data for a predicate on a side — the
    subset of its candidate columns a value was really written into
    (conservative after deletes: once used, a column stays listed).
    Empty when the predicate has never been stored on the side. When
    this is a single column, every row of the predicate is reachable
    through one [pred_i = id] conjunct — the eligibility test for the
    flat worst-case-optimal join form. *)
val storage_columns : t -> side -> pred_id:int -> int list

(** Has the predicate ever gone multi-valued on this side (so reads
    must join the secondary relation)? *)
val is_multivalued : t -> side -> pred_id:int -> bool

(** Is the predicate stored on any spill row (vetoes star merging)? *)
val is_spill_involved : t -> side -> pred_id:int -> bool

(** Pred/val pairs per row on a side. *)
val column_count : t -> side -> int

(** Predicate ids with any lid value on a side, sorted. *)
val multivalued_predicates : t -> side -> int list

(** Predicate ids stored on spill rows on a side, sorted. *)
val spill_predicates : t -> side -> int list

(** Canonical textual rendering of the whole store — dictionary in id
    order, every relation's rows in insertion order with row ids, both
    sides' registries and bookkeeping, the lid counter. Equal dumps ⇔
    bit-identical stores. *)
val dump_store : t -> string

(** Verify the store's structural invariants, on both sides:
    - every registered row id of an entity is live and carries that
      entity, and the entities own every live primary row exactly once;
    - every row's spill flag is 1 exactly when its entity owns more than
      one row, and the entity and spill-row counters match the registry;
    - pred and val cells are NULL together;
    - every lid cell in DPH/RPH is unique, allocated, and has DS/RS rows,
      and every DS/RS row's lid is referenced by a primary cell;
    - the DICT relation, when present, lists every dictionary id once
      with its term.
    Raises [Failure] naming the first violation. The DB2RDF tables
    satisfy it after every {!load}, {!insert} and {!delete}; DICT
    catches up when the engine syncs it at the end of each write. Costs
    a pass over every table. *)
val check : t -> unit

(** Section 2.3 reporting. *)
type side_report = {
  rows : int;
  spills : int;
  distinct_entities : int;
  null_fraction : float;
  storage_bytes : int;
}

val report : t -> side -> side_report
