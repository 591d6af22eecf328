(** Insertion into the DB2RDF schema: predicate-to-column placement,
    spill rows, and multi-value (lid) indirection (Sections 2.1–2.2).

    A {!store} owns the four relations, the direct and reverse predicate
    mappings, the dictionary, the statistics, and the bookkeeping the
    query translator needs: which predicates are multi-valued (need a
    DS/RS join) and which are involved in spills (veto star merging —
    Section 3.2.1). *)

module IntTbl = Dataset_stats.IntTbl

type side = Direct | Reverse

(** Per-side state: the primary and secondary tables plus registries. *)
type side_state = {
  primary : Relsql.Table.t;
  secondary : Relsql.Table.t;
  pos : Layout.positions;
  k : int;
  pred_map : Pred_map.t;
  entity_rows : int list ref IntTbl.t;  (** entity id -> primary row ids, oldest first *)
  multivalued : unit IntTbl.t;  (** predicate ids with any lid value *)
  spill_preds : unit IntTbl.t;  (** predicate ids stored on spill rows *)
  placed : unit IntTbl.t IntTbl.t;
      (** predicate id -> columns that ever held it (conservative after
          deletes; always a subset of the candidate columns) *)
  mutable spill_rows : int;  (** rows beyond the first of some entity *)
  mutable entities : int;
}

(** Wall-clock summary of the last bulk {!load} call. [parse_s] is the
    caller-measured input-parsing time (0 for in-memory triple lists). *)
type load_stats = {
  triples_in : int;  (** input triples, duplicates included *)
  triples_new : int;  (** triples actually inserted after dedup *)
  parse_s : float;
  total_s : float;  (** parse + insertion *)
}

type t = {
  db : Relsql.Database.t;
  dict : Rdf.Dictionary.t;
  layout : Layout.t;
  direct : side_state;
  reverse : side_state;
  stats : Dataset_stats.t;
  seen : (int * int * int, unit) Hashtbl.t;
      (* RDF graphs are sets: duplicate triples are ignored *)
  mutable next_lid : int;
  mutable triples_loaded : int;
  mutable last_load : load_stats option;
}

let database t = t.db
let dictionary t = t.dict
let stats t = t.stats
let triples_loaded t = t.triples_loaded
let last_load_stats t = t.last_load

let side t = function Direct -> t.direct | Reverse -> t.reverse

(** Predicate URI string used by the mapping functions (hashing operates
    on the string value of the URI, Definition 2.1). *)
let pred_uri = function
  | Rdf.Term.Iri s -> s
  | other -> Rdf.Term.to_string other

let make_side primary secondary k pred_map =
  if Pred_map.arity pred_map <> k then
    invalid_arg "Loader: predicate map arity does not match layout";
  {
    primary;
    secondary;
    pos = Layout.positions (Relsql.Table.schema primary) k;
    k;
    pred_map;
    entity_rows = IntTbl.create 4096;
    multivalued = IntTbl.create 64;
    spill_preds = IntTbl.create 64;
    placed = IntTbl.create 64;
    spill_rows = 0;
    entities = 0;
  }

(** Create an empty store. [direct_map]/[reverse_map] default to the
    2-hash composition over the layout's widths. *)
let create ?(layout = Layout.default) ?direct_map ?reverse_map ?dict () =
  let db = Relsql.Database.create "db2rdf" in
  let dph, ds, rph, rs = Layout.create_tables db layout in
  let dict = match dict with Some d -> d | None -> Rdf.Dictionary.create () in
  let dmap =
    match direct_map with
    | Some m -> m
    | None -> Pred_map.hashed_family ~m:layout.Layout.dph_cols ~n:2
  in
  let rmap =
    match reverse_map with
    | Some m -> m
    | None -> Pred_map.hashed_family ~m:layout.Layout.rph_cols ~n:2
  in
  {
    db;
    dict;
    layout;
    direct = make_side dph ds layout.Layout.dph_cols dmap;
    reverse = make_side rph rs layout.Layout.rph_cols rmap;
    stats = Dataset_stats.create ();
    seen = Hashtbl.create 4096;
    next_lid = 0;
    triples_loaded = 0;
    last_load = None;
  }

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

let record_placed st ~pred_id c =
  let cols =
    match IntTbl.find_opt st.placed pred_id with
    | Some s -> s
    | None ->
      let s = IntTbl.create 4 in
      IntTbl.add st.placed pred_id s;
      s
  in
  IntTbl.replace cols c ()

let fresh_row st entity_id =
  let arity = Relsql.Schema.arity (Relsql.Table.schema st.primary) in
  let row = Array.make arity Relsql.Value.Null in
  row.(st.pos.entry_pos) <- Relsql.Value.Int entity_id;
  row.(st.pos.spill_pos) <- Relsql.Value.Int 0;
  Relsql.Table.insert st.primary row

(* Write one primary cell through {!Relsql.Table.set_cell}, adopting
   any relocation: under delta-main storage a write to a row of the
   packed main returns a fresh rid (the old slot is tombstoned), and
   the entity's row list must follow it — substituted in place, so the
   head keeps identifying the entity's first (non-spill) row. Returns
   the row's current rid. *)
let set_primary st rows rid pos v =
  let rid' = Relsql.Table.set_cell st.primary rid pos v in
  if rid' <> rid then
    rows := List.map (fun r -> if r = rid then rid' else r) !rows;
  rid'

(** Insert (entity, predicate, value) into one side. Implements the
    insertion procedure of Section 2.2: probe the candidate columns of
    every existing row of the entity; extend multi-values through the
    secondary table; spill into a fresh row when all candidates
    conflict. Returns the lid allocator state through [store]. *)
let insert_side store st ~entity ~pred_id ~pred_str ~value =
  let rows =
    match IntTbl.find_opt st.entity_rows entity with
    | Some r -> r
    | None ->
      st.entities <- st.entities + 1;
      let r = ref [ fresh_row st entity ] in
      IntTbl.add st.entity_rows entity r;
      r
  in
  let cands = Pred_map.candidates st.pred_map pred_str in
  let cands = if cands = [] then [ 0 ] else cands in
  let pred_val = Relsql.Value.Int pred_id in
  (* Pass 1: is the predicate already placed somewhere for this entity? *)
  let existing =
    List.find_map
      (fun rid ->
        List.find_map
          (fun c ->
            if Relsql.Table.cell st.primary rid st.pos.pred_pos.(c) = pred_val
            then Some (rid, c)
            else None)
          cands)
      !rows
  in
  match existing with
  | Some (rid, c) ->
    (* Multi-valued: push the value into the secondary table. *)
    IntTbl.replace st.multivalued pred_id ();
    let vpos = st.pos.val_pos.(c) in
    (match Relsql.Table.cell st.primary rid vpos with
     | Relsql.Value.Lid lid ->
       ignore
         (Relsql.Table.insert st.secondary [| Relsql.Value.Lid lid; value |])
     | old ->
       let lid = store.next_lid in
       store.next_lid <- lid + 1;
       ignore (set_primary st rows rid vpos (Relsql.Value.Lid lid));
       ignore (Relsql.Table.insert st.secondary [| Relsql.Value.Lid lid; old |]);
       ignore (Relsql.Table.insert st.secondary [| Relsql.Value.Lid lid; value |]))
  | None ->
    (* Pass 2: first free candidate column on any existing row. *)
    let free =
      List.find_map
        (fun rid ->
          List.find_map
            (fun c ->
              if
                Relsql.Value.is_null
                  (Relsql.Table.cell st.primary rid st.pos.pred_pos.(c))
              then Some (rid, c)
              else None)
            cands)
        !rows
    in
    (match free with
     | Some (rid, c) ->
       let rid = set_primary st rows rid st.pos.pred_pos.(c) pred_val in
       ignore (set_primary st rows rid st.pos.val_pos.(c) value);
       record_placed st ~pred_id c;
       (* If this cell lives on a spill row, the predicate is spill-
          involved for merging purposes. *)
       if rid <> List.hd !rows then IntTbl.replace st.spill_preds pred_id ()
     | None ->
       (* Spill: new row for the entity; mark every row of the entity. *)
       let rid = fresh_row st entity in
       st.spill_rows <- st.spill_rows + 1;
       List.iter
         (fun r ->
           ignore
             (set_primary st rows r st.pos.spill_pos (Relsql.Value.Int 1)))
         (rid :: !rows);
       rows := !rows @ [ rid ];
       let c = List.hd cands in
       let rid = set_primary st rows rid st.pos.pred_pos.(c) pred_val in
       ignore (set_primary st rows rid st.pos.val_pos.(c) value);
       record_placed st ~pred_id c;
       IntTbl.replace st.spill_preds pred_id ())

(** Insert one triple into both sides of the store. Duplicate triples
    are ignored (RDF graphs are sets). *)
let insert t (tr : Rdf.Triple.t) =
  let s = Rdf.Dictionary.id_of t.dict tr.s in
  let p = Rdf.Dictionary.id_of t.dict tr.p in
  let o = Rdf.Dictionary.id_of t.dict tr.o in
  if Hashtbl.mem t.seen (s, p, o) then ()
  else begin
  Hashtbl.add t.seen (s, p, o) ();
  let pred_str = pred_uri tr.p in
  insert_side t t.direct ~entity:s ~pred_id:p ~pred_str ~value:(Relsql.Value.Int o);
  insert_side t t.reverse ~entity:o ~pred_id:p ~pred_str ~value:(Relsql.Value.Int s);
  Dataset_stats.record t.stats ~s ~p ~o;
  t.triples_loaded <- t.triples_loaded + 1
  end

(** Bulk load: the insertion procedure of {!insert}, triple by triple.
    [parse_s] lets callers fold the time they spent parsing the input
    into the reported {!load_stats}. *)
let load ?(parse_s = 0.0) t triples =
  let t0 = Unix.gettimeofday () in
  let before = t.triples_loaded in
  List.iter (insert t) triples;
  let dt = Unix.gettimeofday () -. t0 in
  t.last_load <-
    Some
      { triples_in = List.length triples;
        triples_new = t.triples_loaded - before; parse_s;
        total_s = parse_s +. dt }

(* Locate the (row, candidate column) currently holding [pred_id] for an
   entity; the insertion procedure guarantees at most one. *)
let find_placement st ~entity ~pred_id =
  match IntTbl.find_opt st.entity_rows entity with
  | None -> None
  | Some rows ->
    let cands =
      (* Any candidate list the mapping may have used; we must check all
         columns because the predicate string is not available here —
         scanning the (few) pairs of the entity's rows is exact. *)
      List.init st.k (fun c -> c)
    in
    List.find_map
      (fun rid ->
        List.find_map
          (fun c ->
            if
              Relsql.Table.cell st.primary rid st.pos.pred_pos.(c)
              = Relsql.Value.Int pred_id
            then Some (rid, c)
            else None)
          cands)
      !rows

let delete_side st ~entity ~pred_id ~value =
  match find_placement st ~entity ~pred_id with
  | None -> ()
  | Some (rid, c) ->
    (* [find_placement] only returns rows reached through
       [entity_rows], so the list ref is present. *)
    let rows = IntTbl.find st.entity_rows entity in
    let vpos = st.pos.val_pos.(c) in
    let clear_pair rid =
      let rid = set_primary st rows rid st.pos.pred_pos.(c) Relsql.Value.Null in
      ignore (set_primary st rows rid vpos Relsql.Value.Null)
    in
    (match Relsql.Table.cell st.primary rid vpos with
     | Relsql.Value.Lid lid ->
       (* Remove one matching element from the secondary relation; when
          the list empties, clear the primary cell pair. *)
       let rids = Relsql.Table.lookup st.secondary 0 (Relsql.Value.Lid lid) in
       (match
          Array.find_opt
            (fun r -> Relsql.Table.cell st.secondary r 1 = value)
            rids
        with
        | Some r -> Relsql.Table.delete_row st.secondary r
        | None -> ());
       if Relsql.Table.lookup st.secondary 0 (Relsql.Value.Lid lid) = [||] then
         clear_pair rid
     | v when v = value -> clear_pair rid
     | _ -> () (* value mismatch: the triple is not in the store *))

(** Delete one triple (no-op when absent). Spill rows and registry
    entries are left in place — they only make the translator more
    conservative. *)
let delete t (tr : Rdf.Triple.t) =
  match
    ( Rdf.Dictionary.find t.dict tr.s,
      Rdf.Dictionary.find t.dict tr.p,
      Rdf.Dictionary.find t.dict tr.o )
  with
  | Some s, Some p, Some o when Hashtbl.mem t.seen (s, p, o) ->
    Hashtbl.remove t.seen (s, p, o);
    delete_side t.direct ~entity:s ~pred_id:p ~value:(Relsql.Value.Int o);
    delete_side t.reverse ~entity:o ~pred_id:p ~value:(Relsql.Value.Int s);
    Dataset_stats.unrecord t.stats ~s ~p ~o;
    t.triples_loaded <- t.triples_loaded - 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Query-support accessors                                             *)
(* ------------------------------------------------------------------ *)

(** Candidate columns for predicate [p] (by id) on a side. *)
let candidate_columns t which ~pred_term =
  let st = side t which in
  let cands = Pred_map.candidates st.pred_map (pred_uri pred_term) in
  if cands = [] then [ 0 ] else cands

(** Columns that actually hold data for predicate [pred_id] on a side:
    unlike {!candidate_columns} (every column the mapping {e could} use,
    including hash fallbacks the data never reached) this is the set of
    columns a value was really written into. Conservative after deletes
    — a column stays listed once used — which only ever widens the set. *)
let storage_columns t which ~pred_id =
  match IntTbl.find_opt (side t which).placed pred_id with
  | None -> []
  | Some cols -> List.sort Int.compare (IntTbl.fold (fun c () acc -> c :: acc) cols [])

let is_multivalued t which ~pred_id =
  IntTbl.mem (side t which).multivalued pred_id

let is_spill_involved t which ~pred_id =
  IntTbl.mem (side t which).spill_preds pred_id

let column_count t which = (side t which).k

(* ------------------------------------------------------------------ *)
(* Canonical store dump (equality-test support)                        *)
(* ------------------------------------------------------------------ *)

let sorted_keys tbl =
  List.sort Int.compare (IntTbl.fold (fun k () acc -> k :: acc) tbl [])

(** Predicate ids with any lid value on a side, sorted. *)
let multivalued_predicates t which = sorted_keys (side t which).multivalued

(** Predicate ids stored on spill rows on a side, sorted. *)
let spill_predicates t which = sorted_keys (side t which).spill_preds

(** Canonical textual rendering of everything the store owns: the
    dictionary in id order, every relation's live rows in insertion
    order (row ids included), both sides' registries and bookkeeping,
    and the lid counter. Two loads that produce equal dumps built
    bit-identical stores — row ids, index posting order, lids, spill
    flags, coloring-dependent column placement, all of it. Benchmarks
    digest it to tell two runs' final stores apart. *)
let dump_store t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "== dictionary ==\n";
  Rdf.Dictionary.iter
    (fun id term ->
      Buffer.add_string buf
        (Printf.sprintf "%d\t%s\n" id (Rdf.Term.to_string term)))
    t.dict;
  let dump_table name =
    match Relsql.Database.find t.db name with
    | None -> ()
    | Some tbl ->
      Buffer.add_string buf (Printf.sprintf "== %s ==\n" name);
      Relsql.Table.iter
        (fun rid row ->
          Buffer.add_string buf (string_of_int rid);
          Array.iter
            (fun v ->
              Buffer.add_char buf '\t';
              Buffer.add_string buf (Relsql.Value.to_string v))
            row;
          Buffer.add_char buf '\n')
        tbl
  in
  List.iter dump_table [ "DPH"; "DS"; "RPH"; "RS"; Dict_table.table_name ];
  let dump_side label st =
    let ints l = String.concat "," (List.map string_of_int l) in
    Buffer.add_string buf
      (Printf.sprintf
         "== %s ==\nmultivalued:%s\nspill_preds:%s\nspill_rows:%d\nentities:%d\n"
         label
         (ints (sorted_keys st.multivalued))
         (ints (sorted_keys st.spill_preds))
         st.spill_rows st.entities);
    IntTbl.fold (fun e rows acc -> (e, !rows) :: acc) st.entity_rows []
    |> List.sort compare
    |> List.iter (fun (e, rows) ->
           Buffer.add_string buf (Printf.sprintf "entity %d:%s\n" e (ints rows)))
  in
  dump_side "direct" t.direct;
  dump_side "reverse" t.reverse;
  Buffer.add_string buf
    (Printf.sprintf "next_lid:%d\ntriples:%d\n" t.next_lid t.triples_loaded);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Structural invariants                                               *)
(* ------------------------------------------------------------------ *)

let check_side t label st =
  let fail fmt =
    Printf.ksprintf (fun m -> failwith ("Loader.check " ^ label ^ ": " ^ m)) fmt
  in
  (* Every registered row is live, carries its entity, and has the
     spill flag its entity's row count implies; together the entities
     own every live primary row, each once. *)
  let owned = IntTbl.create 1024 and spills = ref 0 in
  IntTbl.iter
    (fun entity rows ->
      let n = List.length !rows in
      let flag = Relsql.Value.Int (if n > 1 then 1 else 0) in
      spills := !spills + n - 1;
      List.iter
        (fun rid ->
          if IntTbl.mem owned rid then fail "row %d is registered twice" rid;
          IntTbl.add owned rid ();
          if not (Relsql.Table.is_live st.primary rid) then
            fail "entity %d: row %d is not live" entity rid;
          if Relsql.Table.cell st.primary rid st.pos.entry_pos
             <> Relsql.Value.Int entity
          then fail "entity %d: row %d carries another entity" entity rid;
          if Relsql.Table.cell st.primary rid st.pos.spill_pos <> flag then
            fail "entity %d: row %d has spill flag %s but the entity owns %d row(s)"
              entity rid
              (Relsql.Value.to_string
                 (Relsql.Table.cell st.primary rid st.pos.spill_pos))
              n)
        !rows)
    st.entity_rows;
  if IntTbl.length owned <> Relsql.Table.row_count st.primary then
    fail "%d live rows, but entities own %d"
      (Relsql.Table.row_count st.primary) (IntTbl.length owned);
  if st.entities <> IntTbl.length st.entity_rows then
    fail "entity count %d, registry holds %d" st.entities
      (IntTbl.length st.entity_rows);
  if st.spill_rows <> !spills then
    fail "spill-row count %d, registry implies %d" st.spill_rows !spills;
  (* Pred and val cells are NULL together; every lid cell is unique,
     allocated, and has secondary rows; every secondary lid is
     referenced by a primary cell. *)
  let referenced = IntTbl.create 64 in
  Relsql.Table.iter
    (fun rid row ->
      for c = 0 to st.k - 1 do
        let v = row.(st.pos.val_pos.(c)) in
        if Relsql.Value.is_null row.(st.pos.pred_pos.(c)) <> Relsql.Value.is_null v
        then fail "row %d column %d: pred and val disagree on NULL" rid c;
        match v with
        | Relsql.Value.Lid lid ->
          if IntTbl.mem referenced lid then fail "lid %d is referenced twice" lid;
          if lid < 0 || lid >= t.next_lid then
            fail "row %d: lid %d was never allocated" rid lid;
          IntTbl.add referenced lid ()
        | _ -> ()
      done)
    st.primary;
  let listed = IntTbl.create 64 in
  Relsql.Table.iter
    (fun rid row ->
      match row.(0) with
      | Relsql.Value.Lid lid ->
        if not (IntTbl.mem referenced lid) then
          fail "secondary row %d: lid %d is referenced by no primary cell" rid lid;
        IntTbl.replace listed lid ()
      | v ->
        fail "secondary row %d holds %s, not a lid" rid (Relsql.Value.to_string v))
    st.secondary;
  IntTbl.iter
    (fun lid () ->
      if not (IntTbl.mem listed lid) then fail "lid %d has no secondary rows" lid)
    referenced

(* The DICT relation lists every dictionary id once, with its term.
   Stores without a DICT relation (a bare {!create}) have nothing to
   agree with. *)
let check_dict t =
  match Relsql.Database.find t.db Dict_table.table_name with
  | None -> ()
  | Some tbl ->
    let fail fmt = Printf.ksprintf (fun m -> failwith ("Loader.check DICT: " ^ m)) fmt in
    let n = Rdf.Dictionary.size t.dict in
    let seen = Array.make n false in
    Relsql.Table.iter
      (fun rid row ->
        match row.(0), row.(1) with
        | Relsql.Value.Int id, Relsql.Value.Str term when id >= 0 && id < n ->
          if seen.(id) then fail "id %d is listed twice" id;
          seen.(id) <- true;
          let want = Rdf.Term.to_string (Rdf.Dictionary.term_of t.dict id) in
          if term <> want then
            fail "id %d renders %s, the dictionary holds %s" id term want
        | id, _ ->
          fail "row %d: id %s is not a dictionary id (size %d)" rid
            (Relsql.Value.to_string id) n)
      tbl;
    Array.iteri
      (fun id s -> if not s then fail "dictionary id %d has no row" id)
      seen

let check t =
  if Hashtbl.length t.seen <> t.triples_loaded then
    failwith
      (Printf.sprintf "Loader.check: %d distinct triples, counter says %d"
         (Hashtbl.length t.seen) t.triples_loaded);
  check_side t "direct" t.direct;
  check_side t "reverse" t.reverse;
  check_dict t

(* ------------------------------------------------------------------ *)
(* Reporting (Section 2.3 numbers)                                     *)
(* ------------------------------------------------------------------ *)

type side_report = {
  rows : int;
  spills : int;
  distinct_entities : int;
  null_fraction : float;
  storage_bytes : int;
}

let report t which : side_report =
  let st = side t which in
  let val_positions = Array.to_list st.pos.val_pos
  and pred_positions = Array.to_list st.pos.pred_pos in
  {
    rows = Relsql.Table.row_count st.primary;
    spills = st.spill_rows;
    distinct_entities = st.entities;
    null_fraction =
      Relsql.Table.null_fraction st.primary (val_positions @ pred_positions);
    storage_bytes =
      Relsql.Table.storage_size st.primary
      + Relsql.Table.storage_size st.secondary;
  }
