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

(** Per-phase wall-clock breakdown of the last bulk {!load} call.
    [parse_s] is the caller-measured input-parsing time (0 for in-memory
    triple lists); the other phases are the loader's own: worker-local
    dictionary encoding, the deterministic merge/remap/dedup pass, and
    DPH/RPH/DS/RS row assembly. *)
type load_stats = {
  domains_used : int;  (** 1 = the untouched sequential path ran *)
  morsels : int;  (** encode-phase chunks (1 when sequential) *)
  triples_in : int;  (** input triples, duplicates included *)
  triples_new : int;  (** triples actually inserted after dedup *)
  parse_s : float;
  encode_s : float;
  merge_s : float;
  assemble_s : float;
  total_s : float;  (** parse + encode + merge + assemble *)
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

(* ------------------------------------------------------------------ *)
(* Parallel bulk load                                                  *)
(* ------------------------------------------------------------------ *)

(* Growable int vector for the merge pass's encoded-triple and
   partition-index buffers. *)
module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 256 0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let b = Array.make (2 * v.len) 0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1
end

(* Per-entity simulation state of the assemble phase: the rows the
   entity will own, each paired with the global index of the deduped
   triple that created it (its position in the sequential insertion
   order). *)
type esim = {
  mutable srows : (int * Relsql.Value.t array) list;  (* creation order *)
  mutable sspilled : bool;
}

(* Row/secondary fragment built by one (side, entity-partition)
   assemble worker. Sequence keys restore the sequential order later:
   a row's key is its creating triple's index; a secondary tuple's key
   is [2*seq] ([+1] for the second tuple of a lid transition, which
   sequential insertion writes old-then-new at one triple). *)
type frag = {
  mutable frows : (int * int * Relsql.Value.t array) list;  (* seq, entity, row *)
  mutable fds : (int * int * Relsql.Value.t) list;  (* key, lid, elm *)
  fmv : unit IntTbl.t;  (* multi-valued predicate ids *)
  fsp : unit IntTbl.t;  (* spill-involved predicate ids *)
  fpc : (int * int, unit) Hashtbl.t;  (* (pred id, column) placements *)
}

let sim_fresh_row st entity =
  let arity = Relsql.Schema.arity (Relsql.Table.schema st.primary) in
  let row = Array.make arity Relsql.Value.Null in
  row.(st.pos.entry_pos) <- Relsql.Value.Int entity;
  row.(st.pos.spill_pos) <- Relsql.Value.Int 0;
  row

(* Mirror of {!insert_side} over in-memory row fragments: the same row
   scanning order, candidate order and spill choice, with lids drawn
   from the pre-computed schedule instead of the shared counter. Only
   the entity's own rows are consulted, which is what makes insertion
   simulable per entity partition. *)
let sim_insert st ents frag lids ~seq ~entity ~pred_id ~cands ~value =
  let e =
    match IntTbl.find_opt ents entity with
    | Some e -> e
    | None ->
      let e = { srows = [ (seq, sim_fresh_row st entity) ]; sspilled = false } in
      IntTbl.add ents entity e;
      e
  in
  let pred_val = Relsql.Value.Int pred_id in
  let existing =
    List.find_map
      (fun (_, arr) ->
        List.find_map
          (fun c ->
            if arr.(st.pos.pred_pos.(c)) = pred_val then Some (arr, c) else None)
          cands)
      e.srows
  in
  match existing with
  | Some (arr, c) ->
    IntTbl.replace frag.fmv pred_id ();
    let vpos = st.pos.val_pos.(c) in
    (match arr.(vpos) with
     | Relsql.Value.Lid lid -> frag.fds <- (2 * seq, lid, value) :: frag.fds
     | old ->
       let lid = Hashtbl.find lids (entity, pred_id) in
       arr.(vpos) <- Relsql.Value.Lid lid;
       frag.fds <- ((2 * seq) + 1, lid, value) :: (2 * seq, lid, old) :: frag.fds)
  | None ->
    let rec find_free i = function
      | [] -> None
      | (_, arr) :: rest ->
        (match
           List.find_map
             (fun c ->
               if Relsql.Value.is_null arr.(st.pos.pred_pos.(c)) then Some c
               else None)
             cands
         with
         | Some c -> Some (i, arr, c)
         | None -> find_free (i + 1) rest)
    in
    (match find_free 0 e.srows with
     | Some (i, arr, c) ->
       arr.(st.pos.pred_pos.(c)) <- pred_val;
       arr.(st.pos.val_pos.(c)) <- value;
       Hashtbl.replace frag.fpc (pred_id, c) ();
       if i <> 0 then IntTbl.replace frag.fsp pred_id ()
     | None ->
       let arr = sim_fresh_row st entity in
       e.srows <- e.srows @ [ (seq, arr) ];
       e.sspilled <- true;
       let c = List.hd cands in
       arr.(st.pos.pred_pos.(c)) <- pred_val;
       arr.(st.pos.val_pos.(c)) <- value;
       Hashtbl.replace frag.fpc (pred_id, c) ();
       IntTbl.replace frag.fsp pred_id ())

(* The morsel-parallel bulk-load pipeline. Three phases:

   1. {b encode} (parallel): the input splits into contiguous chunks;
      each worker interns its chunk's terms into a private dictionary
      delta and emits the chunk as local-id triples.
   2. {b merge} (sequential): deltas merge into the global dictionary in
      chunk order — which reproduces the sequential interning order
      exactly (see {!Rdf.Dictionary.remap_into}) — while the remapped
      triples are deduplicated, statistics recorded, predicate
      candidate columns memoized, and the lid allocation schedule
      computed (a (side, entity, predicate) pair draws its lid at its
      second occurrence, direct side before reverse, as sequential
      insertion would).
   3. {b assemble} (parallel): per side, entities are hash-partitioned;
      workers replay each entity's insertions into private row
      fragments ({!sim_insert}); a final per-side pass writes rows and
      secondary tuples into the tables in sequence-key order, so row
      ids, index postings, lids and spill flags are all bit-identical
      to a sequential load. *)
let load_parallel t ~domains triples n_in =
  let now = Unix.gettimeofday in
  let t0 = now () in
  let before = t.triples_loaded in
  let pool = Relsql.Dpool.get domains in
  let input : Rdf.Triple.t array = Array.of_list triples in
  (* -------- phase 1: encode -------- *)
  let rs = Relsql.Dpool.ranges pool ~n:n_in () in
  let n_morsels = Array.length rs in
  let deltas =
    Array.map
      (fun (lo, hi) -> (Rdf.Dictionary.create (), Array.make (3 * (hi - lo)) 0))
      rs
  in
  ignore
    (Relsql.Dpool.run pool ~morsels:n_morsels (fun ~worker:_ m ->
         let lo, hi = rs.(m) in
         let ld, enc = deltas.(m) in
         for j = lo to hi - 1 do
           let tr = input.(j) in
           let b = 3 * (j - lo) in
           enc.(b) <- Rdf.Dictionary.id_of ld tr.Rdf.Triple.s;
           enc.(b + 1) <- Rdf.Dictionary.id_of ld tr.Rdf.Triple.p;
           enc.(b + 2) <- Rdf.Dictionary.id_of ld tr.Rdf.Triple.o
         done));
  let t_enc = now () in
  (* -------- phase 2: merge -------- *)
  let vs = Ivec.create () and vp = Ivec.create () and vo = Ivec.create () in
  let cands = IntTbl.create 64 in
  let dcount = Hashtbl.create 1024 and rcount = Hashtbl.create 1024 in
  let dlids = Hashtbl.create 64 and rlids = Hashtbl.create 64 in
  let sched counts lids key =
    let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counts key) in
    Hashtbl.replace counts key c;
    if c = 2 then begin
      Hashtbl.add lids key t.next_lid;
      t.next_lid <- t.next_lid + 1
    end
  in
  Array.iter
    (fun (ld, enc) ->
      let remap = Rdf.Dictionary.remap_into ~global:t.dict ld in
      for i = 0 to (Array.length enc / 3) - 1 do
        let s = remap.(enc.(3 * i))
        and p = remap.(enc.((3 * i) + 1))
        and o = remap.(enc.((3 * i) + 2)) in
        if not (Hashtbl.mem t.seen (s, p, o)) then begin
          Hashtbl.add t.seen (s, p, o) ();
          Ivec.push vs s;
          Ivec.push vp p;
          Ivec.push vo o;
          if not (IntTbl.mem cands p) then begin
            let str = pred_uri (Rdf.Dictionary.term_of t.dict p) in
            let of_map m =
              match Pred_map.candidates m str with [] -> [ 0 ] | cs -> cs
            in
            IntTbl.add cands p
              (of_map t.direct.pred_map, of_map t.reverse.pred_map)
          end;
          sched dcount dlids (s, p);
          sched rcount rlids (o, p);
          Dataset_stats.record t.stats ~s ~p ~o;
          t.triples_loaded <- t.triples_loaded + 1
        end
      done)
    deltas;
  let nd = vs.Ivec.len in
  (* Partition the deduped triples by entity, per side. *)
  let nparts = max 1 (4 * domains) in
  let dparts = Array.init nparts (fun _ -> Ivec.create ()) in
  let rparts = Array.init nparts (fun _ -> Ivec.create ()) in
  for j = 0 to nd - 1 do
    Ivec.push dparts.(vs.Ivec.a.(j) mod nparts) j;
    Ivec.push rparts.(vo.Ivec.a.(j) mod nparts) j
  done;
  let t_merge = now () in
  (* -------- phase 3: assemble -------- *)
  let frags =
    Array.init (2 * nparts) (fun _ ->
        { frows = []; fds = []; fmv = IntTbl.create 16; fsp = IntTbl.create 16;
          fpc = Hashtbl.create 16 })
  in
  ignore
    (Relsql.Dpool.run pool ~morsels:(2 * nparts) (fun ~worker:_ m ->
         let direct = m < nparts in
         let part = if direct then m else m - nparts in
         let st = if direct then t.direct else t.reverse in
         let lids = if direct then dlids else rlids in
         let idxs = (if direct then dparts else rparts).(part) in
         let frag = frags.(m) in
         let ents = IntTbl.create 256 in
         for i = 0 to idxs.Ivec.len - 1 do
           let j = idxs.Ivec.a.(i) in
           let s = vs.Ivec.a.(j) and p = vp.Ivec.a.(j) and o = vo.Ivec.a.(j) in
           let dc, rc = IntTbl.find cands p in
           let entity, value, cs =
             if direct then (s, Relsql.Value.Int o, dc)
             else (o, Relsql.Value.Int s, rc)
           in
           sim_insert st ents frag lids ~seq:j ~entity ~pred_id:p ~cands:cs
             ~value
         done;
         IntTbl.iter
           (fun entity e ->
             if e.sspilled then
               List.iter
                 (fun (_, arr) -> arr.(st.pos.spill_pos) <- Relsql.Value.Int 1)
                 e.srows;
             List.iter
               (fun (seq, arr) -> frag.frows <- (seq, entity, arr) :: frag.frows)
               e.srows)
           ents));
  (* Write each side's fragments into its tables in sequence-key order
     (the two sides are independent and run as a 2-morsel job). *)
  let finish st side_frags =
    let row_slot = Array.make (max nd 1) None in
    let ds_slot = Array.make (max (2 * nd) 1) None in
    Array.iter
      (fun frag ->
        List.iter
          (fun (seq, e, arr) -> row_slot.(seq) <- Some (e, arr))
          frag.frows;
        List.iter (fun (key, lid, elm) -> ds_slot.(key) <- Some (lid, elm)) frag.fds;
        IntTbl.iter (fun p () -> IntTbl.replace st.multivalued p ()) frag.fmv;
        IntTbl.iter (fun p () -> IntTbl.replace st.spill_preds p ()) frag.fsp;
        Hashtbl.iter (fun (p, c) () -> record_placed st ~pred_id:p c) frag.fpc)
      side_frags;
    for seq = 0 to nd - 1 do
      (match row_slot.(seq) with
       | Some (e, arr) ->
         let rid = Relsql.Table.insert st.primary arr in
         (match IntTbl.find_opt st.entity_rows e with
          | Some r ->
            r := !r @ [ rid ];
            st.spill_rows <- st.spill_rows + 1
          | None ->
            st.entities <- st.entities + 1;
            IntTbl.add st.entity_rows e (ref [ rid ]))
       | None -> ());
      (match ds_slot.(2 * seq) with
       | Some (lid, elm) ->
         ignore (Relsql.Table.insert st.secondary [| Relsql.Value.Lid lid; elm |])
       | None -> ());
      match ds_slot.((2 * seq) + 1) with
      | Some (lid, elm) ->
        ignore (Relsql.Table.insert st.secondary [| Relsql.Value.Lid lid; elm |])
      | None -> ()
    done
  in
  ignore
    (Relsql.Dpool.run pool ~morsels:2 (fun ~worker:_ m ->
         if m = 0 then finish t.direct (Array.sub frags 0 nparts)
         else finish t.reverse (Array.sub frags nparts nparts)));
  let t_done = now () in
  (before, n_morsels, t_enc -. t0, t_merge -. t_enc, t_done -. t_merge)

(** Bulk load. [domains > 1] runs the morsel-parallel pipeline above on
    a fresh store (the result is bit-identical to the sequential path);
    [domains = 1], a non-empty store, or an empty input take the
    unchanged sequential route. [parse_s] lets callers fold the time
    they spent parsing the input into the reported {!load_stats}. *)
let load ?(domains = 1) ?(parse_s = 0.0) t triples =
  let t0 = Unix.gettimeofday () in
  let n_in = List.length triples in
  let fresh =
    Relsql.Table.slot_count t.direct.primary = 0
    && Relsql.Table.slot_count t.reverse.primary = 0
  in
  if domains <= 1 || not fresh || n_in = 0 then begin
    let before = t.triples_loaded in
    List.iter (insert t) triples;
    let dt = Unix.gettimeofday () -. t0 in
    t.last_load <-
      Some
        { domains_used = 1; morsels = 1; triples_in = n_in;
          triples_new = t.triples_loaded - before; parse_s; encode_s = 0.0;
          merge_s = 0.0; assemble_s = dt; total_s = parse_s +. dt }
  end
  else begin
    let before, morsels, encode_s, merge_s, assemble_s =
      load_parallel t ~domains triples n_in
    in
    t.last_load <-
      Some
        { domains_used = domains; morsels; triples_in = n_in;
          triples_new = t.triples_loaded - before; parse_s; encode_s;
          merge_s; assemble_s;
          total_s = parse_s +. encode_s +. merge_s +. assemble_s }
  end

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
    flags, coloring-dependent column placement, all of it. The seq≡par
    equality tests and [rdfstore load --verify] compare these. *)
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
