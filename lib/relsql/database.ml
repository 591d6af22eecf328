(** A database is a named catalog of {!Table.t}. Common table
    expressions never enter it: the planner resolves their names from
    its own scope, and the executor keeps their rows as batches. *)

type t = {
  name : string;
  tables : (string, Table.t) Hashtbl.t;
  mutable parallelism : int;
      (* domains the executor may use for statements against this
         database when the caller does not say otherwise *)
  mutable wcoj : bool;
      (* when set, the planner may replace eligible flat multiway joins
         with the leapfrog (worst-case-optimal) operator *)
  mutable wcoj_selector : Wcoj.selector option;
      (* statistics-informed chooser between the binary join tree and
         the leapfrog operator, installed by the layer that owns
         cardinality statistics; [None] disables WCOJ planning *)
  scan_cache : Scan_cache.t;
      (* shared scan-result cache *)
  mutable extvp : Extvp.t option;
      (* semi-join-reduction registry; reduction tables resolve through
         {!find} without ever entering the catalog (so {!epoch} and
         statement stamps never see them), installed by the layer
         that owns the DPH layout *)
}

let create name =
  { name; tables = Hashtbl.create 16;
    parallelism = 1; wcoj = false; wcoj_selector = None;
    scan_cache = Scan_cache.create (); extvp = None }

(** Set how many domains statements against this database may use. *)
let set_parallelism t n = t.parallelism <- max 1 n

let parallelism t = t.parallelism

(** Enable or disable WCOJ planning for statements against this
    database. Purely a plan-shape knob — results are identical. *)
let set_wcoj t b = t.wcoj <- b

let wcoj t = t.wcoj

(** Install (or clear) the statistics-informed WCOJ selector. The
    planner only considers the leapfrog operator when both {!wcoj} is
    set and a selector is present. *)
let set_wcoj_selector t sel = t.wcoj_selector <- sel

let wcoj_selector t = t.wcoj_selector

let scan_cache t = t.scan_cache

(** Install (or clear) the semi-join-reduction registry. Reduction
    tables resolve through {!find} on demand but never join the
    catalog: {!epoch}, {!table_names} and {!merge_all} do not see
    them. *)
let set_extvp t r = t.extvp <- r

let extvp t = t.extvp

let create_table t name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg ("Database.create_table: duplicate table " ^ name);
  let table = Table.create name schema in
  Hashtbl.add t.tables name table;
  table

let find t name =
  match Hashtbl.find_opt t.tables name with
  | Some table -> Some table
  | None ->
    (* Semi-join reductions materialize lazily on first resolve — this
       is the "first planner request" trigger. *)
    (match t.extvp with
     | Some r when Extvp.is_extvp_name name -> Extvp.resolve r name
     | _ -> None)

let find_exn t name =
  match find t name with
  | Some table -> table
  | None -> invalid_arg ("Database: no such table " ^ name)

let mem t name = find t name <> None

let drop_table t name = Hashtbl.remove t.tables name

(* Merge the tables that pass [due]; returns how many actually
   merged. *)
let merge_where due t =
  Hashtbl.fold
    (fun _ tbl n ->
      let before = Table.merge_count tbl in
      if due tbl then Table.merge tbl;
      n + (Table.merge_count tbl - before))
    t.tables 0

(** Fold every table's delta into its packed main — the bulk-load
    epilogue of [--compress] stores and the eager [rdfstore merge]. *)
let merge_all = merge_where (fun _ -> true)

(** Merge the tables the {!Table.merge_due} policy selects — the write
    epilogue of [--compress] stores. *)
let merge_due = merge_where Table.merge_due

(** {!Table.check} every table. *)
let check t = Hashtbl.iter (fun _ tbl -> Table.check tbl) t.tables

(** Per-table {!Table.compression_report}s, sorted by table name
    ([rdfstore stats]). *)
let compression_reports t =
  Hashtbl.fold (fun _ tbl acc -> Table.compression_report tbl :: acc) t.tables []
  |> List.sort (fun a b ->
         String.compare a.Table.r_table b.Table.r_table)

(** [snapshot t] is an immutable copy-on-write view of the catalog:
    every table is captured with {!Table.snapshot} (sharing the packed
    main, deep-copying delta rows and tombstones), so
    readers can keep scanning the snapshot while the writer mutates —
    later writes land in the live table's private delta side (or a
    freshly packed image on merge) without disturbing the view. The
    snapshot gets its own scan cache (caches are per-snapshot-valid;
    sharing one hash table across reader domains would race) and no
    reduction registry — reductions are recomputed from live state, a
    snapshot answers from its own base tables. The WCOJ selector is
    dropped too: it is a closure over the owner's live statistics, and
    a snapshot reader must not chase them while the writer mutates
    (WCOJ is a plan-shape knob, so results are unchanged). *)
let snapshot t =
  let s =
    { name = t.name ^ "@snap"; tables = Hashtbl.create 16;
      parallelism = t.parallelism; wcoj = t.wcoj; wcoj_selector = None;
      scan_cache = Scan_cache.create (); extvp = None }
  in
  Hashtbl.iter
    (fun name tbl -> Hashtbl.add s.tables name (Table.snapshot tbl))
    t.tables;
  s

let table_names t =
  List.sort String.compare (Hashtbl.fold (fun name _ a -> name :: a) t.tables [])

(** A stamp over the catalog: folds every table's name and
    {!Table.epoch} (sorted, so hash iteration order is irrelevant). Any
    insert/update/delete or merge — and any table created or dropped —
    changes the stamp, giving ExtVP reductions and snapshots one shared
    version signal instead of ad-hoc clears. *)
let epoch t =
  let items =
    Hashtbl.fold (fun name tbl acc -> (name, Table.epoch tbl) :: acc) t.tables []
  in
  List.fold_left
    (fun acc (name, v) -> (acc * 31) + Hashtbl.hash name + (v * 7))
    (17 + List.length items)
    (List.sort compare items)
