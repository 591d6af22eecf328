(** ExtVP-style semi-join reductions (S2RDF's extended vertical
    partitioning, transplanted onto the entity-oriented DPH layout).

    A reduction is keyed by a predicate pair and a correlation kind —
    SS (subject-subject), SO (subject of [p1] = object of [p2]), OS
    (object of [p1] = subject of [p2]) — and holds the subset of DPH
    rows that can possibly contribute to a join edge with that
    signature, under the {e same schema} as DPH, so every star template
    the SQL generator emits runs against a reduction unchanged.

    The registry below owns lifecycle, not contents: the storage layer
    installs a [builder] (which knows the DPH layout), a [stamp]
    function (the catalog's epoch) and a cheap
    statistics [estimator]. Reductions are built lazily on first
    resolve, kept only when their measured selectivity is below
    [threshold] (S2RDF's ScaleUB, default 0.25), LRU-evicted beyond a
    global byte [budget], and dropped the moment the stamp moves —
    inserts and deletes invalidate rather than corrupt. Builders are
    deterministic at a fixed stamp, so an evicted-and-rebuilt reduction
    is bit-identical and downstream caches keyed by table contents stay
    valid; a {e stale} drop, by contrast, fires [on_invalidate] so the
    shared scan cache cannot serve rows of the previous generation
    under a recycled table name. *)

type corr = SS | SO | OS

type key = { p1 : int; p2 : int; corr : corr }

let corr_to_string = function SS -> "ss" | SO -> "so" | OS -> "os"

let corr_of_string = function
  | "ss" -> Some SS
  | "so" -> Some SO
  | "os" -> Some OS
  | _ -> None

(* Reduction table names live outside the catalog's namespace: the
   dollar cannot appear in a SQL identifier the parser accepts, so no
   user table can collide. *)
let name_prefix = "extvp$"

let is_extvp_name n =
  String.length n > String.length name_prefix
  && String.sub n 0 (String.length name_prefix) = name_prefix

let name_of_key k =
  Printf.sprintf "%s%s$%d$%d" name_prefix (corr_to_string k.corr) k.p1 k.p2

let key_of_name n =
  if not (is_extvp_name n) then None
  else
    match String.split_on_char '$' n with
    | [ _; c; p1; p2 ] ->
      (match corr_of_string c, int_of_string_opt p1, int_of_string_opt p2 with
       | Some corr, Some p1, Some p2 when p1 >= 0 && p2 >= 0 ->
         Some { p1; p2; corr }
       | _ -> None)
    | _ -> None

type entry = {
  e_table : Table.t;
  e_stamp : int;
  e_bytes : int;
  e_sel : float;
  mutable e_last_use : int;
}

(** Lifecycle counters, surfaced by [rdfstore stats] and the bench
    harness. [bytes] is the {e currently} cached total. *)
type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable builds : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable rejections : int;
  mutable build_s : float;
  mutable bytes : int;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  rejected : (string, int * float) Hashtbl.t;
      (* measured-too-coarse reductions, memoized per stamp so the
         planner stops asking until the data changes *)
  mutable last_rejected : (string * int * Table.t) option;
      (* one-slot scratch: a cached statement may keep referencing a
         reduction whose measured selectivity failed the threshold;
         serving the last such build prevents a rebuild per execution *)
  mutable threshold : float;
  mutable budget_bytes : int;
  mutable force : bool;
      (* differential-testing mode: always advisable, always retained *)
  mutable builder : (key -> Table.t * int * int) option;
      (* key -> (reduction, source rows, kept rows) *)
  mutable stamp_fn : (unit -> int) option;
  mutable estimator : (key -> float) option;
  mutable on_invalidate : unit -> unit;
  mutable tick : int;
  c : counters;
}

let default_threshold = 0.25
let default_budget_bytes = 64 * 1024 * 1024

let create () =
  {
    entries = Hashtbl.create 16;
    rejected = Hashtbl.create 16;
    last_rejected = None;
    threshold = default_threshold;
    budget_bytes = default_budget_bytes;
    force = false;
    builder = None;
    stamp_fn = None;
    estimator = None;
    on_invalidate = (fun () -> ());
    tick = 0;
    c =
      {
        hits = 0;
        misses = 0;
        builds = 0;
        evictions = 0;
        invalidations = 0;
        rejections = 0;
        build_s = 0.0;
        bytes = 0;
      };
  }

let set_hooks t ~builder ~stamp ~estimator =
  t.builder <- Some builder;
  t.stamp_fn <- Some stamp;
  t.estimator <- Some estimator

let set_on_invalidate t f = t.on_invalidate <- f
let set_force t b = t.force <- b
let force t = t.force
let set_threshold t x = t.threshold <- x
let threshold t = t.threshold
let set_budget_bytes t n = t.budget_bytes <- max 0 n
let budget_bytes t = t.budget_bytes
let counters t = t.c
let cached_count t = Hashtbl.length t.entries

(** Names and measured selectivities of the currently cached
    reductions, sorted by name. *)
let cached t =
  Hashtbl.fold (fun n e acc -> (n, e.e_sel, e.e_bytes) :: acc) t.entries []
  |> List.sort compare

let clear t =
  Hashtbl.reset t.entries;
  Hashtbl.reset t.rejected;
  t.last_rejected <- None;
  t.c.bytes <- 0

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* Evict least-recently-used entries while over budget. The
   just-inserted entry (maximal tick) is only ever chosen last, and a
   lone over-budget entry is kept — evicting it would thrash a rebuild
   per statement. Rebuilds at an unchanged stamp are deterministic
   copies, so eviction needs no cache invalidation. *)
let evict_to_budget t =
  while
    t.c.bytes > t.budget_bytes && Hashtbl.length t.entries > 1
  do
    let victim =
      Hashtbl.fold
        (fun n e acc ->
          match acc with
          | Some (_, b) when b.e_last_use <= e.e_last_use -> acc
          | _ -> Some (n, e))
        t.entries None
    in
    match victim with
    | None -> ()
    | Some (n, e) ->
      Hashtbl.remove t.entries n;
      t.c.bytes <- t.c.bytes - e.e_bytes;
      t.c.evictions <- t.c.evictions + 1
  done

let drop_stale t name e =
  Hashtbl.remove t.entries name;
  t.c.bytes <- t.c.bytes - e.e_bytes;
  t.c.invalidations <- t.c.invalidations + 1;
  t.on_invalidate ()

let build t key name stamp builder =
  t.c.misses <- t.c.misses + 1;
  let t0 = Unix.gettimeofday () in
  let table, total, kept = builder key in
  t.c.builds <- t.c.builds + 1;
  t.c.build_s <- t.c.build_s +. (Unix.gettimeofday () -. t0);
  let sel = float_of_int kept /. float_of_int (max 1 total) in
  if t.force || sel < t.threshold then begin
    let bytes = Table.storage_size table in
    Hashtbl.replace t.entries name
      { e_table = table; e_stamp = stamp; e_bytes = bytes; e_sel = sel;
        e_last_use = next_tick t };
    t.c.bytes <- t.c.bytes + bytes;
    evict_to_budget t
  end
  else begin
    t.c.rejections <- t.c.rejections + 1;
    Hashtbl.replace t.rejected name (stamp, sel);
    t.last_rejected <- Some (name, stamp, table)
  end;
  table

(** Resolve a reduction table by name, building it on demand. [None]
    when the name does not parse or no builder is installed — the
    caller (catalog lookup) then reports an unknown table. *)
let resolve t name : Table.t option =
  match key_of_name name with
  | None -> None
  | Some key ->
    (match t.builder, t.stamp_fn with
     | Some builder, Some stamp_fn ->
       let stamp = stamp_fn () in
       (match Hashtbl.find_opt t.entries name with
        | Some e when e.e_stamp = stamp ->
          t.c.hits <- t.c.hits + 1;
          e.e_last_use <- next_tick t;
          Some e.e_table
        | Some e ->
          drop_stale t name e;
          Some (build t key name stamp builder)
        | None ->
          (match t.last_rejected with
           | Some (n, st, table) when n = name && st = stamp ->
             t.c.hits <- t.c.hits + 1;
             Some table
           | _ -> Some (build t key name stamp builder)))
     | _ -> None)

(** Should the planner substitute this reduction? Yes when it is
    already cached fresh, or when the statistics estimator predicts a
    selectivity under the threshold; no when a fresh build already
    measured over it. Never triggers a build. *)
let advisable t key : bool =
  match t.builder, t.stamp_fn with
  | Some _, Some stamp_fn ->
    t.force
    ||
    let name = name_of_key key in
    let stamp = stamp_fn () in
    (match Hashtbl.find_opt t.entries name with
     | Some e when e.e_stamp = stamp -> true
     | _ ->
       (match Hashtbl.find_opt t.rejected name with
        | Some (st, _) when st = stamp -> false
        | _ ->
          (match t.estimator with
           | Some est -> est key < t.threshold
           | None -> false)))
  | _ -> false

(** Best available selectivity estimate: measured when a fresh build
    exists (cached or rejected), the statistics estimate otherwise. *)
let estimate t key : float =
  match t.stamp_fn with
  | None -> 1.0
  | Some stamp_fn ->
    let name = name_of_key key in
    let stamp = stamp_fn () in
    (match Hashtbl.find_opt t.entries name with
     | Some e when e.e_stamp = stamp -> e.e_sel
     | _ ->
       (match Hashtbl.find_opt t.rejected name with
        | Some (st, sel) when st = stamp -> sel
        | _ ->
          (match t.estimator with Some est -> est key | None -> 1.0)))
