(** A bounded LRU cache from a string key to a value, with hit/miss
    counters — the machinery behind {!Scan_cache}.

    Capacity is small and evictions scan for the least-recently-used
    entry — O(capacity), which is noise next to the scan it saves. The
    cache is not domain-safe; it belongs to the (single) domain that
    submits queries, like the rest of the session state. *)

type 'a entry = { value : 'a; mutable last_used : int }

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable clock : int;  (** bumped on every find/add for recency *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 64) () =
  { capacity = max 1 capacity; tbl = Hashtbl.create 16; clock = 0;
    hits = 0; misses = 0 }

let length t = Hashtbl.length t.tbl

(** Lookup, counting a hit or miss and refreshing recency. *)
let find t key =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    t.hits <- t.hits + 1;
    e.last_used <- t.clock;
    Some e.value
  | None ->
    t.misses <- t.misses + 1;
    None

(** Insert (or refresh) a binding, evicting the least-recently-used
    entry when the cache is full. *)
let add t key value =
  t.clock <- t.clock + 1;
  (match Hashtbl.find_opt t.tbl key with
   | Some _ -> Hashtbl.remove t.tbl key
   | None ->
     if Hashtbl.length t.tbl >= t.capacity then begin
       let victim = ref None in
       Hashtbl.iter
         (fun k e ->
           match !victim with
           | Some (_, lu) when lu <= e.last_used -> ()
           | _ -> victim := Some (k, e.last_used))
         t.tbl;
       match !victim with
       | Some (k, _) -> Hashtbl.remove t.tbl k
       | None -> ()
     end);
  Hashtbl.replace t.tbl key { value; last_used = t.clock }

(** Drop every entry (schema or statistics changed under the plans);
    counters survive so hit rates remain observable across loads. *)
let clear t = Hashtbl.reset t.tbl

type stats = { hits : int; misses : int; entries : int }

let stats (t : 'a t) = { hits = t.hits; misses = t.misses; entries = length t }

