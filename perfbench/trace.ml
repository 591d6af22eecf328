(** In-memory span recorder for the traced run. The harness wraps its
    own calls into each layer's public functions; nothing inside the
    library is instrumented. A span records its name, start, end, the
    enclosing span, the request it belongs to, and the minor- and
    major-heap words allocated while it was open (the [Gc.quick_stat]
    counters, read through the allocation-free [Gc.counters]). Spans are
    kept as parallel arrays and written out when the run ends. *)

type t = {
  names : (string, int) Hashtbl.t;  (** interned span names *)
  mutable name_of : string array;
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;  (** -1 for a request's root span *)
  mutable req : int array;  (** request index; -1 for set-up spans *)
  mutable start : Float.Array.t;
  mutable stop : Float.Array.t;
  mutable minor : Float.Array.t;
  mutable major : Float.Array.t;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable current_req : int;
}

let create () =
  { names = Hashtbl.create 32; name_of = [||]; n = 0;
    name = Array.make 1024 0; parent = Array.make 1024 0;
    req = Array.make 1024 0; start = Float.Array.make 1024 0.0;
    stop = Float.Array.make 1024 0.0; minor = Float.Array.make 1024 0.0;
    major = Float.Array.make 1024 0.0; stack = []; current_req = -1 }

let set_request t i = t.current_req <- i

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some id -> id
  | None ->
    let id = Array.length t.name_of in
    Hashtbl.add t.names name id;
    t.name_of <- Array.append t.name_of [| name |];
    id

let grow t =
  let cap = 2 * Array.length t.name in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a =
    let b = Float.Array.make cap 0.0 in
    Float.Array.blit a 0 b 0 (Float.Array.length a);
    b
  in
  t.name <- ints t.name; t.parent <- ints t.parent; t.req <- ints t.req;
  t.start <- floats t.start; t.stop <- floats t.stop;
  t.minor <- floats t.minor; t.major <- floats t.major

(** [span t name f] runs [f ()] inside a span named [name], nested in
    the innermost open span. The span closes on exceptions too. *)
let span t name f =
  if t.n = Array.length t.name then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.name.(id) <- intern t name;
  t.parent.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.req.(id) <- t.current_req;
  t.stack <- id :: t.stack;
  let minor0, _, major0 = Gc.counters () in
  Float.Array.set t.start id (Unix.gettimeofday ());
  let finish () =
    Float.Array.set t.stop id (Unix.gettimeofday ());
    let minor1, _, major1 = Gc.counters () in
    Float.Array.set t.minor id (minor1 -. minor0);
    Float.Array.set t.major id (major1 -. major0);
    t.stack <- List.tl t.stack
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let duration t i = Float.Array.get t.stop i -. Float.Array.get t.start i

type agg = {
  mutable count : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable minor_words : float;
  mutable major_words : float;
}

let new_agg () =
  { count = 0; total_s = 0.0; self_s = 0.0; minor_words = 0.0;
    major_words = 0.0 }

(* Self time of every span: its duration minus the part its children
   cover (children never overlap: the run is single-threaded). *)
let self_times t =
  let self = Float.Array.init t.n (fun i -> duration t i) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then Float.Array.set self p (Float.Array.get self p -. duration t i)
  done;
  self

let fold_into tbl key i ~self t =
  let a =
    match Hashtbl.find_opt tbl key with
    | Some a -> a
    | None -> let a = new_agg () in Hashtbl.add tbl key a; a
  in
  a.count <- a.count + 1;
  a.total_s <- a.total_s +. duration t i;
  a.self_s <- a.self_s +. Float.Array.get self i;
  a.minor_words <- a.minor_words +. Float.Array.get t.minor i;
  a.major_words <- a.major_words +. Float.Array.get t.major i

(** Totals per span name. *)
let by_name t =
  let self = self_times t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    fold_into tbl t.name_of.(t.name.(i)) i ~self t
  done;
  tbl

(* The slash-joined names from the root span down to span [i]. *)
let path t i =
  let rec go i acc =
    if i < 0 then String.concat "/" acc
    else go t.parent.(i) (t.name_of.(t.name.(i)) :: acc)
  in
  go i []

(** Write the span tree aggregated by path, then the raw spans of the
    first [raw_requests] requests (and of set-up), to [file]. *)
let write t ~file ~title ~raw_requests =
  let self = self_times t in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  for i = 0 to t.n - 1 do
    let p = path t i in
    if not (Hashtbl.mem tbl p) then order := p :: !order;
    fold_into tbl p i ~self t
  done;
  let oc = open_out file in
  Printf.fprintf oc "# %s\n# span tree by path: count, total ms, self ms, \
                     minor words, major words (sums over all spans)\n" title;
  List.iter
    (fun p ->
      let a = Hashtbl.find tbl p in
      Printf.fprintf oc "%-60s %8d %12.3f %12.3f %14.0f %12.0f\n" p a.count
        (1000.0 *. a.total_s) (1000.0 *. a.self_s) a.minor_words
        a.major_words)
    (List.sort compare !order);
  Printf.fprintf oc "# raw spans: id parent request name start_ms dur_ms \
                     minor_words major_words\n";
  let t0 = if t.n > 0 then Float.Array.get t.start 0 else 0.0 in
  for i = 0 to t.n - 1 do
    if t.req.(i) < raw_requests then
      Printf.fprintf oc "%d %d %d %s %.3f %.3f %.0f %.0f\n" i t.parent.(i)
        t.req.(i) t.name_of.(t.name.(i))
        (1000.0 *. (Float.Array.get t.start i -. t0))
        (1000.0 *. duration t i) (Float.Array.get t.minor i)
        (Float.Array.get t.major i)
  done;
  close_out oc
