(** A fixed pool of OCaml 5 worker domains running morsel jobs.

    The executor's parallel operators split their input into row-range
    morsels and hand the pool one job per operator invocation: a morsel
    count and a body closure. Workers (plus the submitting domain, which
    participates rather than blocking) claim morsel indices off a shared
    atomic counter until the job is drained — the work-stealing-free
    heart of morsel-driven parallelism (Leis et al., SIGMOD 2014): load
    balance comes from morsels being small relative to the input, not
    from a scheduler.

    Guarantees:
    - {b Exception propagation}: the first exception raised by any
      participant aborts the job (remaining morsels are skipped) and is
      re-raised, with its backtrace, in the submitting domain.
    - {b Nested / concurrent use}: a [run] issued from inside a worker,
      or while another job is in flight on the same pool, degrades to
      inline sequential execution instead of deadlocking.
    - {b Reuse}: pools are long-lived and shared across queries via
      {!get}; worker domains are spawned once, not per query.

    A pool of size [n] owns [n - 1] domains; size 1 spawns nothing and
    [run] is a plain sequential loop. *)

type job = {
  fn : worker:int -> int -> unit;  (** body, called once per morsel *)
  morsels : int;
  next : int Atomic.t;  (** next unclaimed morsel index *)
  abort : bool Atomic.t;  (** set by the first failing participant *)
  enter : int Atomic.t;  (** participant-id dispenser *)
  jmu : Mutex.t;  (** guards [active] / [exn] *)
  jcv : Condition.t;  (** signalled when [active] drops to 0 *)
  mutable active : int;  (** participants currently inside the job *)
  mutable exn : (exn * Printexc.raw_backtrace) option;
}

type t = {
  size : int;  (** parallelism, including the submitting domain *)
  mutable domains : unit Domain.t array;
  mu : Mutex.t;
  cv : Condition.t;  (** job arrival / shutdown *)
  mutable current : (int * job) option;  (** (job id, job) being offered *)
  mutable job_ids : int;
  mutable stop : bool;
  run_lock : Mutex.t;  (** one job at a time; contention → inline *)
}

(* Set in every worker domain so nested [run] calls fall back to inline
   execution instead of waiting on a pool they are part of. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Claim morsels until the job is drained or aborted. Each participant
   draws a unique worker id in [0, size) for the job, letting operator
   code keep per-worker partial state (e.g. aggregation tables). *)
let participate (j : job) =
  let w = Atomic.fetch_and_add j.enter 1 in
  Mutex.lock j.jmu;
  j.active <- j.active + 1;
  Mutex.unlock j.jmu;
  (try
     let continue = ref true in
     while !continue && not (Atomic.get j.abort) do
       let i = Atomic.fetch_and_add j.next 1 in
       if i >= j.morsels then continue := false else j.fn ~worker:w i
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Atomic.set j.abort true;
     Mutex.lock j.jmu;
     if j.exn = None then j.exn <- Some (e, bt);
     Mutex.unlock j.jmu);
  Mutex.lock j.jmu;
  j.active <- j.active - 1;
  if j.active = 0 then Condition.broadcast j.jcv;
  Mutex.unlock j.jmu

let worker_loop t () =
  Domain.DLS.set in_worker true;
  let last_seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mu;
    let rec await () =
      if t.stop then None
      else
        match t.current with
        | Some (id, j) when id <> !last_seen ->
          last_seen := id;
          Some j
        | _ ->
          Condition.wait t.cv t.mu;
          await ()
    in
    let j = await () in
    Mutex.unlock t.mu;
    match j with
    | None -> ()
    | Some j ->
      participate j;
      loop ()
  in
  loop ()

let create size =
  let size = max 1 size in
  let t =
    { size; domains = [||]; mu = Mutex.create (); cv = Condition.create ();
      current = None; job_ids = 0; stop = false; run_lock = Mutex.create () }
  in
  if size > 1 then
    t.domains <- Array.init (size - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let size t = t.size

(** Stop and join the worker domains. The pool must not be used again. *)
let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

let seq_run morsels fn =
  for i = 0 to morsels - 1 do
    fn ~worker:0 i
  done;
  1

(** [run t ~morsels fn] executes [fn ~worker i] once for every
    [i < morsels], spread over the pool's domains, and returns the
    number of participants (1 when it ran inline). Blocks until every
    claimed morsel has finished; the first exception any morsel raised
    is then re-raised here. Morsel bodies run concurrently: they must
    only share read-only state (or state partitioned by [worker], which
    is unique per participant within one job). *)
let run t ~morsels (fn : worker:int -> int -> unit) : int =
  if morsels <= 0 then 0
  else if
    t.size <= 1 || morsels = 1
    || Domain.DLS.get in_worker
    || not (Mutex.try_lock t.run_lock)
  then seq_run morsels fn
  else begin
    let j =
      { fn; morsels; next = Atomic.make 0; abort = Atomic.make false;
        enter = Atomic.make 0; jmu = Mutex.create ();
        jcv = Condition.create (); active = 0; exn = None }
    in
    Mutex.lock t.mu;
    t.job_ids <- t.job_ids + 1;
    t.current <- Some (t.job_ids, j);
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    participate j;
    (* Wait for workers that joined the job and are still draining it.
       A worker waking after this point finds the counter exhausted and
       exits without touching anything. *)
    Mutex.lock j.jmu;
    while j.active > 0 do
      Condition.wait j.jcv j.jmu
    done;
    Mutex.unlock j.jmu;
    Mutex.lock t.mu;
    t.current <- None;
    Mutex.unlock t.mu;
    let participants = min (Atomic.get j.enter) t.size in
    Mutex.unlock t.run_lock;
    match j.exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> participants
  end

(* ------------------------------------------------------------------ *)
(* Range morsels                                                       *)
(* ------------------------------------------------------------------ *)

(** Split [0, n) into contiguous [(lo, hi)] ranges sized for the pool:
    at most [8 * size t] morsels (a few per domain, so atomic claiming
    balances load) of at least [min_per_morsel] items each. *)
let ranges t ~n ?(min_per_morsel = 1) () =
  if n <= 0 then [||]
  else begin
    let cap = 8 * t.size in
    let morsels = max 1 (min cap (n / max 1 min_per_morsel)) in
    let per = (n + morsels - 1) / morsels in
    let morsels = (n + per - 1) / per in
    Array.init morsels (fun i -> (i * per, min n ((i + 1) * per)))
  end

(** [run_ranges t ~n fn] covers [0, n) with {!ranges} and calls
    [fn ~worker ~lo ~hi] once per range on the pool. Returns the number
    of participants. *)
let run_ranges t ~n ?min_per_morsel (fn : worker:int -> lo:int -> hi:int -> unit) =
  let rs = ranges t ~n ?min_per_morsel () in
  run t ~morsels:(Array.length rs) (fun ~worker i ->
      let lo, hi = rs.(i) in
      fn ~worker ~lo ~hi)

(* ------------------------------------------------------------------ *)
(* Two-phase radix partitioning (histogram / scatter)                  *)
(* ------------------------------------------------------------------ *)

(** [partition t ~n ~parts ~part_of] splits the items [0, n) into
    [parts] buckets by [part_of] (a pure, domain-safe function; a
    negative result drops the item) and returns [(starts, perm)]:
    [perm] lists the kept item indices bucket by bucket, and bucket [p]
    occupies [perm.(starts.(p)) .. perm.(starts.(p + 1) - 1)].

    The classic two-phase radix shape (Balkesen et al., ICDE 2013),
    morselized: phase one has each participant histogram the contiguous
    ranges it claims into a per-range count matrix; a sequential prefix
    sum then assigns every (range, bucket) pair its exact destination
    slice; phase two scatters items into [perm] with no atomics and no
    overlap. Because ranges are contiguous and the prefix sum walks
    them in order, items within a bucket appear in ascending index
    order — the output is deterministic and independent of how workers
    claimed the morsels. *)
let partition t ~n ~parts ~(part_of : int -> int) : int array * int array =
  let rs = ranges t ~n ~min_per_morsel:256 () in
  let m = Array.length rs in
  (* counts.(r) is range r's histogram over the buckets. *)
  let counts = Array.init m (fun _ -> Array.make parts 0) in
  ignore
    (run t ~morsels:m (fun ~worker:_ r ->
         let lo, hi = rs.(r) in
         let c = counts.(r) in
         for i = lo to hi - 1 do
           let p = part_of i in
           if p >= 0 then c.(p) <- c.(p) + 1
         done));
  (* Prefix sums: bucket starts, then per-(range, bucket) cursors laid
     out so range r's slice of bucket p precedes range r+1's. *)
  let starts = Array.make (parts + 1) 0 in
  for p = 0 to parts - 1 do
    let total = ref 0 in
    for r = 0 to m - 1 do
      total := !total + counts.(r).(p)
    done;
    starts.(p + 1) <- starts.(p) + !total
  done;
  let offsets = Array.init m (fun _ -> Array.make parts 0) in
  for p = 0 to parts - 1 do
    let cursor = ref starts.(p) in
    for r = 0 to m - 1 do
      offsets.(r).(p) <- !cursor;
      cursor := !cursor + counts.(r).(p)
    done
  done;
  let perm = Array.make starts.(parts) 0 in
  ignore
    (run t ~morsels:m (fun ~worker:_ r ->
         let lo, hi = rs.(r) in
         let cursors = offsets.(r) in
         for i = lo to hi - 1 do
           let p = part_of i in
           if p >= 0 then begin
             perm.(cursors.(p)) <- i;
             cursors.(p) <- cursors.(p) + 1
           end
         done));
  (starts, perm)

(* ------------------------------------------------------------------ *)
(* Shared pools                                                        *)
(* ------------------------------------------------------------------ *)

(* One pool per requested size, created lazily and kept for the life of
   the process: queries come and go, domains are expensive to spawn. *)
let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_mu = Mutex.create ()

(** The shared pool of the given size (total parallelism including the
    caller), creating it on first request. *)
let get n =
  let n = max 1 n in
  Mutex.lock pools_mu;
  let p =
    match Hashtbl.find_opt pools n with
    | Some p -> p
    | None ->
      let p = create n in
      Hashtbl.add pools n p;
      p
  in
  Mutex.unlock pools_mu;
  p
