(** Physical plan interpreter over row batches.

    Each plan node materializes into a {!Batch.t}: an ordered column
    layout plus one flat growable vector of immediate cell codes
    ({!Cell}). Execution is bottom-up and fully materializing, but
    batch-at-a-time: operators read rows in place through views and
    write them with int stores rather than per-row allocation. A soft per-query timeout is enforced by a
    row-operation counter, which is how the benchmark harness reproduces
    the paper's timeout classification (Figure 15). *)

exception Timeout

type result = Batch.t

(** Inputs smaller than this stay on the sequential code paths even
    when worker domains are available (forking a morsel job costs more
    than scanning a few hundred rows). Tests lower it to exercise the
    parallel operators on tiny inputs. *)
val par_min_rows : int ref

val column_names : result -> string list

(** Run a full statement: evaluate each CTE in order into a resident
    batch, then the body. The result is the caller's: it may
    {!Batch.release} it once read, and no later statement reuses its
    arrays before then. It pays only for its operators: per-node
    labels, estimates and clock reads are made by {!run_analyzed}
    alone. [timeout] is wall-clock seconds for the whole statement;
    raises {!Timeout} on expiry. [domains] is
    the total parallelism (including the calling domain) hot operators
    may fan out over; it defaults to the database's
    {!Database.parallelism} and 1 keeps every operator on its
    sequential code path. Hash-join builds on a parallel pool split
    into twice the pool size of radix partitions (a power of two,
    capped at 256); a sequential pool builds one. Neither changes
    results: parallel and partitioned execution produce exactly the
    sequential output — same rows, same order. *)
val run :
  ?timeout:float -> ?domains:int -> Database.t ->
  Sql_ast.stmt -> result

(** Like {!run}, but also returns the per-operator metrics tree (rows
    in/out, index probes, hash-build sizes and partition counts, scan
    cache hits, wall time, worker counts) — the engine's EXPLAIN
    ANALYZE. The root node is the whole statement; each CTE and the
    body appear as labelled children wrapping their plan trees. *)
val run_analyzed :
  ?timeout:float -> ?domains:int -> Database.t ->
  Sql_ast.stmt -> result * Opstats.t

(** The physical plans of each CTE and the body, as text. With
    [~analyze:true] the statement is also executed and the per-operator
    metrics tree appended. *)
val explain :
  ?analyze:bool -> ?timeout:float -> ?domains:int -> Database.t ->
  Sql_ast.stmt -> string
