(** Two-way dictionary encoding of RDF terms to dense integer ids.

    Every store in this repository (DB2RDF, the triple-store and
    vertical baselines, the native reference store) shares one
    dictionary per dataset so that query answers can be compared
    id-for-id. Ids start at 0 and are dense. *)

type t

val create : unit -> t
val size : t -> int

(** Intern a term, returning its id (allocating one if new). *)
val id_of : t -> Term.t -> int

(** Lookup without interning. *)
val find : t -> Term.t -> int option

(** [term_of t id] raises [Invalid_argument] on an unallocated id. *)
val term_of : t -> int -> Term.t

val mem : t -> Term.t -> bool

(** Iterate all (id, term) pairs in id order. *)
val iter : (int -> Term.t -> unit) -> t -> unit
