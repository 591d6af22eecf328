(** Two-way dictionary encoding of RDF terms to dense integer ids.

    Every store in this repository (DB2RDF, the triple-store and vertical
    baselines, the native reference store) shares one dictionary per
    dataset so that query answers can be compared id-for-id. Ids start at
    0 and are dense, which also makes them usable as array indexes in the
    coloring and statistics code. *)

type t = {
  ids : (Term.t, int) Hashtbl.t;
  mutable terms : Term.t array;
  mutable next : int;
}

let create () = { ids = Hashtbl.create 1024; terms = Array.make 1024 (Term.iri ""); next = 0 }

let size t = t.next

(** Intern a term, returning its id (allocating one if new). *)
let id_of t term =
  match Hashtbl.find_opt t.ids term with
  | Some id -> id
  | None ->
    let id = t.next in
    if id = Array.length t.terms then begin
      let bigger = Array.make (2 * id) (Term.iri "") in
      Array.blit t.terms 0 bigger 0 id;
      t.terms <- bigger
    end;
    t.terms.(id) <- term;
    Hashtbl.add t.ids term id;
    t.next <- id + 1;
    id

(** Lookup without interning. *)
let find t term = Hashtbl.find_opt t.ids term

let term_of t id =
  if id < 0 || id >= t.next then invalid_arg "Dictionary.term_of: bad id";
  t.terms.(id)

let mem t term = Hashtbl.mem t.ids term

let iter f t =
  for id = 0 to t.next - 1 do
    f id t.terms.(id)
  done
