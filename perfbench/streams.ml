(** The three workloads and their seeded request streams. Datasets come
    from the repository's deterministic generators; the seed drives only
    which requests are issued, in which order, and which entities the
    writes touch. Every stream is stratified: each request template gets
    a fixed share of the requests, so two seeds differ in constants and
    order but not in mix. *)

type op =
  | Read of { kind : string; text : string }
  | Write of { kind : string; stmts : string list }
      (** one logical write; each statement is timed on its own *)

type dataset = Lubm | Dbpedia

type workload = {
  name : string;
  dataset : dataset;
  scale : int;  (** generator size in triples *)
  options : Db2rdf.Engine.options;
  ops_per_second : int;
      (** requests per second of [--seconds]: the work is fixed, sized
          so the measured phase lasts about that long on a 2-vCPU host *)
  write_every : int;  (** every n-th request is a write; 0 = read-only *)
  warmup : int;  (** untimed reads before the measured phase *)
  warmup_is_prefix : bool;
      (** warm up on a prefix of the measured stream (fills the caches
          the stream will hit) instead of a disjoint stream *)
}

let compressed = { Db2rdf.Engine.default_options with compress = true }

let workloads =
  [ { name = "lubm-lookup"; dataset = Lubm; scale = 100_000;
      options = Db2rdf.Engine.default_options; ops_per_second = 5000;
      write_every = 0; warmup = 1000; warmup_is_prefix = false };
    { name = "dbpedia-analytic"; dataset = Dbpedia; scale = 20_000;
      options = compressed; ops_per_second = 1200; write_every = 0;
      warmup = 500; warmup_is_prefix = true };
    { name = "lubm-mixed-rw"; dataset = Lubm; scale = 25_000;
      options = compressed; ops_per_second = 1800; write_every = 4;
      warmup = 500; warmup_is_prefix = false } ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let generate_dataset w ~scale =
  match w.dataset with
  | Lubm -> Workloads.Lubm.generate ~scale
  | Dbpedia -> Workloads.Dbpedia.generate ~scale

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let starts_at s i tok =
  let n = String.length tok in
  i + n <= String.length s && String.sub s i n = tok

(* Replace every occurrence of each token at once, so a replacement is
   never rewritten by a later pair. A token that does not occur means
   the template changed under the generator: fail loudly. *)
let subst text pairs =
  List.iter
    (fun (tok, _) ->
      let rec occurs i = i < String.length text && (starts_at text i tok || occurs (i + 1)) in
      if not (occurs 0) then
        failwith (Printf.sprintf "template lacks constant %s: %s" tok text))
    pairs;
  let b = Buffer.create (String.length text + 64) in
  let rec go i =
    if i < String.length text then
      match List.find_opt (fun (tok, _) -> starts_at text i tok) pairs with
      | Some (tok, v) -> Buffer.add_string b v; go (i + String.length tok)
      | None -> Buffer.add_char b text.[i]; go (i + 1)
  in
  go 0;
  Buffer.contents b

let tok iri = "<" ^ iri ^ ">"

let pick rng a = a.(Workloads.Dist.int rng (Array.length a))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Workloads.Dist.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [n] template indexes in [0, k), each used n/k times (±1), in seeded
   order. *)
let stratified rng ~k n =
  let a = Array.init n (fun i -> i mod k) in
  shuffle rng a;
  a

let iri_of = function Rdf.Term.Iri s -> Some s | _ -> None

(* Distinct values in first-seen order. *)
let distinct () =
  let seen = Hashtbl.create 1024 and acc = ref [] in
  let add x = if not (Hashtbl.mem seen x) then (Hashtbl.add seen x (); acc := x :: !acc) in
  let get () = Array.of_list (List.rev !acc) in
  (add, get)

(* ------------------------------------------------------------------ *)
(* LUBM: point and star lookups                                        *)
(* ------------------------------------------------------------------ *)

type lubm_pools = {
  subjects : string array;
  objects : string array;  (** IRI objects of non-type triples *)
  universities : string array;
  departments : string array;
  faculty : string array;
  grad_courses : string array;
  courses : string array;
  publications : string array;
  phone : (string * string) array;  (** faculty telephone at load *)
  email : (string * string) array;  (** faculty and graduate email *)
}

let lubm_pools triples =
  let u = Workloads.Lubm.u in
  let subj_add, subj = distinct () and obj_add, obj = distinct () in
  let classes = Hashtbl.create 16 in
  let phone = ref [] and email = ref [] in
  List.iter
    (fun (t : Rdf.Triple.t) ->
      match iri_of t.Rdf.Triple.s, iri_of t.Rdf.Triple.p with
      | Some s, Some p ->
        subj_add s;
        if p = u "type" then
          Option.iter
            (fun c -> Hashtbl.replace classes c (s :: Option.value ~default:[] (Hashtbl.find_opt classes c)))
            (iri_of t.Rdf.Triple.o)
        else begin
          Option.iter obj_add (iri_of t.Rdf.Triple.o);
          match t.Rdf.Triple.o with
          | Rdf.Term.Lit { lex; _ } when p = u "telephone" -> phone := (s, lex) :: !phone
          | Rdf.Term.Lit { lex; _ } when p = u "emailAddress" -> email := (s, lex) :: !email
          | _ -> ()
        end
      | _ -> ())
    triples;
  let cls names =
    Array.of_list
      (List.concat_map
         (fun c -> List.rev (Option.value ~default:[] (Hashtbl.find_opt classes (u c))))
         names)
  in
  { subjects = subj (); objects = obj ();
    universities = cls [ "University" ]; departments = cls [ "Department" ];
    faculty = cls [ "FullProfessor"; "AssociateProfessor"; "AssistantProfessor"; "Lecturer" ];
    grad_courses = cls [ "GraduateCourse" ]; courses = cls [ "Course" ];
    publications = cls [ "Publication" ];
    phone = Array.of_list (List.rev !phone); email = Array.of_list (List.rev !email) }

(* A read template: its text and, per constant slot, the inverse CDF
   that maps a probability to the slot's replacement pairs. *)
type template = {
  t_kind : string;
  t_text : string;
  slots : (float -> (string * string) list) list;
}

(* [m] draws from the inverse CDF [inv], one per equal-probability
   stratum, jittered by the seed, in seeded order. How often each popular
   value occurs is then the same under every seed; the seed moves the
   order and the tail. *)
let stratified_draws rng m inv =
  let a =
    Array.init m (fun j -> inv ((float_of_int j +. Workloads.Dist.float rng) /. float_of_int m))
  in
  shuffle rng a;
  a

let uniform pool u =
  pool.(min (Array.length pool - 1) (int_of_float (u *. float_of_int (Array.length pool))))

(* Inverse CDF of the Zipf law over ranks [0, n): P(k) ~ 1/(k+1)^s. *)
let zipf ~n ~s =
  let cdf = Array.make n 0.0 and total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !total
  done;
  fun u ->
    let x = u *. !total in
    let rec bsearch lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < x then bsearch (mid + 1) hi else bsearch lo mid
    in
    bsearch 0 (n - 1)

(* [n] reads, every template an equal share, each slot's constants
   stratified over its template's occurrences. *)
let reads_of rng (templates : template array) n =
  let kinds = stratified rng ~k:(Array.length templates) n in
  let counts = Array.make (Array.length templates) 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) kinds;
  let draws =
    Array.mapi (fun k t -> List.map (stratified_draws rng counts.(k)) t.slots) templates
  in
  let cursor = Array.make (Array.length templates) 0 in
  Array.map
    (fun k ->
      let c = cursor.(k) in
      cursor.(k) <- c + 1;
      let t = templates.(k) in
      Read { kind = t.t_kind; text = subst t.t_text (List.concat_map (fun d -> d.(c)) draws.(k)) })
    kinds

(* The describe and reverse lookups plus the LQ texts of
   Workloads.Lubm.queries, each with the constant it names replaced by
   one drawn uniformly from the matching pool of the generated data. *)
let lubm_templates (p : lubm_pools) =
  let lq name = List.assoc name Workloads.Lubm.queries in
  let ns = Workloads.Lubm.ns in
  let dept0 = tok (ns ^ "University0/Department0") in
  let person0 = tok (ns ^ "University0/Department0/Person0") in
  let gcourse0 = tok (ns ^ "University0/Department0/GraduateCourse0") in
  let univ0 = tok (ns ^ "University0") in
  let t t_kind t_text slot pool = { t_kind; t_text; slots = [ (fun u -> [ (slot, tok (uniform pool u)) ]) ] } in
  [| t "describe" "SELECT ?p ?o WHERE { <C> ?p ?o }" "<C>" p.subjects;
     t "reverse" "SELECT ?s ?p WHERE { ?s ?p <C> }" "<C>" p.objects;
     t "LQ1" (lq "LQ1") gcourse0 p.grad_courses;
     t "LQ3" (lq "LQ3") person0 p.faculty;
     t "LQ4" (lq "LQ4") dept0 p.departments;
     t "LQ5" (lq "LQ5") dept0 p.departments;
     t "LQ7" (lq "LQ7") person0 p.faculty;
     t "LQ10" (lq "LQ10") gcourse0 p.grad_courses;
     t "LQ13" (lq "LQ13") univ0 p.universities |]

let lubm_reads rng pools n = reads_of rng (lubm_templates pools) n

(* The writes of lubm-mixed-rw, in shares 2:2:1: a new undergraduate
   attached to an existing department and two courses; an existing
   person's telephone or email replaced (DELETE DATA + INSERT DATA, which
   moves the person's packed row to the delta side); an existing
   publication retired by DELETE WHERE (each at most once; once all are
   gone, a contact change takes the slot). The generator tracks current
   contact values so every DELETE DATA removes a triple that is
   present. *)
let lubm_writes rng (p : lubm_pools) n =
  let u = Workloads.Lubm.u in
  let contact = Hashtbl.create 4096 in
  Array.iter (fun (s, v) -> Hashtbl.replace contact (s, "telephone") v) p.phone;
  Array.iter (fun (s, v) -> Hashtbl.replace contact (s, "emailAddress") v) p.email;
  let pubs = Array.copy p.publications in
  shuffle rng pubs;
  let next_pub = ref 0 in
  let insert_student i =
    let d = pick rng p.departments in
    let s = tok (Printf.sprintf "%s/NewStudent%d" d i) in
    let n_courses = Array.length p.courses in
    let i1 = Workloads.Dist.int rng n_courses in
    let c1 = p.courses.(i1)
    and c2 = p.courses.((i1 + 1 + Workloads.Dist.int rng (n_courses - 1)) mod n_courses) in
    Write
      { kind = "insert_student";
        stmts =
          [ Printf.sprintf
              "INSERT DATA { %s <%s> <%s> . %s <%s> <%s> . %s <%s> \"NewStudent%d\" . \
               %s <%s> \"newstudent%d@example.edu\" . %s <%s> <%s> . %s <%s> <%s> }"
              s (u "type") (u "UndergraduateStudent") s (u "memberOf") d s (u "name") i s
              (u "emailAddress") i s (u "takesCourse") c1 s (u "takesCourse") c2 ] }
  in
  let change_contact i =
    let person, field =
      if Workloads.Dist.bool rng 0.5 then (fst (pick rng p.phone), "telephone")
      else (fst (pick rng p.email), "emailAddress")
    in
    let old = Hashtbl.find contact (person, field) in
    let fresh = Printf.sprintf "%s-v%d" old i in
    Hashtbl.replace contact (person, field) fresh;
    Write
      { kind = "change_contact";
        stmts =
          [ Printf.sprintf "DELETE DATA { <%s> <%s> \"%s\" }" person (u field) old;
            Printf.sprintf "INSERT DATA { <%s> <%s> \"%s\" }" person (u field) fresh ] }
  in
  Array.mapi
    (fun i k ->
      if k < 2 then insert_student i
      else if k < 4 || !next_pub >= Array.length pubs then change_contact i
      else begin
        let pub = pubs.(!next_pub) in
        incr next_pub;
        Write { kind = "retire_publication"; stmts = [ Printf.sprintf "DELETE WHERE { <%s> ?p ?o }" pub ] }
      end)
    (stratified rng ~k:5 n)

(* ------------------------------------------------------------------ *)
(* DBpedia: DQ1-DQ20 with Zipf-skewed constants                         *)
(* ------------------------------------------------------------------ *)

(* The DQ texts of Workloads.Dbpedia.queries with their constants drawn
   by Zipf rank. Rank order is fixed by the dataset (entity E0 is the
   most linked, Type0 the most populous type), so popular texts repeat,
   the tail does not, and the popular texts are the same under every
   seed. *)
let dbpedia_reads rng triples n =
  let ns = Workloads.Dbpedia.ns in
  let n_entities =
    let add, get = distinct () in
    List.iter (fun (t : Rdf.Triple.t) -> add t.Rdf.Triple.s) triples;
    Array.length (get ())
  in
  let entity_rank = zipf ~n:n_entities ~s:1.0 and type_rank = zipf ~n:40 ~s:1.2 in
  let threshold_rank = zipf ~n:50 ~s:1.0 and regex_rank = zipf ~n:990 ~s:1.0 in
  let entity k = tok (Printf.sprintf "%sresource/E%d" ns k) in
  let ty k = tok (Printf.sprintf "%sontology/Type%d" ns k) in
  let e k u = [ (entity k, entity (entity_rank u)) ] and t k u = [ (ty k, ty (type_rank u)) ] in
  let slots = function
    | "DQ1" -> [ e 5 ]
    | "DQ5" -> [ e 3 ]
    | "DQ10" -> [ e 7 ]
    | "DQ14" -> [ e 11 ]
    | "DQ20" -> [ e 20; e 21 ]
    | "DQ4" ->
      [ t 0; (fun u -> [ ("> 500000", Printf.sprintf "> %d" (500_000 + (10_000 * threshold_rank u))) ]) ]
    | "DQ12" ->
      [ (fun u ->
          let lo = 20_000 * threshold_rank u in
          [ (">= 100000", Printf.sprintf ">= %d" lo); ("<= 200000", Printf.sprintf "<= %d" (lo + 100_000)) ]) ]
    | "DQ9" -> [ (fun u -> [ ("\"Entity 12\"", Printf.sprintf "\"Entity %d\"" (10 + regex_rank u)) ]) ]
    | "DQ7" | "DQ18" -> [ t 0; t 1 ]
    | "DQ6" | "DQ8" -> [ t 1 ]
    | "DQ17" -> []
    | _ -> [ t 0 ]
  in
  reads_of rng
    (Array.of_list
       (List.map (fun (t_kind, t_text) -> { t_kind; t_text; slots = slots t_kind }) Workloads.Dbpedia.queries))
    n

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

type streams = { warmup : op array; measured : op array }

let make w triples ~seed ~n_ops ~n_warmup =
  let rng salt = Workloads.Dist.create ((seed * 7919) + salt) in
  let pools = lazy (lubm_pools triples) in
  let reads r n =
    match w.dataset with
    | Lubm -> lubm_reads r (Lazy.force pools) n
    | Dbpedia -> dbpedia_reads r triples n
  in
  let measured =
    if w.write_every = 0 then reads (rng 1) n_ops
    else begin
      let n_writes = n_ops / w.write_every in
      let r = reads (rng 1) (n_ops - n_writes) in
      let wr = lubm_writes (rng 2) (Lazy.force pools) n_writes in
      Array.init n_ops (fun i ->
          if (i + 1) mod w.write_every = 0 then wr.((i + 1) / w.write_every - 1)
          else r.(i - ((i + 1) / w.write_every)))
    end
  in
  let warmup =
    if w.warmup_is_prefix then Array.sub measured 0 (min n_warmup n_ops)
    else reads (rng 3) n_warmup
  in
  { warmup; measured }

(** [k] contiguous slices of the stream, as equal as possible. *)
let slices ops k =
  let n = Array.length ops in
  List.init k (fun i -> Array.sub ops (i * n / k) (((i + 1) * n / k) - (i * n / k)))

(** Per-kind request counts, sorted by kind. *)
let kind_counts ops =
  let tbl = Hashtbl.create 32 and order = ref [] in
  Array.iter
    (fun op ->
      let k = match op with Read { kind; _ } | Write { kind; _ } -> kind in
      match Hashtbl.find_opt tbl k with
      | Some c -> incr c
      | None -> Hashtbl.add tbl k (ref 1); order := k :: !order)
    ops;
  List.map (fun k -> (k, !(Hashtbl.find tbl k))) (List.sort compare !order)

(** Reads whose exact text already occurred earlier in the stream, and
    all reads: repeats are what the statement and scan caches feed on. *)
let repeats ops =
  let seen = Hashtbl.create 4096 and reads = ref 0 and repeats = ref 0 in
  Array.iter
    (function
      | Read { text; _ } ->
        incr reads;
        if Hashtbl.mem seen text then incr repeats else Hashtbl.add seen text ()
      | Write _ -> ())
    ops;
  (!repeats, !reads)

(** Fingerprint of the request stream (changes with the seed). *)
let fingerprint ops =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Array.to_list
             (Array.map
                (function Read { text; _ } -> text | Write { stmts; _ } -> String.concat ";" stmts)
                ops))))
