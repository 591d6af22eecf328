(** Leapfrog triejoin — the execution of {!Planner.Wcoj}.

    Each atom becomes a sorted in-memory trie: its matching rows,
    filtered by the atom's constant columns, projected to its
    join-variable columns and sorted lexicographically in the global
    variable order. Matching rows come from the table's existing
    hash-index postings when a constant column is indexed (the int-array
    posting is the "sorted iterator" seed — DPH/RPH entry lookups), and
    from a full row iteration otherwise; rows of a table's packed main
    decode lazily ({!Table.iter} / {!Table.cell} route through
    {!Packed}), so building a trie never re-encodes a table.

    The join then intersects one variable at a time in [var_order]:
    all participating atoms leapfrog (seek to the maximum current key,
    galloping via binary search) until their keys agree, the variable
    binds, and the search descends with each atom constrained to its
    matching run. Bindings are enumerated in ascending {!Value.compare}
    order at every level, and ties (duplicate source rows) multiply out
    as run lengths, so the emitted multiset equals the binary join
    tree's and the emission order is a pure function of the statement
    and the data — sequential and deterministic, hence bit-identical
    across executor domain counts and storage encodings.

    SQL equality semantics: a NULL cell never joins (rows with NULL in
    any equality-constrained column are dropped while building the
    trie), but a projection-only column — a variable class with a
    single member column, which no equality conjunct can mention —
    passes NULLs through like the binary plan's projection would. *)

type trie = {
  data : Value.t array array;  (** sorted tuples, one per matching row *)
  ndepth : int;  (** trie depth = distinct join variables of the atom *)
  vars : int array;  (** local depth -> global variable id *)
  lo : int array;  (** active range starts, indexed by depth (0..ndepth) *)
  hi : int array;  (** active range ends *)
  cur : int array;  (** per-depth search cursor while intersecting *)
  count0 : int;  (** matching-row count (multiplicity of 0-depth atoms) *)
}

(* First index in [cur.(d), hi.(d)) whose depth-[d] value is >= [target]
   (the range holds a fixed prefix, so only column [d] is compared). *)
let seek_ge tr d target =
  let lo = ref tr.cur.(d) and hi = ref tr.hi.(d) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare tr.data.(mid).(d) target < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* First index in [from, hi.(d)) whose depth-[d] value is > [target]. *)
let seek_gt tr d from target =
  let lo = ref from and hi = ref tr.hi.(d) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare tr.data.(mid).(d) target <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* A trie build in progress: the atom's prepared column positions and
   filters, its accumulating matches, and its access path. Atoms that
   must scan (no usable indexed constant) are grouped per table so every
   table is iterated once for ALL its scanning atoms, not once per
   atom — the dominant cost of the operator. *)
type builder = {
  b_table : Table.t;
  b_name : string;
  b_indexed : (int * Value.t) option;  (** usable indexed constant *)
  b_dead : bool;  (** a constant is NULL: the atom matches nothing *)
  b_consider : int -> (int -> int -> Value.t) -> unit;
  b_finish : unit -> trie;
}

(* Generic lexicographic sort of matched tuples — the fallback when the
   packed int accumulator below could not hold a row. *)
let sort_tuples ndepth (data : Value.t array array) =
  if ndepth > 0 then
    Array.sort
      (fun (x : Value.t array) (y : Value.t array) ->
        let rec go d =
          if d = ndepth then 0
          else
            match Value.compare x.(d) y.(d) with 0 -> go (d + 1) | c -> c
        in
        go 0)
      data;
  data

let pack_max = 1 lsl 30

(** Prepare one atom's trie build. [rank.(v)] is the variable's position
    in the global order; [members.(v)] its member-column count across
    all atoms (1 = projection-only, NULLs pass through). *)
let prepare_trie ~tick (stats : Opstats.t) db (rank : int array)
    (members : int array) (a : Wcoj.atom) : builder =
  let t = Database.find_exn db a.Wcoj.w_table in
  let sch = Table.schema t in
  let pos c = Schema.position_exn sch c in
  let consts =
    Array.of_list
      (List.filter_map
         (function
           | c, Wcoj.W_const v -> Some (pos c, v) | _, Wcoj.W_var _ -> None)
         a.Wcoj.w_cols)
  in
  let var_cols =
    List.sort_uniq compare
      (List.filter_map
         (function c, Wcoj.W_var v -> Some (pos c, v) | _, Wcoj.W_const _ -> None)
         a.Wcoj.w_cols)
  in
  (* One trie column per distinct variable, in global order; further
     columns of the same variable become intra-row equality checks. *)
  let vars =
    List.sort_uniq compare (List.map snd var_cols)
    |> List.sort (fun x y -> compare rank.(x) rank.(y))
    |> Array.of_list
  in
  let ndepth = Array.length vars in
  let primary = Array.make ndepth 0 in
  let intra = ref [] in
  Array.iteri
    (fun d v ->
      let cols = List.filter_map
          (fun (p, v') -> if v' = v then Some p else None) var_cols in
      match cols with
      | [] -> assert false
      | p0 :: rest ->
        primary.(d) <- p0;
        List.iter (fun p -> intra := (p0, p) :: !intra) rest)
    vars;
  let intra = Array.of_list !intra in
  let nullable =
    Array.init ndepth (fun d -> members.(vars.(d)) <= 1)
  in
  (* Matched tuples accumulate PACKED when possible: at depth 1–2 with
     every cell a small non-negative Int (dictionary ids — the common
     case) a whole tuple folds losslessly into one native int, so the
     scan pushes plain ints into a growable buffer and the finish is a
     single monomorphic [Array.sort Int.compare] — no per-row
     allocation, no polymorphic comparator. The first row that does not
     fit (a NULL passing through a projection-only column, a string, an
     oversized id) demotes the accumulated keys back into tuples and
     the build continues generically; the sorted order is identical
     either way. *)
  let packed = ref (ndepth >= 1 && ndepth <= 2) in
  let keys = ref (Array.make 64 0) and nkeys = ref 0 in
  let rows = ref [] and nmatch = ref 0 and scanned = ref 0 in
  let push_key k =
    if !nkeys = Array.length !keys then begin
      let bigger = Array.make (2 * !nkeys) 0 in
      Array.blit !keys 0 bigger 0 !nkeys;
      keys := bigger
    end;
    !keys.(!nkeys) <- k;
    incr nkeys
  in
  let unpack k =
    if ndepth = 1 then [| Value.Int k |]
    else [| Value.Int (k lsr 30); Value.Int (k land (pack_max - 1)) |]
  in
  let demote () =
    for i = 0 to !nkeys - 1 do
      rows := unpack !keys.(i) :: !rows
    done;
    nkeys := 0;
    packed := false
  in
  let nconsts = Array.length consts and nintra = Array.length intra in
  let scratch = Array.make (max 1 ndepth) Value.Null in
  let consider rid cell =
    incr scanned;
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < nconsts do
      let p, v = consts.(!i) in
      let c = cell rid p in
      if Value.is_null c || not (Value.equal c v) then ok := false;
      incr i
    done;
    i := 0;
    while !ok && !i < nintra do
      let p0, p1 = intra.(!i) in
      let a = cell rid p0 and b = cell rid p1 in
      if Value.is_null a || Value.is_null b || not (Value.equal a b) then
        ok := false;
      incr i
    done;
    if !ok then begin
      let d = ref 0 in
      while !ok && !d < ndepth do
        let c = cell rid primary.(!d) in
        if Value.is_null c && not nullable.(!d) then ok := false
        else scratch.(!d) <- c;
        incr d
      done;
      if !ok then begin
        incr nmatch;
        let key =
          if not !packed then -1
          else
            match scratch.(0) with
            | Value.Int x when x >= 0 && x < pack_max ->
              if ndepth = 1 then x
              else (
                match scratch.(1) with
                | Value.Int y when y >= 0 && y < pack_max ->
                  (x lsl 30) lor y
                | _ -> -1)
            | _ -> -1
        in
        if key >= 0 then push_key key
        else begin
          if !packed then demote ();
          rows := Array.copy scratch :: !rows
        end
      end
    end
  in
  let finish () =
    tick !scanned;
    stats.Opstats.rows_in <- stats.Opstats.rows_in + !nmatch;
    let data =
      if !packed then begin
        let ks = Array.sub !keys 0 !nkeys in
        Array.sort Int.compare ks;
        Array.map unpack ks
      end
      else sort_tuples ndepth (Array.of_list !rows)
    in
    let n = Array.length data in
    { data; ndepth; vars;
      lo = (let a = Array.make (ndepth + 1) 0 in a);
      hi = (let a = Array.make (ndepth + 1) n in a);
      cur = Array.make (max 1 ndepth) 0;
      count0 = !nmatch }
  in
  let dead =
    Array.exists (fun (_, v) -> Value.is_null v) consts
  in
  let indexed_const =
    if dead then None
    else
      Array.to_list consts
      |> List.find_opt (fun (p, _) -> Table.has_index t p)
  in
  { b_table = t; b_name = a.Wcoj.w_table; b_indexed = indexed_const;
    b_dead = dead; b_consider = consider; b_finish = finish }

(** Build every atom's trie: index-driven atoms probe their postings;
    the rest are grouped so each table is scanned once for all of its
    atoms. *)
let build_tries ~tick stats db rank members (atoms : Wcoj.atom list) :
    trie array =
  let builders = List.map (prepare_trie ~tick stats db rank members) atoms in
  let scan_groups : (string, builder list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun b ->
      if b.b_dead then ()
      else
        match b.b_indexed with
        | Some (p, v) ->
          stats.Opstats.index_probes <- stats.Opstats.index_probes + 1;
          let cell rid q = Table.cell b.b_table rid q in
          Table.lookup_iter b.b_table p v (fun rid -> b.b_consider rid cell)
        | None ->
          (match Hashtbl.find_opt scan_groups b.b_name with
           | Some l -> l := b :: !l
           | None -> Hashtbl.add scan_groups b.b_name (ref [ b ])))
    builders;
  Hashtbl.iter
    (fun _ group ->
      let bs = Array.of_list !group in
      let t = bs.(0).b_table in
      Table.iter
        (fun rid row ->
          let cell _ q = row.(q) in
          Array.iter (fun b -> b.b_consider rid cell) bs)
        t)
    scan_groups;
  Array.of_list (List.map (fun b -> b.b_finish ()) builders)

let run ~(tick : int -> unit) ~(stats : Opstats.t) db
    (atoms : Wcoj.atom list) ~(var_order : int array) ~(n_vars : int)
    ~(outputs : (string * string * int) list) : Batch.t =
  let rank = Array.make n_vars 0 in
  Array.iteri (fun i v -> rank.(v) <- i) var_order;
  let members = Array.make (max 1 n_vars) 0 in
  List.iter
    (fun a ->
      List.iter
        (function
          | _, Wcoj.W_var v -> members.(v) <- members.(v) + 1
          | _, Wcoj.W_const _ -> ())
        a.Wcoj.w_cols)
    atoms;
  let tries = build_tries ~tick stats db rank members atoms in
  let out_layout =
    Array.of_list (List.map (fun (a, c, _) -> (Some a, c)) outputs)
  in
  let out_vars = Array.of_list (List.map (fun (_, _, v) -> v) outputs) in
  let out = Batch.create ~capacity:64 out_layout in
  let empty =
    Array.exists
      (fun tr -> if tr.ndepth = 0 then tr.count0 = 0 else tr.hi.(0) = 0)
      tries
  in
  if not empty then begin
    (* Atoms participating at each global depth, with their local depth. *)
    let parts_at =
      Array.init n_vars (fun g ->
          let v = var_order.(g) in
          Array.of_list
            (List.concat_map
               (fun tr ->
                 let d = ref (-1) in
                 Array.iteri (fun i v' -> if v' = v then d := i) tr.vars;
                 if !d >= 0 then [ (tr, !d) ] else [])
               (Array.to_list tries)))
    in
    let binding = Array.make (max 1 n_vars) Value.Null in
    let cells = Array.make (Array.length out_vars) Cell.null and side = Cell.side () in
    let rec solve g =
      if g = n_vars then begin
        let mult = ref 1 in
        Array.iter
          (fun tr ->
            mult :=
              !mult
              * (if tr.ndepth = 0 then tr.count0
                 else tr.hi.(tr.ndepth) - tr.lo.(tr.ndepth)))
          tries;
        if !mult > 0 then begin
          Cell.clear side;
          for j = 0 to Array.length out_vars - 1 do
            cells.(j) <- Cell.encode side binding.(out_vars.(j))
          done;
          tick !mult;
          for _ = 1 to !mult do
            Batch.push_cells out cells side
          done
        end
      end
      else begin
        let parts = parts_at.(g) in
        let k = Array.length parts in
        let key (tr, d) = tr.data.(tr.cur.(d)).(d) in
        let alive = ref true in
        Array.iter
          (fun (tr, d) ->
            tr.cur.(d) <- tr.lo.(d);
            if tr.cur.(d) >= tr.hi.(d) then alive := false)
          parts;
        if !alive then begin
          let cand = ref (key parts.(0)) in
          for i = 1 to k - 1 do
            let kk = key parts.(i) in
            if Value.compare kk !cand > 0 then cand := kk
          done;
          while !alive do
            tick k;
            (* Leapfrog: seek every atom to >= candidate; any overshoot
               raises the candidate and the pass restarts. *)
            let aligned = ref true in
            Array.iter
              (fun ((tr, d) as p) ->
                if !alive then begin
                  tr.cur.(d) <- seek_ge tr d !cand;
                  if tr.cur.(d) >= tr.hi.(d) then alive := false
                  else
                    let kk = key p in
                    if Value.compare kk !cand > 0 then begin
                      cand := kk;
                      aligned := false
                    end
                end)
              parts;
            if !alive && !aligned then begin
              binding.(var_order.(g)) <- !cand;
              Array.iter
                (fun (tr, d) ->
                  tr.lo.(d + 1) <- tr.cur.(d);
                  tr.hi.(d + 1) <- seek_gt tr d tr.cur.(d) !cand)
                parts;
              solve (g + 1);
              (* Next binding: advance the first atom past the run. *)
              let tr0, d0 = parts.(0) in
              tr0.cur.(d0) <- tr0.hi.(d0 + 1);
              if tr0.cur.(d0) >= tr0.hi.(d0) then alive := false
              else cand := key parts.(0)
            end
          done
        end
      end
    in
    solve 0
  end;
  out
