(** Compressed columnar storage: bit-packed dictionary columns with
    per-block zone maps.

    A packed relation stores each column as a flat [int array] of
    fixed-width bit fields over small integer {e codes}, one code per
    row slot. Code 0 is reserved for NULL. Two encodings are chosen
    per column at pack time, whichever yields the narrower field:

    - {e Direct}: every non-null cell is a non-negative [Value.Int]
      (dictionary ids — the dominant DB2RDF case) and the code is the
      integer plus one. No decode table at all.
    - {e Dict}: codes index a decode array of the column's distinct
      values sorted by {!Value.compare}, so code order is value order
      and a constant finds its code by binary search. Width is
      [bits(#distinct)].

    Either way a code's rank among the column's codes is its value's
    rank among the column's values, and an image is a canonical
    function of its cells: the same slots pack to the same words,
    decode array and zone maps however they got there. Among values
    {!Value.equal} makes equal (NaN payloads, [0.0] and [-0.0]) the
    first occurrence in slot order is the one the column decodes to.

    Packing is a merge ({!merge}): an old image plus new slots. The old
    slots keep their dictionary — its sorted values and the new slots'
    sorted distinct values merge into one old-to-new code map, and old
    fields are remapped as ints — so only the new slots' cells are ever
    hashed or compared. A column whose old codes and width both stay
    copies its old words, and an old block that lost no live slot keeps
    its zone. Packing rows from scratch is the merge into {!empty}.

    Fields are aligned: a 63-bit word holds [63 / width] fields and no
    field straddles a word boundary, so a field read is one load, one
    shift and one mask.

    Every 1024-row block of every column also carries a {e zone map}:
    null/non-null counts, a float min/max over the numeric cells and a
    {!Value.compare} min/max over all non-null cells — the decoded
    smallest and largest live code of the block. A conservative
    predicate-vs-zone test lets scans skip whole blocks without
    unpacking a single field; the split between the numeric and the
    total-order range is what keeps skipping sound under
    {!Expr_eval}'s Int/Real comparison coercion.

    Equality predicates additionally compile to {e candidate codes}
    and run word-at-a-time: the constant's code is broadcast across
    the word and a SWAR zero-field test rejects 63/width rows per
    compare (Hacker's Delight 6-1; exact for existence, per-field
    confirmation on hits). The caller re-checks every surviving row
    with the original compiled predicate, so both pruning layers only
    ever have to be conservative — output stays bit-identical to the
    uncompressed scan. *)

(** Rows per zone-map block. Parallel scan morsels align to this so a
    block is never split across workers. *)
let block_rows = 1024

type zone = {
  z_nonnull : int;  (* non-null cells among live rows of the block *)
  z_nulls : int;  (* null cells among live rows *)
  z_nnum : int;  (* numeric (Int/Real) cells among the non-null ones *)
  z_num_lo : float;  (* float range of the numeric cells (NaNs excluded *)
  z_num_hi : float;  (* from the range but counted in [z_nnum]) *)
  z_has_nan : bool;  (* some numeric cell is NaN *)
  z_lo : Value.t;  (* decode of the block's smallest live non-null code *)
  z_hi : Value.t;  (* ... and of its largest *)
}

type col = {
  width : int;  (* bits per field, 1..62 *)
  fpw : int;  (* fields per 63-bit word *)
  fmask : int;  (* (1 lsl width) - 1 *)
  ones : int;  (* 1 broadcast across the fields of a word *)
  highs : int;  (* 1 lsl (width-1) broadcast across the fields *)
  words : int array;
  direct : bool;  (* code = int value + 1, no decode table *)
  dmax : int;  (* Direct: largest int value of the column; 0 when Dict *)
  decode : Value.t array;
      (* Dict: code-1 -> value, strictly increasing under Value.compare;
         [||] when direct *)
  zones : zone array;  (* one per block; [||] when packed without zones *)
  boxed_cell_words : int;
      (* heap words the column's cells would cost as boxed values
         (excluding the per-row array), for the compression report *)
}

type t = { nrows : int; cols : col array }

(** The image of no rows: a table's main before its first merge. *)
let empty = { nrows = 0; cols = [||] }

let nrows t = t.nrows
let ncols t = Array.length t.cols
let block_count t = (t.nrows + block_rows - 1) / block_rows
let has_zones t = Array.length t.cols > 0 && t.cols.(0).zones <> [||]

(* Heap words of one boxed value: variant blocks are header + field;
   strings add their own block. Shared strings are counted per cell —
   this is an estimate for reporting, not an allocator. *)
let value_heap_words = function
  | Value.Null -> 0
  | Value.Bool _ | Value.Int _ | Value.Lid _ | Value.Real _ -> 2
  | Value.Str s -> 2 + 1 + ((String.length s + 8) / 8)

let bits_needed n =
  let rec go b v = if v = 0 then max 1 b else go (b + 1) (v lsr 1) in
  go 0 n

let broadcast width fpw v =
  let rec go acc i = if i = fpw then acc else go ((acc lsl width) lor v) (i + 1) in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Field access                                                        *)
(* ------------------------------------------------------------------ *)

let[@inline] code_at c rid = (c.words.(rid / c.fpw) lsr (rid mod c.fpw * c.width)) land c.fmask

let[@inline] decode_code c code =
  if code = 0 then Value.Null
  else if c.direct then Value.Int (code - 1)
  else c.decode.(code - 1)

(** [cell t rid pos] decodes one field. *)
let cell t rid pos =
  let c = t.cols.(pos) in
  decode_code c (code_at c rid)

(** Decode row [rid] into a fresh array. *)
let row t rid = Array.init (ncols t) (fun pos -> cell t rid pos)

(* The executor cell of a field: a Direct code is its int plus one, a
   Dict code names a shared decode value, encoded without a box unless
   it is a side value. *)
let[@inline] field_cell c side code =
  if code = 0 then Cell.null
  else if c.direct then Cell.of_int side (code - 1)
  else Cell.encode side c.decode.(code - 1)

(** [read_cols t rid positions cells side] writes the executor cells
    ({!Cell}) of only the listed column positions of row [rid] into
    [cells] at those same positions, side values into [side]; other
    slots of [cells] are left untouched (callers reuse it as scratch
    and only ever read the positions they asked for). *)
let read_cols t rid (positions : int array) (cells : int array) side =
  for i = 0 to Array.length positions - 1 do
    let pos = positions.(i) in
    let c = t.cols.(pos) in
    cells.(pos) <- field_cell c side (code_at c rid)
  done

(* ------------------------------------------------------------------ *)
(* Packing: a merge of an old image and new slots                      *)
(* ------------------------------------------------------------------ *)

(* The table that hands a column's new values their provisional ids:
   Value.equal/Value.hash, so NaN payloads and ±0.0 collapse exactly as
   they do under Value.compare; the first occurrence is kept. *)
module VT = Hashtbl.Make (struct
  type t = Value.t
  let equal = Value.equal
  let hash = Value.hash
end)

(* Scratch shared by every column of one merge. Each buffer only ever
   grows, so it is bounded by the largest column it served. *)
type scratch = {
  ids : int VT.t;  (* new value -> provisional id *)
  mutable vals : Value.t array;  (* provisional id -> first occurrence *)
  prov : int array;  (* new slot -> provisional id, -1 for NULL *)
  mutable ins : int array;
      (* provisional id -> index of the equal old value, or
         [-1 - insertion index] among the old values when there is none *)
  mutable dmap : int array;  (* provisional id -> new code *)
  mutable omap : int array;  (* old code -> new code *)
}

let grow a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* The first [i] in [0, n) with [not (below i)], for [below] monotone. *)
let lower_bound n (below : int -> bool) =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if below mid then lo := mid + 1 else hi := mid
  done;
  !lo

(* An old column's distinct values in Value.compare order: the [i]-th
   of [n] decodes to [value i] under old code [code i], and [find v]
   is the index of the first value not below [v]. A Dict column is its
   decode array; a Direct one is the set of codes its fields use. *)
type old_values = {
  n : int;
  value : int -> Value.t;
  code : int -> int;
  find : Value.t -> int;
}

let old_values c ~nrows =
  if not c.direct then
    let d = c.decode in
    let n = Array.length d in
    { n; value = Array.get d; code = succ;
      find = (fun v -> lower_bound n (fun i -> Value.compare d.(i) v < 0)) }
  else begin
    let used = Bytes.make (c.dmax + 2) '\000' in
    for rid = 0 to nrows - 1 do
      Bytes.set used (code_at c rid) '\001'
    done;
    let codes = ref [] in
    for k = c.dmax + 1 downto 1 do
      if Bytes.get used k = '\001' then codes := k :: !codes
    done;
    let codes = Array.of_list !codes in
    let n = Array.length codes in
    { n; value = (fun i -> Value.Int (codes.(i) - 1)); code = Array.get codes;
      find =
        (function
          | Value.Int x -> lower_bound n (fun i -> codes.(i) - 1 < x)
          | Value.Null | Value.Bool _ -> 0
          | Value.Real _ | Value.Str _ | Value.Lid _ -> n) }
  end

let no_old = { n = 0; value = (fun _ -> Value.Null); code = succ; find = (fun _ -> 0) }

(* One column of [merge]: slots below [base] come from old column [oc]
   (absent when [base = 0]), slots in [base, nrows) from [get]. *)
let merge_col s ~zones ~base ~nrows (get : int -> int -> Value.t) ~live ~block_live
    (oc : col option) pos =
  (* New slots: provisional ids, Direct feasibility, boxed size. *)
  VT.clear s.ids;
  let nv = ref 0 and new_ok = ref true and new_max = ref 0 in
  let boxed = ref (match oc with Some c -> c.boxed_cell_words | None -> 0) in
  for rid = base to nrows - 1 do
    let v = get rid pos in
    boxed := !boxed + value_heap_words v;
    s.prov.(rid - base) <-
      (match v with
       | Value.Null -> -1
       | _ -> (
         (match v with
          | Value.Int x when x >= 0 -> if x > !new_max then new_max := x
          | _ -> new_ok := false);
         match VT.find s.ids v with
         | id -> id
         | exception Not_found ->
           let id = !nv in
           VT.add s.ids v id;
           if id = Array.length s.vals then begin
             let bigger = Array.make (max 64 (2 * id)) Value.Null in
             Array.blit s.vals 0 bigger 0 id;
             s.vals <- bigger
           end;
           s.vals.(id) <- v;
           incr nv;
           id))
  done;
  let nd = !nv in
  (* Direct feasibility of the union: a Dict decode array is all
     non-negative Ints iff its two ends are (Ints sort contiguously). *)
  let old_ok, old_max =
    match oc with
    | None -> (true, 0)
    | Some c when c.direct -> (true, c.dmax)
    | Some c -> (
      let d = c.decode in
      let n = Array.length d in
      if n = 0 then (true, 0)
      else
        match (d.(0), d.(n - 1)) with
        | Value.Int x, Value.Int y when x >= 0 -> (true, y)
        | _ -> (false, 0))
  in
  let direct_ok = old_ok && !new_ok and dmax = max old_max !new_max in
  let direct_width = bits_needed (dmax + 1) in
  (* A Direct column whose width holds the new values stays Direct: its
     old distinct count already needed at least that width. *)
  let keep =
    match oc with Some c -> c.direct && direct_ok && direct_width <= c.width | None -> false
  in
  let old = match oc with Some c when not keep -> old_values c ~nrows:base | _ -> no_old in
  (* Where each new value sits among the old ones. *)
  s.ins <- grow s.ins nd;
  let fresh = ref 0 in
  for id = 0 to nd - 1 do
    let v = s.vals.(id) in
    let p = old.find v in
    if p < old.n && Value.equal (old.value p) v then s.ins.(id) <- p
    else begin
      s.ins.(id) <- -1 - p;
      incr fresh
    end
  done;
  let dict_width = bits_needed (max 1 (old.n + !fresh)) in
  let direct =
    keep || (direct_ok && direct_width <= 62 && direct_width <= dict_width)
  in
  let width = if direct then direct_width else dict_width in
  (* Old fields keep their codes when both sides are Direct, or when a
     Dict column gained no value. *)
  let same_codes =
    match oc with
    | None -> direct
    | Some c -> if direct then c.direct else (not c.direct) && !fresh = 0
  in
  s.dmap <- grow s.dmap nd;
  let decode =
    if direct then begin
      for id = 0 to nd - 1 do
        match s.vals.(id) with
        | Value.Int x -> s.dmap.(id) <- x + 1
        | _ -> assert false
      done;
      if not same_codes then begin
        (* a Dict column of non-negative Ints turning Direct *)
        s.omap <- grow s.omap (old.n + 1);
        s.omap.(0) <- 0;
        for i = 0 to old.n - 1 do
          match old.value i with
          | Value.Int x -> s.omap.(old.code i) <- x + 1
          | _ -> assert false
        done
      end;
      [||]
    end
    else if same_codes then begin
      for id = 0 to nd - 1 do
        s.dmap.(id) <- s.ins.(id) + 1
      done;
      match oc with Some c -> c.decode | None -> [||]
    end
    else begin
      (* Merge the old values with the new ones in Value.compare order;
         a value on both sides keeps its old occurrence. *)
      let order = Array.init nd Fun.id in
      Array.stable_sort (fun a b -> Value.compare s.vals.(a) s.vals.(b)) order;
      let decode = Array.make (old.n + !fresh) Value.Null in
      (match oc with
       | Some c ->
         s.omap <- grow s.omap (if c.direct then c.dmax + 2 else old.n + 1);
         s.omap.(0) <- 0
       | None -> ());
      let i = ref 0 and k = ref 0 in
      let take_old () =
        decode.(!k) <- old.value !i;
        incr k;
        s.omap.(old.code !i) <- !k;
        incr i
      in
      for j = 0 to nd - 1 do
        let id = order.(j) in
        let p = s.ins.(id) in
        let stop = if p >= 0 then p else -1 - p in
        while !i < stop do
          take_old ()
        done;
        if p >= 0 then take_old ()
        else begin
          decode.(!k) <- s.vals.(id);
          incr k
        end;
        s.dmap.(id) <- !k
      done;
      while !i < old.n do
        take_old ()
      done;
      decode
    end
  in
  (* Code ranges of the numeric values, for the zones' float range:
     Ints and Reals sort contiguously, NaN first among the Reals. *)
  let int_first, int_last, real_last, nan_code =
    if direct then (1, max_int, max_int, -1)
    else begin
      let n = Array.length decode in
      let start r = lower_bound n (fun i -> Value.rank decode.(i) < r) in
      let ri = start 2 and rr = start 3 and rs = start 4 in
      let nan =
        if rr = rs then -1
        else match decode.(rr) with Value.Real f when Float.is_nan f -> rr + 1 | _ -> -1
      in
      (ri + 1, rr, rs, nan)
    end
  in
  let value k = if direct then Value.Int (k - 1) else decode.(k - 1) in
  let num k =
    match value k with
    | Value.Int x -> float_of_int x
    | Value.Real f -> f
    | _ -> assert false
  in
  (* A block's zone from its live codes: the extreme codes overall, of
     the Ints and of the non-NaN Reals (0 for "none" in the maxima). *)
  let zone ~nonnull ~nulls ~nnum ~has_nan ~lo ~hi ~ilo ~ihi ~rlo ~rhi =
    let num_lo =
      let a = if ihi > 0 then num ilo else infinity in
      if rhi > 0 then Float.min a (num rlo) else a
    and num_hi =
      let a = if ihi > 0 then num ihi else neg_infinity in
      if rhi > 0 then Float.max a (num rhi) else a
    in
    { z_nonnull = nonnull; z_nulls = nulls; z_nnum = nnum; z_num_lo = num_lo;
      z_num_hi = num_hi; z_has_nan = has_nan;
      z_lo = (if nonnull = 0 then Value.Null else value lo);
      z_hi = (if nonnull = 0 then Value.Null else value hi) }
  in
  let fpw = 63 / width in
  let words = Array.make ((nrows + fpw - 1) / fpw) 0 in
  (* Old fields keep their bits when their codes and width both stay:
     the old image's whole words are copied, and packing resumes at the
     first field of its last, partial word. *)
  let identity = match oc with Some c -> same_codes && c.width = width | None -> false in
  let start = if identity then base / fpw * fpw else 0 in
  (match oc with
   | Some c when identity ->
     for wi = 0 to (start / fpw) - 1 do
       Array.unsafe_set words wi (Array.unsafe_get c.words wi)
     done
   | _ -> ());
  (* One pass in slot order from [start]: a cursor reads the old
     fields, another fills the new words. *)
  let ow, owidth, ofpw, omask =
    match oc with Some c -> (c.words, c.width, c.fpw, c.fmask) | None -> ([||], 1, 1, 0)
  in
  let oword = ref (start / ofpw) and ofield = ref (start mod ofpw) in
  let acc = ref 0 and wi = ref (start / fpw) and fi = ref 0 in
  for rid = start to nrows - 1 do
    let k =
      if rid < base then begin
        let k = (ow.(!oword) lsr (!ofield * owidth)) land omask in
        incr ofield;
        if !ofield = ofpw then begin
          ofield := 0;
          incr oword
        end;
        if same_codes then k else s.omap.(k)
      end
      else
        let p = s.prov.(rid - base) in
        if p < 0 then 0 else s.dmap.(p)
    in
    acc := !acc lor (k lsl (!fi * width));
    incr fi;
    if !fi = fpw then begin
      words.(!wi) <- !acc;
      incr wi;
      acc := 0;
      fi := 0
    end
  done;
  if !fi > 0 then words.(!wi) <- !acc;
  (* Zones from the live codes of each block: the extreme codes overall,
     of the Ints and of the non-NaN Reals (0 for "none" in the maxima).
     A block wholly in the old image whose live slots all survived
     keeps its old zone — zones hold values, not codes, so a remap
     leaves them as they were. *)
  let zmaps =
    if not zones then [||]
    else
      Array.init ((nrows + block_rows - 1) / block_rows) (fun bi ->
          let lo = bi * block_rows and hi = min nrows ((bi + 1) * block_rows) in
          match oc with
          | Some c
            when hi <= base && bi < Array.length c.zones
                 && c.zones.(bi).z_nonnull + c.zones.(bi).z_nulls = block_live.(bi) ->
            c.zones.(bi)
          | _ ->
            let nonnull = ref 0 and nulls = ref 0 and nnum = ref 0 and has_nan = ref false in
            let lo_k = ref max_int and hi_k = ref 0 and ilo = ref max_int and ihi = ref 0 in
            let rlo = ref max_int and rhi = ref 0 in
            let mask = (1 lsl width) - 1 in
            let wi = ref (lo / fpw) and fi = ref (lo mod fpw) in
            for rid = lo to hi - 1 do
              let k = (words.(!wi) lsr (!fi * width)) land mask in
              incr fi;
              if !fi = fpw then begin
                fi := 0;
                incr wi
              end;
              if live rid then begin
                if k = 0 then incr nulls
                else begin
                  incr nonnull;
                  if k < !lo_k then lo_k := k;
                  if k > !hi_k then hi_k := k;
                  if k >= int_first && k <= real_last then begin
                    incr nnum;
                    if k <= int_last then begin
                      if k < !ilo then ilo := k;
                      if k > !ihi then ihi := k
                    end
                    else if k = nan_code then has_nan := true
                    else begin
                      if k < !rlo then rlo := k;
                      if k > !rhi then rhi := k
                    end
                  end
                end
              end
            done;
            zone ~nonnull:!nonnull ~nulls:!nulls ~nnum:!nnum ~has_nan:!has_nan ~lo:!lo_k
              ~hi:!hi_k ~ilo:!ilo ~ihi:!ihi ~rlo:!rlo ~rhi:!rhi)
  in
  { width; fpw; fmask = (1 lsl width) - 1;
    ones = broadcast width fpw 1;
    highs = broadcast width fpw (1 lsl (width - 1));
    words; direct; dmax = (if direct then dmax else 0); decode; zones = zmaps;
    boxed_cell_words = !boxed }

(** [merge ~ncols old ~nrows get ~live] packs [nrows] slots: those
    below [nrows old] are [old]'s, the rest have cell [(rid, pos)] =
    [get rid pos]. Every slot is packed — including tombstoned ones, so
    rid identity is preserved — while zone maps aggregate only slots
    with [live rid] (dead slots can never survive a scan, so excluding
    them tightens the maps). The result equals packing all [nrows]
    slots' cells from scratch. *)
let merge ?(zones = true) ~ncols old ~nrows (get : int -> int -> Value.t)
    ~(live : int -> bool) : t =
  let base = old.nrows in
  if base > 0 && Array.length old.cols <> ncols then invalid_arg "Packed.merge: arity";
  let s =
    { ids = VT.create 64; vals = [||]; prov = Array.make (nrows - base) 0; ins = [||];
      dmap = [||]; omap = [||] }
  in
  (* Live slots per block of the old image: a block whose count still
     equals its zone's live count lost no slot since it was packed. *)
  let block_live =
    if not zones then [||]
    else
      Array.init ((base + block_rows - 1) / block_rows) (fun bi ->
          let n = ref 0 in
          for rid = bi * block_rows to min base ((bi + 1) * block_rows) - 1 do
            if live rid then incr n
          done;
          !n)
  in
  { nrows;
    cols =
      Array.init ncols (fun pos ->
          merge_col s ~zones ~base ~nrows get ~live ~block_live
            (if base = 0 then None else Some old.cols.(pos))
            pos) }

(** [pack ~ncols ~nrows get ~live] packs the relation whose cell
    [(rid, pos)] is [get rid pos]: the {!merge} into {!empty}. *)
let pack ?zones ~ncols ~nrows get ~live = merge ?zones ~ncols empty ~nrows get ~live


(* ------------------------------------------------------------------ *)
(* Size accounting                                                     *)
(* ------------------------------------------------------------------ *)

(** Approximate heap words of the packed representation (bit words,
    decode tables including their boxed values, zone maps). *)
let packed_words t =
  Array.fold_left
    (fun acc c ->
      let decode_w =
        Array.fold_left (fun a v -> a + value_heap_words v)
          (1 + Array.length c.decode)
          c.decode
      in
      acc + 12 (* col record *) + 1 + Array.length c.words + decode_w
      + (12 * Array.length c.zones))
    2 t.cols

(** Heap words the same slots would cost as boxed [Value.t array] rows:
    one row array per slot plus every cell's boxed payload. *)
let boxed_words t =
  Array.fold_left
    (fun acc c -> acc + c.boxed_cell_words)
    (t.nrows * (1 + ncols t))
    t.cols

let col_bits t pos = t.cols.(pos).width

(* ------------------------------------------------------------------ *)
(* Equality candidate codes                                            *)
(* ------------------------------------------------------------------ *)

(* 2^53: |ints| up to this bound round-trip exactly through float, so
   the Int<->Real equality coercion has a unique witness on each side.
   Above it several Ints can collapse onto one float and a candidate
   list would no longer be exact — those constants refuse a prefilter
   instead of risking a false reject. *)
let max_exact_float_int = 9007199254740992

(* [v]'s code consed onto [acc] when some cell of the column holds a
   value structurally equal to it (Value.equal): a Dict column's decode
   array is strictly increasing, so a binary search finds the one code
   there can be. *)
let structural_codes c v acc =
  if c.direct then
    match v with
    | Value.Int x when x >= 0 && x <= c.dmax -> (x + 1) :: acc
    | _ -> acc
  else begin
    let d = c.decode in
    let n = Array.length d in
    let i = lower_bound n (fun i -> Value.compare d.(i) v < 0) in
    if i < n && Value.equal d.(i) v then (i + 1) :: acc else acc
  end

(** The exact set of codes of column [pos] whose decoded value compares
    equal to [v] under {!Expr_eval}'s comparison semantics (including
    the Int/Real coercion), or [None] when no exact finite set exists.
    [Some []] means the column provably contains no matching cell. *)
let eq_codes_col c v =
  match v with
  | Value.Null -> Some []
  | Value.Int x ->
    (* Int cells: int equality — only x. Real cells: r = float x, a
       single float (exact even above 2^53: float x is one value). *)
    Some (structural_codes c (Value.Real (float_of_int x))
            (structural_codes c v []))
  | Value.Real f ->
    if Float.is_integer f && Float.abs f > float_of_int max_exact_float_int
    then None (* several Ints may equal f; candidate set not exact *)
    else begin
      let acc = structural_codes c v [] in
      let acc =
        if Float.is_integer f && Float.abs f <= float_of_int max_exact_float_int
        then structural_codes c (Value.Int (int_of_float f)) acc
        else acc
      in
      Some acc
    end
  | Value.Bool _ | Value.Str _ | Value.Lid _ -> Some (structural_codes c v [])

let eq_codes t pos v = eq_codes_col t.cols.(pos) v

(* ------------------------------------------------------------------ *)
(* Word-at-a-time equality scan                                        *)
(* ------------------------------------------------------------------ *)

(** [iter_eq_col c codes lo hi f] calls [f rid] for every slot
    [lo <= rid < hi] whose field in column [c] equals one of [codes],
    in ascending order. Code [0] finds NULL fields; the SWAR word test
    works for it unchanged. Words are rejected wholesale by a SWAR
    zero-field test on [word lxor broadcast(code)] — the test is exact
    for "some field matches", and matching words confirm each field
    individually. *)
let iter_eq_col c (codes : int array) lo hi (f : int -> unit) =
  if Array.length codes > 0 && hi > lo then begin
    let w = c.width and fpw = c.fpw in
    let nc = Array.length codes in
    let c0 = codes.(0) in
    let bcasts = Array.map (fun code -> code * c.ones) codes in
    let wlo = lo / fpw and whi = (hi - 1) / fpw in
    for wi = wlo to whi do
      let x = c.words.(wi) in
      let hit = ref false in
      for k = 0 to nc - 1 do
        if not !hit then begin
          let y = x lxor bcasts.(k) in
          if w = 1 then begin
            (* one-bit fields: a match is a zero bit among the used
               fields; padding fields (code 0 vs pattern 1) read 1 *)
            if y <> c.ones then hit := true
          end
          else if (y - c.ones) land lnot y land c.highs <> 0 then hit := true
        end
      done;
      if !hit then begin
        let base = wi * fpw in
        let flo = if base < lo then lo - base else 0 in
        let fhi = min fpw (hi - base) in
        for fi = flo to fhi - 1 do
          let code = (x lsr (fi * w)) land c.fmask in
          if code = c0 then f (base + fi)
          else if nc > 1 then begin
            let m = ref false in
            for k = 1 to nc - 1 do
              if code = codes.(k) then m := true
            done;
            if !m then f (base + fi)
          end
        done
      end
    done
  end

let iter_eq t pos codes lo hi f = iter_eq_col t.cols.(pos) codes lo hi f

(** [check t ~live ~exact] verifies the image's invariants: every Dict
    decode array is strictly increasing under {!Value.compare}, and
    every zone map covers the live cells of its block — counts are
    upper bounds (tombstones only ever remove cells) and every value
    lies inside its ranges. With [exact] (no slot has died since the
    image was packed) the counts must match and [z_lo]/[z_hi] must be
    the decode of the block's smallest/largest live non-null code. *)
let check t ~(live : int -> bool) ~exact =
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !error = None then error := Some m) fmt in
  Array.iteri
    (fun pos c ->
      for i = 1 to Array.length c.decode - 1 do
        if Value.compare c.decode.(i - 1) c.decode.(i) >= 0 then
          fail "column %d: decode %s at code %d does not sort below %s" pos
            (Value.to_string c.decode.(i - 1)) i (Value.to_string c.decode.(i))
      done;
      Array.iteri
        (fun bi z ->
          let lo = bi * block_rows and hi = min t.nrows ((bi + 1) * block_rows) in
          let nonnull = ref 0 and nulls = ref 0 and nnum = ref 0 in
          let klo = ref max_int and khi = ref 0 in
          for rid = lo to hi - 1 do
            if live rid then begin
              let k = code_at c rid in
              let v = decode_code c k in
              let outside () =
                fail "column %d block %d: live cell %s outside its zone" pos bi
                  (Value.to_string v)
              in
              if k = 0 then incr nulls
              else begin
                incr nonnull;
                klo := min !klo k;
                khi := max !khi k;
                if Value.compare v z.z_lo < 0 || Value.compare v z.z_hi > 0 then outside ();
                match Value.as_float v with
                | Some x ->
                  incr nnum;
                  if Float.is_nan x then (if not z.z_has_nan then outside ())
                  else if x < z.z_num_lo || x > z.z_num_hi then outside ()
                | None -> ()
              end
            end
          done;
          let counts_ok =
            if exact then !nonnull = z.z_nonnull && !nulls = z.z_nulls && !nnum = z.z_nnum
            else !nonnull <= z.z_nonnull && !nulls <= z.z_nulls && !nnum <= z.z_nnum
          in
          if not counts_ok then
            fail
              "column %d block %d: %d/%d/%d live non-null/null/numeric cells, zone counts \
               %d/%d/%d"
              pos bi !nonnull !nulls !nnum z.z_nonnull z.z_nulls z.z_nnum;
          if exact && !nonnull > 0
             && not (Value.equal z.z_lo (decode_code c !klo)
                     && Value.equal z.z_hi (decode_code c !khi))
          then
            fail "column %d block %d: zone range %s..%s, live codes decode to %s..%s" pos bi
              (Value.to_string z.z_lo) (Value.to_string z.z_hi)
              (Value.to_string (decode_code c !klo))
              (Value.to_string (decode_code c !khi)))
        c.zones)
    t.cols;
  match !error with None -> Ok () | Some m -> Error m

(* ------------------------------------------------------------------ *)
(* Zone-map predicate pruning                                          *)
(* ------------------------------------------------------------------ *)

(* Could any live cell of this zone compare [op]-true against non-null
   constant [v] under Expr_eval.cmp_values? Numeric cells compare by
   float against numeric constants; everything else falls back to the
   Value.compare total order — hence the two ranges. Conservative by
   construction: [false] is returned only when no cell can match. *)
let zone_cmp_may (op : Sql_ast.binop) z v =
  if z.z_nonnull = 0 then false
  else
    match Value.as_float v with
    | Some f when Float.is_nan f ->
      (* NaN: Stdlib.compare's total order makes NaN = NaN true and
         orders NaN below everything, so be maximally conservative. *)
      true
    | Some f ->
      let num_may =
        z.z_nnum > 0
        &&
        match op with
        | Sql_ast.Eq -> z.z_num_lo <= f && f <= z.z_num_hi
        | Sql_ast.Lt -> z.z_num_lo < f
        | Sql_ast.Leq -> z.z_num_lo <= f
        | Sql_ast.Gt -> z.z_num_hi > f
        | Sql_ast.Geq -> z.z_num_hi >= f
        | _ -> true
      in
      (* NaN cells are excluded from the float range but compare below
         every finite float under Stdlib.compare's total order, so they
         can satisfy < and <= against a finite constant. *)
      let nan_may =
        z.z_has_nan
        &&
        match op with
        | Sql_ast.Lt | Sql_ast.Leq -> true
        | Sql_ast.Eq | Sql_ast.Gt | Sql_ast.Geq -> false
        | _ -> true
      in
      let other = z.z_nonnull - z.z_nnum in
      let other_may =
        other > 0
        &&
        (* non-numeric cell vs numeric constant: Value.compare *)
        match op with
        | Sql_ast.Eq -> Value.compare z.z_lo v <= 0 && Value.compare v z.z_hi <= 0
        | Sql_ast.Lt -> Value.compare z.z_lo v < 0
        | Sql_ast.Leq -> Value.compare z.z_lo v <= 0
        | Sql_ast.Gt -> Value.compare z.z_hi v > 0
        | Sql_ast.Geq -> Value.compare z.z_hi v >= 0
        | _ -> true
      in
      num_may || nan_may || other_may
    | None -> (
      (* non-numeric constant: every comparison is Value.compare *)
      match op with
      | Sql_ast.Eq -> Value.compare z.z_lo v <= 0 && Value.compare v z.z_hi <= 0
      | Sql_ast.Lt -> Value.compare z.z_lo v < 0
      | Sql_ast.Leq -> Value.compare z.z_lo v <= 0
      | Sql_ast.Gt -> Value.compare z.z_hi v > 0
      | Sql_ast.Geq -> Value.compare z.z_hi v >= 0
      | _ -> true)

(** Compile [e] into a conservative per-block test: [false] only when
    no live row of the block can satisfy [e]. Unresolvable columns and
    unhandled expression forms degrade to [true]. *)
let compile_zone_filter t (layout : Expr_eval.layout) (e : Sql_ast.expr) :
    int -> bool =
  if not (has_zones t) then fun _ -> true
  else begin
    let zones_of q n =
      match Expr_eval.resolve layout (q, n) with
      | pos -> Some t.cols.(pos).zones
      | exception Expr_eval.Unknown_column _ -> None
    in
    let rec go (e : Sql_ast.expr) : int -> bool =
      match e with
      | Sql_ast.Binop (Sql_ast.And, a, b) ->
        let fa = go a and fb = go b in
        fun bi -> fa bi && fb bi
      | Sql_ast.Binop (Sql_ast.Or, a, b) ->
        let fa = go a and fb = go b in
        fun bi -> fa bi || fb bi
      | Sql_ast.Binop
          (((Sql_ast.Eq | Sql_ast.Neq | Sql_ast.Lt | Sql_ast.Leq | Sql_ast.Gt
            | Sql_ast.Geq) as op),
           Sql_ast.Col (q, n), Sql_ast.Const v)
        when not (Value.is_null v) -> (
        match zones_of q n with
        | None -> fun _ -> true
        | Some zs ->
          (match op with
           | Sql_ast.Neq ->
             (* != only needs one non-null cell anywhere in range *)
             fun bi -> zs.(bi).z_nonnull > 0
           | _ -> fun bi -> zone_cmp_may op zs.(bi) v))
      | Sql_ast.Binop
          (((Sql_ast.Eq | Sql_ast.Neq | Sql_ast.Lt | Sql_ast.Leq | Sql_ast.Gt
            | Sql_ast.Geq) as op),
           Sql_ast.Const v, Sql_ast.Col (q, n))
        when not (Value.is_null v) ->
        (* flip the comparison so the column is on the left *)
        let flipped =
          match op with
          | Sql_ast.Lt -> Sql_ast.Gt
          | Sql_ast.Leq -> Sql_ast.Geq
          | Sql_ast.Gt -> Sql_ast.Lt
          | Sql_ast.Geq -> Sql_ast.Leq
          | o -> o
        in
        go (Sql_ast.Binop (flipped, Sql_ast.Col (q, n), Sql_ast.Const v))
      | Sql_ast.Is_null (Sql_ast.Col (q, n)) -> (
        match zones_of q n with
        | None -> fun _ -> true
        | Some zs -> fun bi -> zs.(bi).z_nulls > 0)
      | Sql_ast.Is_not_null (Sql_ast.Col (q, n)) -> (
        match zones_of q n with
        | None -> fun _ -> true
        | Some zs -> fun bi -> zs.(bi).z_nonnull > 0)
      | Sql_ast.In_list (Sql_ast.Col (q, n), vs) -> (
        (* IN uses structural membership (Expr_eval builds a Hashtbl
           over the literals), so the total-order range is the right
           necessary condition for every member. *)
        match zones_of q n with
        | None -> fun _ -> true
        | Some zs ->
          let vs = List.filter (fun v -> not (Value.is_null v)) vs in
          fun bi ->
            let z = zs.(bi) in
            z.z_nonnull > 0
            && List.exists
                 (fun v ->
                   Value.compare z.z_lo v <= 0 && Value.compare v z.z_hi <= 0)
                 vs)
      | _ -> fun _ -> true
    in
    go e
  end

(* ------------------------------------------------------------------ *)
(* Equality prefilter extraction                                       *)
(* ------------------------------------------------------------------ *)

(** A top-level [col = const] conjunct of [e] compiled to candidate
    codes: [Some (pos, codes)] lets the scan drive column [pos]
    word-at-a-time through {!iter_eq} (an empty [codes] proves the scan
    empty). [None] when no such conjunct exists or no exact candidate
    set does. Sound because every row satisfying [e] satisfies each of
    its conjuncts, and the caller re-applies the full predicate. *)
let eq_prefilter t (layout : Expr_eval.layout) (e : Sql_ast.expr) :
    (int * int array) option =
  let rec conjuncts e acc =
    match e with
    | Sql_ast.Binop (Sql_ast.And, a, b) -> conjuncts a (conjuncts b acc)
    | e -> e :: acc
  in
  let candidate = function
    | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Col (q, n), Sql_ast.Const v)
    | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Const v, Sql_ast.Col (q, n))
      when not (Value.is_null v) -> (
      match Expr_eval.resolve layout (q, n) with
      | pos -> (
        match eq_codes t pos v with
        | Some codes -> Some (pos, Array.of_list codes)
        | None -> None)
      | exception Expr_eval.Unknown_column _ -> None)
    | _ -> None
  in
  (* Prefer a conjunct that proves emptiness, else the narrowest
     candidate set (fewer codes = cheaper SWAR pass). *)
  List.fold_left
    (fun best conj ->
      match candidate conj with
      | None -> best
      | Some (_, codes) as cand -> (
        match best with
        | Some (_, bcodes) when Array.length bcodes <= Array.length codes ->
          best
        | _ -> cand))
    None (conjuncts e [])

(* ------------------------------------------------------------------ *)
(* Decode-free predicate compilation                                   *)
(* ------------------------------------------------------------------ *)

(** Compile a filter into a test over raw packed codes — no field is
    ever decoded into a boxed {!Value.t}. Supported shapes: And/Or
    trees whose leaves are [col = const] / [col <> const] (constants
    with an exact candidate-code set, {!eq_codes}), ordered
    comparisons [col < const] / [<=] / [>] / [>=] against Int/Real
    constants on Direct columns (code [k] decodes to [Int (k-1)], so
    the comparison runs on the code arithmetic alone), [col IS NULL] /
    [col IS NOT NULL], and [col IN (...)] over non-Real constants.
    Semantics match {!Expr_eval.compile_pred} row for row: its leaf
    comparisons are two-valued (a NULL operand compares false), NULL is
    code 0 and never a member of a candidate set, ordered comparisons
    replicate [cmp_values]' Int/Real coercion (an Int cell against a
    Real constant compares by float), and IN uses the same structural
    equality as the evaluator's hash set (Reals are refused so NaN
    payloads cannot disagree). [None] when any leaf falls outside this
    shape; the caller then filters on decoded rows. *)
let compile_code_pred t (layout : Expr_eval.layout) (e : Sql_ast.expr) :
    (int -> bool) option =
  let col_of q n =
    match Expr_eval.resolve layout (q, n) with
    | pos -> Some t.cols.(pos)
    | exception Expr_eval.Unknown_column _ -> None
  in
  let mem_test codes =
    let arr = Array.of_list codes in
    let n = Array.length arr in
    fun code ->
      let rec mem i = i < n && (Array.unsafe_get arr i = code || mem (i + 1)) in
      mem 0
  in
  let eq_leaf c v =
    match eq_codes_col c v with
    | None -> None
    | Some [] -> Some (fun _ -> false)
    | Some [ k ] -> Some (fun rid -> code_at c rid = k)
    | Some ks ->
      let mem = mem_test ks in
      Some (fun rid -> mem (code_at c rid))
  in
  let neq_leaf c v =
    match eq_codes_col c v with
    | None -> None
    | Some [] -> Some (fun rid -> code_at c rid <> 0)
    | Some ks ->
      let mem = mem_test ks in
      Some
        (fun rid ->
          let code = code_at c rid in
          code <> 0 && not (mem code))
  in
  (* Ordered comparison on a Direct column: every non-null cell is
     [Int (code - 1)], so [cmp_values cell const] is pure code
     arithmetic — int compare against an Int constant, float compare
     (the evaluator's numeric coercion; Stdlib.compare so NaN orders
     identically) against a Real one. Dict columns and non-numeric
     constants fall back to decoded evaluation. *)
  let cmp_ok (op : Sql_ast.binop) c =
    match op with
    | Sql_ast.Lt -> c < 0
    | Sql_ast.Leq -> c <= 0
    | Sql_ast.Gt -> c > 0
    | Sql_ast.Geq -> c >= 0
    | _ -> assert false
  in
  let cmp_leaf c op v =
    if not c.direct then None
    else
      let test =
        match v with
        | Value.Int x -> Some (fun k -> cmp_ok op (Stdlib.compare (k - 1) x))
        | Value.Real f ->
          Some (fun k -> cmp_ok op (Stdlib.compare (float_of_int (k - 1)) f))
        | _ -> None
      in
      Option.map
        (fun t ->
          fun rid ->
            let k = code_at c rid in
            k <> 0 && t k)
        test
  in
  (* [const op col] reads as [col (flip op) const]. *)
  let flip_cmp (op : Sql_ast.binop) =
    match op with
    | Sql_ast.Lt -> Sql_ast.Gt
    | Sql_ast.Leq -> Sql_ast.Geq
    | Sql_ast.Gt -> Sql_ast.Lt
    | Sql_ast.Geq -> Sql_ast.Leq
    | o -> o
  in
  let rec go e =
    match e with
    | Sql_ast.Binop (Sql_ast.And, a, b) -> (
      match (go a, go b) with
      | Some f, Some g -> Some (fun rid -> f rid && g rid)
      | _ -> None)
    | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Case (whens, els), Sql_ast.Const v)
    | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Const v, Sql_ast.Case (whens, els))
      when not (Value.is_null v) ->
      case_leaf whens els v eq_leaf
    | Sql_ast.Binop (Sql_ast.Neq, Sql_ast.Case (whens, els), Sql_ast.Const v)
    | Sql_ast.Binop (Sql_ast.Neq, Sql_ast.Const v, Sql_ast.Case (whens, els))
      when not (Value.is_null v) ->
      case_leaf whens els v neq_leaf
    | Sql_ast.Binop
        (((Sql_ast.Lt | Sql_ast.Leq | Sql_ast.Gt | Sql_ast.Geq) as op),
         Sql_ast.Case (whens, els), Sql_ast.Const v)
      when not (Value.is_null v) ->
      case_leaf whens els v (fun c v -> cmp_leaf c op v)
    | Sql_ast.Binop
        (((Sql_ast.Lt | Sql_ast.Leq | Sql_ast.Gt | Sql_ast.Geq) as op),
         Sql_ast.Const v, Sql_ast.Case (whens, els))
      when not (Value.is_null v) ->
      case_leaf whens els v (fun c v -> cmp_leaf c (flip_cmp op) v)
    | Sql_ast.Binop (Sql_ast.Or, a, b) -> (
      match (go a, go b) with
      | Some f, Some g -> Some (fun rid -> f rid || g rid)
      | _ -> None)
    | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Col (q, n), Sql_ast.Const v)
    | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Const v, Sql_ast.Col (q, n))
      when not (Value.is_null v) ->
      Option.bind (col_of q n) (fun c -> eq_leaf c v)
    | Sql_ast.Binop (Sql_ast.Neq, Sql_ast.Col (q, n), Sql_ast.Const v)
    | Sql_ast.Binop (Sql_ast.Neq, Sql_ast.Const v, Sql_ast.Col (q, n))
      when not (Value.is_null v) ->
      Option.bind (col_of q n) (fun c -> neq_leaf c v)
    | Sql_ast.Binop
        (((Sql_ast.Lt | Sql_ast.Leq | Sql_ast.Gt | Sql_ast.Geq) as op),
         Sql_ast.Col (q, n), Sql_ast.Const v)
      when not (Value.is_null v) ->
      Option.bind (col_of q n) (fun c -> cmp_leaf c op v)
    | Sql_ast.Binop
        (((Sql_ast.Lt | Sql_ast.Leq | Sql_ast.Gt | Sql_ast.Geq) as op),
         Sql_ast.Const v, Sql_ast.Col (q, n))
      when not (Value.is_null v) ->
      Option.bind (col_of q n) (fun c -> cmp_leaf c (flip_cmp op) v)
    | Sql_ast.Is_null (Sql_ast.Col (q, n)) ->
      Option.map (fun c -> fun rid -> code_at c rid = 0) (col_of q n)
    | Sql_ast.Is_not_null (Sql_ast.Col (q, n)) ->
      Option.map (fun c -> fun rid -> code_at c rid <> 0) (col_of q n)
    | Sql_ast.In_list (Sql_ast.Col (q, n), vs)
      when vs <> []
           && List.for_all
                (function
                  | Value.Null | Value.Real _ -> false
                  | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Lid _ ->
                    true)
                vs -> (
      match col_of q n with
      | None -> None
      | Some c ->
        let codes =
          List.sort_uniq Int.compare
            (List.concat_map (fun v -> structural_codes c v []) vs)
        in
        (match codes with
         | [] -> Some (fun _ -> false)
         | [ k ] -> Some (fun rid -> code_at c rid = k)
         | ks ->
           let mem = mem_test ks in
           Some (fun rid -> mem (code_at c rid))))
    | _ -> None
  (* [CASE WHEN c1 THEN col1 WHEN c2 THEN col2 ... END = const] (the
     shape DB2RDF translation emits for star predicates over hashed
     pred/val column pairs, both operand orders, likewise [<>]): the
     evaluator takes the first arm whose condition is T_true and
     compares its column two-valued, yielding false when no arm fires
     (the CASE is NULL). On codes: the arm conditions compile through
     [go], the comparison through the same [eq_leaf]/[neq_leaf] used
     for bare columns. Arms whose result is not a plain column, or an
     ELSE other than NULL, fall back to decoded evaluation. *)
  and case_leaf whens els v leaf =
    match els with
    | Some (Sql_ast.Const Value.Null) | None -> (
      let rec arms acc = function
        | [] -> Some (List.rev acc)
        | (cond, Sql_ast.Col (q, n)) :: rest -> (
          match go cond with
          | None -> None
          | Some cp -> (
            match Option.bind (col_of q n) (fun c -> leaf c v) with
            | None -> None
            | Some rp -> arms ((cp, rp) :: acc) rest))
        | _ -> None
      in
      match arms [] whens with
      | None -> None
      | Some ps ->
        Some
          (fun rid ->
            let rec first = function
              | [] -> false
              | (cp, rp) :: rest -> if cp rid then rp rid else first rest
            in
            first ps))
    | Some _ -> None
  in
  go e

(* ------------------------------------------------------------------ *)
(* Block-bitmap predicate evaluation                                   *)
(* ------------------------------------------------------------------ *)

(* Bit [rid - blo] of a block bitmap lives in word [(rid - blo) / 63]
   at position [(rid - blo) mod 63]; an OCaml int carries 63 usable
   bits, and [-1] is the all-set word. *)
let bm_bits = 63

type bnode =
  | B_in of col * int array  (* row's field code is one of the codes *)
  | B_notin of col * int array  (* row's field code is none of them *)
  | B_and of bnode * bnode
  | B_or of bnode * bnode

(** Compile the same filter shapes as {!compile_code_pred} (minus the
    CASE leaf) into a block-at-a-time evaluator: every leaf SWAR-scans
    its column's words over the block once ({!iter_eq_col}), setting
    one bit per matching row, and And/Or combine whole bitmaps with
    [land]/[lor]. For the generated star filters — conjunctions of
    OR-of-equalities over single-word-per-block packed columns — this
    replaces per-row predicate dispatch with a few word scans. The
    outer call validates the filter and fixes the candidate code sets;
    each application of the returned thunk builds an evaluator with
    private scratch bitmaps, so parallel morsels must instantiate
    their own. [eval blo bhi] (with [bhi - blo <= block_rows]) returns
    a bitmap whose bit [rid - blo] is set iff row [rid] satisfies the
    filter; row liveness is not consulted. *)
let compile_block_pred t (layout : Expr_eval.layout) (e : Sql_ast.expr) :
    (unit -> int -> int -> int array) option =
  let col_of q n =
    match Expr_eval.resolve layout (q, n) with
    | pos -> Some t.cols.(pos)
    | exception Expr_eval.Unknown_column _ -> None
  in
  let in_leaf q n v =
    match col_of q n with
    | None -> None
    | Some c ->
      Option.map (fun ks -> B_in (c, Array.of_list ks)) (eq_codes_col c v)
  in
  let notin_leaf q n v =
    match col_of q n with
    | None -> None
    | Some c ->
      Option.map
        (fun ks -> B_notin (c, Array.of_list (0 :: ks)))
        (eq_codes_col c v)
  in
  let rec plan e =
    match e with
    | Sql_ast.Binop (Sql_ast.And, a, b) -> (
      match (plan a, plan b) with
      | Some x, Some y -> Some (B_and (x, y))
      | _ -> None)
    | Sql_ast.Binop (Sql_ast.Or, a, b) -> (
      match (plan a, plan b) with
      | Some x, Some y -> Some (B_or (x, y))
      | _ -> None)
    | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Col (q, n), Sql_ast.Const v)
    | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Const v, Sql_ast.Col (q, n))
      when not (Value.is_null v) ->
      in_leaf q n v
    | Sql_ast.Binop (Sql_ast.Neq, Sql_ast.Col (q, n), Sql_ast.Const v)
    | Sql_ast.Binop (Sql_ast.Neq, Sql_ast.Const v, Sql_ast.Col (q, n))
      when not (Value.is_null v) ->
      notin_leaf q n v
    | Sql_ast.Is_null (Sql_ast.Col (q, n)) ->
      Option.map (fun c -> B_in (c, [| 0 |])) (col_of q n)
    | Sql_ast.Is_not_null (Sql_ast.Col (q, n)) ->
      Option.map (fun c -> B_notin (c, [| 0 |])) (col_of q n)
    | Sql_ast.In_list (Sql_ast.Col (q, n), vs)
      when vs <> []
           && List.for_all
                (function
                  | Value.Null | Value.Real _ -> false
                  | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Lid _ ->
                    true)
                vs ->
      Option.map
        (fun c ->
          B_in
            ( c,
              Array.of_list
                (List.sort_uniq Int.compare
                   (List.concat_map (fun v -> structural_codes c v []) vs)) ))
        (col_of q n)
    | _ -> None
  in
  match plan e with
  | None -> None
  | Some tree ->
    let nw = (block_rows + bm_bits - 1) / bm_bits in
    Some
      (fun () ->
        let[@inline] set dst i =
          dst.(i / bm_bits) <- dst.(i / bm_bits) lor (1 lsl (i mod bm_bits))
        in
        let[@inline] clear dst i =
          dst.(i / bm_bits) <- dst.(i / bm_bits) land lnot (1 lsl (i mod bm_bits))
        in
        let rec inst = function
          | B_in (c, ks) ->
            fun dst blo bhi ->
              Array.fill dst 0 nw 0;
              iter_eq_col c ks blo bhi (fun rid -> set dst (rid - blo))
          | B_notin (c, ks) ->
            fun dst blo bhi ->
              (* All rows of the block, minus the matching codes. *)
              let n = bhi - blo in
              let full = n / bm_bits in
              Array.fill dst 0 nw 0;
              Array.fill dst 0 full (-1);
              let rem = n - (full * bm_bits) in
              if rem > 0 then dst.(full) <- (1 lsl rem) - 1;
              iter_eq_col c ks blo bhi (fun rid -> clear dst (rid - blo))
          | B_and (a, b) ->
            let fa = inst a and fb = inst b in
            let tmp = Array.make nw 0 in
            fun dst blo bhi ->
              fa dst blo bhi;
              let any = ref false in
              for i = 0 to nw - 1 do
                if dst.(i) <> 0 then any := true
              done;
              if !any then begin
                fb tmp blo bhi;
                for i = 0 to nw - 1 do
                  dst.(i) <- dst.(i) land tmp.(i)
                done
              end
          | B_or (a, b) ->
            let fa = inst a and fb = inst b in
            let tmp = Array.make nw 0 in
            fun dst blo bhi ->
              fa dst blo bhi;
              fb tmp blo bhi;
              for i = 0 to nw - 1 do
                dst.(i) <- dst.(i) lor tmp.(i)
              done
        in
        let root = inst tree in
        let dst = Array.make nw 0 in
        fun blo bhi ->
          root dst blo bhi;
          dst)
