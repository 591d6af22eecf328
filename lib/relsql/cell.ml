(** Executor cells: every value an operator moves is one immediate int.

    The DB2RDF relations hold term ids, list ids and NULLs — DICT's
    string and number columns are the one exception — so batches store
    a {e code} per cell instead of a boxed {!Value.t}. The int range is
    split so that a code's range says what it holds:

    - [Int x] with [int_lo <= x < int_hi] is the code [x] itself;
    - [Lid l] in the same range is [l + lid_off], in [[2^61, 2^62)];
    - [Null], [Bool false] and [Bool true] are the three codes just
      below [int_lo];
    - everything else — [Str], [Real], and Ints or Lids outside the
      range — is a {e side} code below {!null}: [null - 1 - i] names
      slot [i] of a {!side} buffer of boxed values that travels with
      the cells (each batch has its own).

    The encoding is canonical: a value has an inline code exactly when
    it fits one, so an inline code never equals a side value. Inline
    codes order like {!Value.compare} (Null < Bool < Int < Lid, and
    [Expr_eval]'s comparison agrees on them too), so equality and order
    of two inline cells are int compares; only side cells decode. *)

type t = int

let int_lo = -(1 lsl 60)
let int_hi = 1 lsl 60
let lid_off = 3 lsl 60
let null = int_lo - 3
let false_ = int_lo - 2
let true_ = int_lo - 1

(** Marks a value with no inline code; {!inline} answers it. It is a
    side code no buffer ever reaches. *)
let boxed = min_int

(** Boxed values of side cells: slot [i] is the value of code
    [null - 1 - i]. Append-only; {!clear} forgets every slot (a reader
    reuses one buffer per row). *)
type side = { mutable vals : Value.t array; mutable n : int }

let side () = { vals = [||]; n = 0 }
let side_count s = s.n
let clear s = s.n <- 0

let[@inline] is_side c = c < null
let[@inline] is_int c = c >= int_lo && c < int_hi
let[@inline] side_index c = null - 1 - c
let[@inline] side_value s c = Array.unsafe_get s.vals (null - 1 - c)

(** Append [v] to [s] and return its side code. *)
let add s v =
  if s.n = Array.length s.vals then begin
    let bigger = Array.make (max 8 (2 * s.n)) Value.Null in
    Array.blit s.vals 0 bigger 0 s.n;
    s.vals <- bigger
  end;
  s.vals.(s.n) <- v;
  s.n <- s.n + 1;
  null - s.n

(** The inline code of [v], or {!boxed}. *)
let[@inline] inline (v : Value.t) =
  match v with
  | Value.Int x -> if x >= int_lo && x < int_hi then x else boxed
  | Value.Lid l -> if l >= int_lo && l < int_hi then l + lid_off else boxed
  | Value.Null -> null
  | Value.Bool b -> if b then true_ else false_
  | Value.Real _ | Value.Str _ -> boxed

(** The code of [v], appending it to [s] when it has no inline one. *)
let[@inline] encode s v =
  let c = inline v in
  if c = boxed then add s v else c

(** The code of [Int x]. *)
let[@inline] of_int s x = if x >= int_lo && x < int_hi then x else add s (Value.Int x)

(** The value of an inline code. *)
let inline_value c : Value.t =
  if c >= int_lo then if c < int_hi then Value.Int c else Value.Lid (c - lid_off)
  else if c >= null then if c = null then Value.Null else Value.Bool (c = true_)
  else invalid_arg "Cell.inline_value: side code"

let decode s c = if c < null then side_value s c else inline_value c

(** [import dst src c]: the code in [dst]'s context of cell [c] of
    [src]'s — [c] itself unless it is a side cell. *)
let[@inline] import dst src c = if c < null then add dst (side_value src c) else c

(** A copy of [s] holding the same slots. *)
let copy s = { vals = Array.sub s.vals 0 s.n; n = s.n }

(* A multiplicative mix of an int, so that hash tables and radix
   partitions over consecutive ids spread well. *)
let[@inline] mix x =
  let h = x * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land max_int

(** Cell equality, hash and order — each cell read in its own side
    context — agree with {!Value.equal}, {!Value.hash}'s equivalence and
    {!Value.compare} on the decoded values. *)
let equal sa a sb b =
  if a < null then b < null && Value.equal (side_value sa a) (side_value sb b) else a = b

let hash s c = if c < null then mix (Value.hash (side_value s c)) else mix c

(** {!hash} of the cell [v] encodes to, without encoding it. *)
let hash_value v =
  let c = inline v in
  if c = boxed then mix (Value.hash v) else mix c

let compare sa a sb b =
  if a < null || b < null then Value.compare (decode sa a) (decode sb b) else Int.compare a b

(** A hash table keyed by a cell: an inline cell is hashed and compared
    as an int, a side cell by its value ({!Value.equal} /
    {!Value.hash}). The encoding is canonical, so the two halves never
    hold equal keys, and keys are equal exactly when their values are
    {!Value.equal}. The one place the inline/boxed split of a key is
    dispatched — column indexes and join hash tables both use it. A key
    is given as a cell with its side context, or as a value. *)
module Tbl = struct
  module Ints = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash = mix
  end)

  module Vals = Hashtbl.Make (struct
    type t = Value.t
    let equal = Value.equal
    let hash = Value.hash
  end)

  type 'a t = { ints : 'a Ints.t; vals : 'a Vals.t }

  let create n = { ints = Ints.create n; vals = Vals.create 1 }

  (* Raise [Not_found]. *)
  let[@inline] find t s c = if c < null then Vals.find t.vals (side_value s c) else Ints.find t.ints c

  let find_value t v =
    let c = inline v in
    if c = boxed then Vals.find t.vals v else Ints.find t.ints c

  let add t s c x = if c < null then Vals.add t.vals (side_value s c) x else Ints.add t.ints c x

  let add_value t v x =
    let c = inline v in
    if c = boxed then Vals.add t.vals v x else Ints.add t.ints c x

  let remove_value t v =
    let c = inline v in
    if c = boxed then Vals.remove t.vals v else Ints.remove t.ints c

  (** Iterate bindings with their keys decoded. *)
  let iter (f : Value.t -> 'a -> unit) t =
    Ints.iter (fun c x -> f (inline_value c) x) t.ints;
    Vals.iter f t.vals

  let length t = Ints.length t.ints + Vals.length t.vals
end
