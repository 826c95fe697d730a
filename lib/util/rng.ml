(* The SplitMix64 state lives unboxed in an 8-byte buffer: reading and
   writing it through [Bytes.get_int64_le]/[set_int64_le] keeps every
   step in registers, where a [mutable int64] field would box a fresh
   state on each draw. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let r = Bytes.create 8 in
  Bytes.set_int64_le r 0 s;
  r

let make seed = of_state (Int64.of_int seed)

(* SplitMix64 step (Steele, Lea, Flood 2014). *)
let[@inline] next r =
  let z = Int64.add (Bytes.get_int64_le r 0) golden in
  Bytes.set_int64_le r 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split r k =
  if k < 0 then invalid_arg "Rng.split: negative count";
  (* Each child seeds from one output of the parent stream.  SplitMix64's
     output function is a bijection of the (distinct) internal states, so
     the child seeds — hence the streams — are pairwise distinct. *)
  Array.init k (fun _ -> of_state (next r))

(* Rejection-sampled [v mod bound] over uniform draws from [0, 2^62).
   Plain [v mod bound] is biased for bounds that do not divide 2^62:
   residues below [2^62 mod bound] get one extra preimage.  Rejecting
   draws that land in the incomplete top block makes every residue
   have exactly ⌊2^62 / bound⌋ preimages.  The rejection probability is
   (2^62 mod bound) / 2^62 < bound / 2^62, so for the small bounds used
   throughout this library a rejection essentially never fires — which
   also means seed-pinned streams are unchanged in practice.

   v - q = bound·⌊v/bound⌋; the draw sits in the incomplete block iff
   bound·(⌊v/bound⌋ + 1) > 2^62, i.e. v - q > 2^62 - bound. *)
let[@inline] rejects ~bound v q = v - q > (1 lsl 62) - bound

let check_bound bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive"

let unbiased_mod ~draw bound =
  check_bound bound;
  let rec go () =
    let v = draw () in
    let q = v mod bound in
    if rejects ~bound v q then go () else q
  in
  go ()

(* keep 62 bits so the value fits OCaml's 63-bit int nonnegatively *)
let rec int_loop r bound =
  let v = Int64.to_int (Int64.shift_right_logical (next r) 2) in
  let q = v mod bound in
  if rejects ~bound v q then int_loop r bound else q

let int r bound =
  check_bound bound;
  int_loop r bound

let int_in r lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int r (hi - lo + 1)

let bool r = Int64.logand (next r) 1L = 1L

(* 53 uniform bits as a float in [0, 2^53); inlined, so unboxed *)
let[@inline] top53 r = Int64.to_float (Int64.shift_right_logical (next r) 11)

let float r bound = bound *. top53 r /. 9007199254740992.0 (* 2^53 *)

(* [float r 1.0] computes [1.0 *. v /. 2^53], and [1.0 *. v = v]
   exactly, so this is the same comparison on the same single step,
   with no float returned (hence none boxed). *)
let chance r p = top53 r /. 9007199254740992.0 < p

let pick r = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int r (List.length xs))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation r n =
  let a = Array.init n Fun.id in
  shuffle r a;
  a

let bits r len = Bitstring.of_bools (List.init len (fun _ -> bool r))
