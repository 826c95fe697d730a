(* Bit [i] lives in byte [off + i / 8], at position [7 - i mod 8] (MSB
   first), so that the textual rendering reads left to right in writing
   order.  [off] is a *byte* offset: a bit string may be a view into a
   shared buffer (the certificate arenas of Cert_store pack millions of
   payloads back-to-back into a few large chunks), and byte alignment
   keeps every operation a plain byte loop.  All constructors in this
   module produce [off = 0]; views enter only through [unsafe_pack] and
   [unsafe_view].

   Invariants maintained by every constructor in this module:
   - the unused low bits of the last byte of the view are zero (so
     byte-level [equal]/[compare]/[hash] agree with bit-level
     semantics), and
   - [hash_cache] is [-1] until the FNV-1a hash has been computed, and
     never changes afterwards.  The cache is the only mutable field and
     is invisible through this interface: two structurally equal values
     may differ in it, which is why all consumers must go through
     [equal]/[compare]/[hash] rather than polymorphic comparison. *)

type t = { data : Bytes.t; off : int; len : int; mutable hash_cache : int }

let mk data len = { data; off = 0; len; hash_cache = -1 }

let empty = mk (Bytes.create 0) 0

let bytes_for len = (len + 7) / 8

let byte_size b = bytes_for b.len

(* Zero the padding bits below position [len] in the last byte.  Only
   called on freshly built [off = 0] buffers. *)
let mask_tail data len =
  let t = len land 7 in
  if t <> 0 then begin
    let last = (len lsr 3) in
    let keep = 0xff lxor (0xff lsr t) in
    Bytes.unsafe_set data last
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get data last) land keep))
  end

let get b i =
  if i < 0 || i >= b.len then
    invalid_arg (Printf.sprintf "Bitstring.get: index %d out of [0,%d)" i b.len);
  let byte = Char.code (Bytes.get b.data (b.off + (i / 8))) in
  byte land (1 lsl (7 - (i mod 8))) <> 0

let unsafe_set data i v =
  let j = i / 8 in
  let mask = 1 lsl (7 - (i mod 8)) in
  let byte = Char.code (Bytes.get data j) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set data j (Char.chr byte)

let of_bools bs =
  let len = List.length bs in
  let data = Bytes.make (bytes_for len) '\000' in
  (* accumulate eight bits at a time; one [Bytes.set] per byte *)
  let cur = ref 0 and nbits = ref 0 and j = ref 0 in
  List.iter
    (fun v ->
      cur := (!cur lsl 1) lor Bool.to_int v;
      incr nbits;
      if !nbits = 8 then begin
        Bytes.unsafe_set data !j (Char.unsafe_chr !cur);
        incr j;
        cur := 0;
        nbits := 0
      end)
    bs;
  if !nbits > 0 then
    Bytes.unsafe_set data !j (Char.unsafe_chr (!cur lsl (8 - !nbits)));
  mk data len

let of_string s =
  let len = String.length s in
  let data = Bytes.make (bytes_for len) '\000' in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> unsafe_set data i true
      | _ -> invalid_arg "Bitstring.of_string: expected '0' or '1'")
    s;
  mk data len

let length b = b.len

let to_bools b =
  (* cons in descending bit order so the result reads ascending *)
  let acc = ref [] in
  let full = b.len lsr 3 and tail = b.len land 7 in
  if tail > 0 then begin
    let c = Char.code (Bytes.unsafe_get b.data (b.off + full)) in
    for k = tail - 1 downto 0 do
      acc := (c land (1 lsl (7 - k)) <> 0) :: !acc
    done
  end;
  for j = full - 1 downto 0 do
    let c = Char.code (Bytes.unsafe_get b.data (b.off + j)) in
    for k = 7 downto 0 do
      acc := (c land (1 lsl (7 - k)) <> 0) :: !acc
    done
  done;
  !acc

(* FNV-1a over the length and the raw bytes, folded into OCaml's
   nonnegative int range.  No intermediate string is allocated; the
   result is cached so memo lookups and the certificate dedupe table
   hash each distinct certificate once. *)
let fnv_offset = 0x3BF29CE484222325
let fnv_prime = 0x100000001B3

let hash b =
  let cached = b.hash_cache in
  if cached >= 0 then cached
  else begin
    let h = ref ((fnv_offset lxor b.len) * fnv_prime) in
    for j = b.off to b.off + bytes_for b.len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get b.data j)) * fnv_prime
    done;
    let h = !h land max_int in
    b.hash_cache <- h;
    h
  end

let bytes_eq a ao b bo n =
  let i = ref 0 in
  while
    !i < n
    && Bytes.unsafe_get a (ao + !i) = Bytes.unsafe_get b (bo + !i)
  do
    incr i
  done;
  !i = n

(* Equality must ignore the unused low bits of the last byte; writers in
   this module always keep them zero, so plain byte comparison works.
   Deduped certificates are physically shared, so try [==] first; two
   already-computed hashes that differ decide without touching bytes. *)
let equal a b =
  a == b
  || a.len = b.len
     && (let ha = a.hash_cache and hb = b.hash_cache in
         ha < 0 || hb < 0 || ha = hb)
     && bytes_eq a.data a.off b.data b.off (bytes_for a.len)

let compare a b =
  if a == b then 0
  else
    match Int.compare a.len b.len with
    | 0 ->
        let n = bytes_for a.len in
        let rec go i =
          if i >= n then 0
          else
            match
              Char.compare
                (Bytes.unsafe_get a.data (a.off + i))
                (Bytes.unsafe_get b.data (b.off + i))
            with
            | 0 -> go (i + 1)
            | c -> c
        in
        go 0
    | c -> c

let flip b i =
  if i < 0 || i >= b.len then
    invalid_arg (Printf.sprintf "Bitstring.flip: index %d out of [0,%d)" i b.len);
  let data = Bytes.sub b.data b.off (bytes_for b.len) in
  unsafe_set data i (not (get b i));
  mk data b.len

let xor a b =
  if a.len <> b.len then invalid_arg "Bitstring.xor: length mismatch";
  let nbytes = bytes_for a.len in
  let data = Bytes.create nbytes in
  for j = 0 to nbytes - 1 do
    Bytes.unsafe_set data j
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get a.data (a.off + j))
         lxor Char.code (Bytes.unsafe_get b.data (b.off + j))))
  done;
  (* both tails are zero, so the xor'd tail is zero too *)
  mk data a.len

(* OR [len] bits of [src] (starting at byte [src_off], padding bits
   zero) into [dst] starting at bit offset [off].  The destination
   range must be zero.  Unaligned offsets shift-merge whole source
   bytes: the high [8-r] bits of each source byte land in one
   destination byte, the low [r] bits spill into the next — which
   exists whenever the spill is nonzero, because a nonzero spill comes
   from a real (in-range) source bit. *)
let unsafe_blit_bits src src_off len dst off =
  if len > 0 then begin
    let r = off land 7 and j0 = off lsr 3 in
    let nbytes = bytes_for len in
    if r = 0 then Bytes.blit src src_off dst j0 nbytes
    else begin
      let hi = 8 - r in
      for i = 0 to nbytes - 1 do
        let c = Char.code (Bytes.unsafe_get src (src_off + i)) in
        let j = j0 + i in
        let d = Char.code (Bytes.unsafe_get dst j) in
        Bytes.unsafe_set dst j (Char.unsafe_chr (d lor (c lsr r)));
        let spill = (c lsl hi) land 0xff in
        if spill <> 0 then begin
          let d2 = Char.code (Bytes.unsafe_get dst (j + 1)) in
          Bytes.unsafe_set dst (j + 1) (Char.unsafe_chr (d2 lor spill))
        end
      done
    end
  end

let append a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else begin
    let len = a.len + b.len in
    let data = Bytes.make (bytes_for len) '\000' in
    Bytes.blit a.data a.off data 0 (bytes_for a.len);
    unsafe_blit_bits b.data b.off b.len data a.len;
    mk data len
  end

let sub b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > b.len then
    invalid_arg "Bitstring.sub: out of bounds";
  if len = 0 then empty
  else begin
    let data = Bytes.make (bytes_for len) '\000' in
    let r = pos land 7 and j0 = b.off + (pos lsr 3) in
    let nbytes = bytes_for len in
    if r = 0 then Bytes.blit b.data j0 data 0 nbytes
    else begin
      (* left-shift across byte boundaries *)
      let hi = 8 - r in
      let src_end = b.off + bytes_for b.len in
      for i = 0 to nbytes - 1 do
        let c1 = Char.code (Bytes.unsafe_get b.data (j0 + i)) in
        let c2 =
          if j0 + i + 1 < src_end then
            Char.code (Bytes.unsafe_get b.data (j0 + i + 1))
          else 0
        in
        Bytes.unsafe_set data i
          (Char.unsafe_chr (((c1 lsl r) lor (c2 lsr hi)) land 0xff))
      done
    end;
    mask_tail data len;
    mk data len
  end

(* Read [width] <= 62 bits starting at bit [pos], MSB first, as an int.
   Bounds are the caller's responsibility (Bitbuf checks them). *)
let unsafe_extract b ~pos ~width =
  let v = ref 0 in
  let p = ref pos and remaining = ref width in
  while !remaining > 0 do
    let j = !p lsr 3 and r = !p land 7 in
    let avail = 8 - r in
    let take = if avail < !remaining then avail else !remaining in
    let c = Char.code (Bytes.unsafe_get b.data (b.off + j)) in
    let chunk = (c lsr (avail - take)) land ((1 lsl take) - 1) in
    v := (!v lsl take) lor chunk;
    p := !p + take;
    remaining := !remaining - take
  done;
  !v

let unsafe_blit src dst ~off = unsafe_blit_bits src.data src.off src.len dst off

let unsafe_of_bytes data ~len =
  if Bytes.length data <> bytes_for len then
    invalid_arg "Bitstring.unsafe_of_bytes: byte count does not match length";
  mk data len

let unsafe_pack b dst ~off =
  Bytes.blit b.data b.off dst off (bytes_for b.len);
  { data = dst; off; len = b.len; hash_cache = b.hash_cache }

let unsafe_view data ~off ~len = { data; off; len; hash_cache = -1 }

let to_string b = String.init b.len (fun i -> if get b i then '1' else '0')

let pp ppf b = Format.fprintf ppf "%s⟨%d⟩" (to_string b) b.len
