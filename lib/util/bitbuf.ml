exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

module Writer = struct
  (* Growable byte buffer, bits packed MSB first.  Bytes past [len] are
     always zero, so appending a 0-bit (or a run of them) is just a
     length bump, and [contents] can hand the prefix to [Bitstring]
     with the zero-padding invariant already holding. *)
  type t = { mutable buf : Bytes.t; mutable len : int (* bits *) }

  let create () = { buf = Bytes.make 32 '\000'; len = 0 }

  let ensure w extra =
    let need = (w.len + extra + 7) / 8 in
    if need > Bytes.length w.buf then begin
      let cap = ref (Bytes.length w.buf) in
      while !cap < need do
        cap := !cap * 2
      done;
      let nb = Bytes.make !cap '\000' in
      Bytes.blit w.buf 0 nb 0 (Bytes.length w.buf);
      w.buf <- nb
    end

  let bit w b =
    ensure w 1;
    if b then begin
      let j = w.len lsr 3 in
      Bytes.unsafe_set w.buf j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get w.buf j)
           lor (1 lsl (7 - (w.len land 7)))));
    end;
    w.len <- w.len + 1

  (* Append the low [width] <= 62 bits of [n], most significant first,
     one byte-merge per iteration rather than one call per bit. *)
  let unsafe_bits w ~width n =
    ensure w width;
    let remaining = ref width in
    while !remaining > 0 do
      let free = 8 - (w.len land 7) in
      let take = if free < !remaining then free else !remaining in
      let chunk = (n lsr (!remaining - take)) land ((1 lsl take) - 1) in
      if chunk <> 0 then begin
        let j = w.len lsr 3 in
        Bytes.unsafe_set w.buf j
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get w.buf j) lor (chunk lsl (free - take))))
      end;
      w.len <- w.len + take;
      remaining := !remaining - take
    done

  (* A run of zero bits: the buffer is already zero there. *)
  let zeros w count =
    ensure w count;
    w.len <- w.len + count

  let fixed w ~width n =
    if n < 0 then invalid_arg "Bitbuf.Writer.fixed: negative";
    if width < 0 || (width < 63 && n lsr width <> 0) then
      invalid_arg
        (Printf.sprintf "Bitbuf.Writer.fixed: %d does not fit in %d bits" n
           width);
    if width > 62 then begin
      zeros w (width - 62);
      unsafe_bits w ~width:62 n
    end
    else unsafe_bits w ~width n

  (* Elias gamma of [n+1]: with [k] = number of bits of [n+1], write
     [k-1] zeros, then the [k] bits of [n+1]. *)
  let nat w n =
    if n < 0 then invalid_arg "Bitbuf.Writer.nat: negative";
    let v = n + 1 in
    let k =
      let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
      go 0 v
    in
    zeros w (k - 1);
    unsafe_bits w ~width:k v

  let int w n =
    let zigzag = if n >= 0 then 2 * n else (-2 * n) - 1 in
    nat w zigzag

  let bitstring w b =
    let blen = Bitstring.length b in
    nat w blen;
    ensure w blen;
    Bitstring.unsafe_blit b w.buf ~off:w.len;
    w.len <- w.len + blen

  let list w enc xs =
    nat w (List.length xs);
    List.iter (enc w) xs

  let string w s =
    nat w (String.length s);
    String.iter (fun c -> unsafe_bits w ~width:8 (Char.code c)) s

  let length w = w.len

  let contents w =
    let nbytes = (w.len + 7) / 8 in
    Bitstring.unsafe_of_bytes (Bytes.sub w.buf 0 nbytes) ~len:w.len
end

(* One writer for the whole array: each certificate starts on the
   byte boundary after the previous one's last bit, and the writer's
   zero fill past [len] is exactly the padding a bit string needs.  The
   buffer grows by doubling, so the views are cut only after the last
   write, from the end position each encoding left. *)
let pack n enc =
  let w = Writer.create () in
  let ends = Array.make n 0 in
  for i = 0 to n - 1 do
    w.Writer.len <- (w.Writer.len + 7) land lnot 7;
    enc w i;
    ends.(i) <- w.Writer.len
  done;
  let buf = w.Writer.buf in
  Array.init n (fun i ->
      let start = if i = 0 then 0 else (ends.(i - 1) + 7) land lnot 7 in
      Bitstring.unsafe_view buf ~off:(start lsr 3) ~len:(ends.(i) - start))

module Reader = struct
  type t = { src : Bitstring.t; mutable pos : int }

  let of_bitstring src = { src; pos = 0 }

  let bit r =
    if r.pos >= Bitstring.length r.src then fail "truncated certificate";
    let b = Bitstring.get r.src r.pos in
    r.pos <- r.pos + 1;
    b

  let fixed r ~width =
    if width <= 62 then begin
      if r.pos + width > Bitstring.length r.src then fail "truncated certificate";
      let v = Bitstring.unsafe_extract r.src ~pos:r.pos ~width in
      r.pos <- r.pos + width;
      v
    end
    else begin
      (* wider than an int payload: the leading bits must decode as
         zero for the value to be representable at all *)
      let n = ref 0 in
      for _ = 1 to width do
        n := (!n lsl 1) lor (if bit r then 1 else 0)
      done;
      !n
    end

  (* Bit length of [v > 0]. *)
  let bitlen v =
    let n = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then begin
      n := !n + 32;
      v := !v lsr 32
    end;
    if !v lsr 16 <> 0 then begin
      n := !n + 16;
      v := !v lsr 16
    end;
    if !v lsr 8 <> 0 then begin
      n := !n + 8;
      v := !v lsr 8
    end;
    if !v lsr 4 <> 0 then begin
      n := !n + 4;
      v := !v lsr 4
    end;
    if !v lsr 2 <> 0 then begin
      n := !n + 2;
      v := !v lsr 2
    end;
    if !v lsr 1 <> 0 then incr n;
    !n + 1

  (* Slow continuation once the zero-run length [k] is known but the
     value bits run past the peeked window: the leading 1 sits at
     [pos + k], the remaining [k] bits follow it.  At k = 62 the code
     is 2^62 + rest, so only rest = 0 (max_int) is an int. *)
  let nat_finish r k =
    if r.pos + (2 * k) + 1 > Bitstring.length r.src then
      fail "truncated certificate";
    let rest = Bitstring.unsafe_extract r.src ~pos:(r.pos + k + 1) ~width:k in
    if k = 62 && rest <> 0 then fail "nat: unreasonable length";
    r.pos <- r.pos + (2 * k) + 1;
    ((1 lsl k) lor rest) - 1

  (* Gamma decoding bit-by-bit costs one bounds-checked [Bitstring.get]
     per leading zero — the hot cost of every certificate decode.  Peek
     one word-sized window instead: the zero-run length falls out of
     the window's bit length, and for small values (the common case)
     the value bits are already in the window too, making the whole
     decode two arithmetic steps on one extract. *)
  let nat_window r avail =
    let m = if avail < 62 then avail else 62 in
    let w = Bitstring.unsafe_extract r.src ~pos:r.pos ~width:m in
    if w = 0 then
      if avail <= 62 then fail "truncated certificate"
      else if Bitstring.get r.src (r.pos + 62) then nat_finish r 62
      else fail "nat: unreasonable length"
    else begin
      let k = m - bitlen w in
      if (2 * k) + 1 <= m then begin
        let value = (w lsr (m - ((2 * k) + 1))) land ((1 lsl (k + 1)) - 1) in
        r.pos <- r.pos + (2 * k) + 1;
        value - 1
      end
      else nat_finish r k
    end

  let nat r =
    let avail = Bitstring.length r.src - r.pos in
    if avail <= 0 then fail "truncated certificate";
    (* one-byte peek first: gamma codes of values < 16 (the vast
       majority — list lengths, small distances, annotations) resolve
       inside it, and a byte window is a one-iteration extract *)
    let m1 = if avail < 8 then avail else 8 in
    let w1 = Bitstring.unsafe_extract r.src ~pos:r.pos ~width:m1 in
    if w1 = 0 then
      if m1 = avail then fail "truncated certificate" else nat_window r avail
    else begin
      let k = m1 - bitlen w1 in
      if (2 * k) + 1 <= m1 then begin
        let value = (w1 lsr (m1 - ((2 * k) + 1))) land ((1 lsl (k + 1)) - 1) in
        r.pos <- r.pos + (2 * k) + 1;
        value - 1
      end
      else nat_window r avail
    end

  let int r =
    let z = nat r in
    if z mod 2 = 0 then z / 2 else -((z + 1) / 2)

  let bitstring r =
    let len = nat r in
    if r.pos + len > Bitstring.length r.src then fail "truncated certificate";
    let b = Bitstring.sub r.src ~pos:r.pos ~len in
    r.pos <- r.pos + len;
    b

  let list r dec =
    let len = nat r in
    List.init len (fun _ -> dec r)

  let string r =
    let len = nat r in
    if len > (Bitstring.length r.src - r.pos) / 8 then fail "truncated string";
    String.init len (fun _ -> Char.chr (fixed r ~width:8))

  let remaining r = Bitstring.length r.src - r.pos

  let expect_end r =
    if remaining r <> 0 then fail "trailing bits in certificate"
end

let decode b dec =
  let r = Reader.of_bitstring b in
  match
    let v = dec r in
    Reader.expect_end r;
    v
  with
  | v -> Some v
  | exception Decode_error _ -> None
