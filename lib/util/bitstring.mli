(** Immutable bit strings.

    Certificates in local certification are, by definition, strings of
    bits; the size of a certification is the number of bits of its
    largest certificate.  Every scheme in this library materializes its
    certificates as values of type {!t} so that sizes are measured on
    real encodings rather than estimated.

    Bits are addressed from 0; bit 0 is the first bit written by a
    {!Bitbuf.Writer}. *)

type t

(** {1 Construction} *)

val empty : t
(** The empty bit string (0 bits). *)

val of_bools : bool list -> t
(** [of_bools bs] is the bit string whose [i]-th bit is [List.nth bs i]. *)

val of_string : string -> t
(** [of_string s] parses a textual bit string such as ["010011"].
    Raises [Invalid_argument] on characters other than ['0'] and ['1']. *)

(** {1 Observation} *)

val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool
(** [get b i] is the [i]-th bit.  Raises [Invalid_argument] if [i] is
    out of bounds. *)

val to_bools : t -> bool list
(** All bits, in order. *)

val equal : t -> t -> bool
(** Structural equality (same length and same bits). *)

val compare : t -> t -> int
(** A total order compatible with {!equal}. *)

val hash : t -> int
(** A hash compatible with {!equal}: FNV-1a over the length and the
    underlying bytes, computed in place (no intermediate string) and
    cached inside the value, so repeated lookups in memo tables and the
    certificate dedupe table hash each distinct value once. *)

(** {1 Mutation-as-copy} *)

val flip : t -> int -> t
(** [flip b i] is [b] with bit [i] negated.  Used by the adversarial
    soundness harness to corrupt certificates. *)

val xor : t -> t -> t
(** [xor a b] is the bitwise exclusive-or of two strings of the same
    length.  Raises [Invalid_argument] on a length mismatch. *)

val append : t -> t -> t
(** Concatenation (byte-blit plus shift-merge; not per-bit). *)

val sub : t -> pos:int -> len:int -> t
(** [sub b ~pos ~len] extracts [len] bits starting at [pos]. *)

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Prints as ["0"/"1"] characters, with a [⟨len⟩] suffix. *)

val to_string : t -> string
(** ["010011"]-style rendering (no suffix). *)

(** {1 Byte-level plumbing}

    Word-level building blocks used by {!Bitbuf} to avoid per-bit
    loops.  They expose the internal MSB-first byte layout: bit [i]
    lives in byte [i / 8] at position [7 - i mod 8], and the unused low
    bits of the last byte are zero.  Ordinary clients never need
    them. *)

val unsafe_of_bytes : Bytes.t -> len:int -> t
(** [unsafe_of_bytes data ~len] wraps [data] (which must have exactly
    [(len+7)/8] bytes and zero padding bits) without copying.  The
    caller must not mutate [data] afterwards. *)

val unsafe_blit : t -> Bytes.t -> off:int -> unit
(** [unsafe_blit src dst ~off] ORs the bits of [src] into [dst]
    starting at bit offset [off].  The destination bit range must be
    within [dst] and currently zero; bounds are not checked. *)

val unsafe_extract : t -> pos:int -> width:int -> int
(** [unsafe_extract b ~pos ~width] reads [width <= 62] bits starting
    at [pos], most significant first.  Bounds are not checked. *)

val byte_size : t -> int
(** Number of payload bytes, [(length + 7) / 8] — what {!unsafe_pack}
    writes. *)

val unsafe_pack : t -> Bytes.t -> off:int -> t
(** [unsafe_pack b dst ~off] copies the payload bytes of [b] into
    [dst] at byte offset [off] and returns a bit string {e viewing}
    those bytes in place — structurally equal to [b] (the cached hash
    carries over) with no buffer of its own.  The certificate arenas
    (Cert_store) use this to pack millions of payloads back-to-back
    into a few large chunks.  The caller must reserve
    [byte_size b] bytes at [off] inside [dst] and must not mutate
    them afterwards; bounds are not checked. *)

val unsafe_view : Bytes.t -> off:int -> len:int -> t
(** [unsafe_view data ~off ~len] is the [len]-bit string held in
    [data]'s bytes from byte offset [off], without copying — how
    {!Bitbuf.pack} cuts its certificates out of one packed buffer.
    Those [(len + 7) / 8] bytes must lie inside [data], their padding
    bits must be zero, and the caller must not mutate them afterwards;
    bounds are not checked. *)
