(** Bit-level writers and readers for certificate codecs.

    Every certification scheme encodes its typed certificate through a
    {!Writer} and decodes neighbor certificates through a {!Reader}.
    The encodings are self-contained: a reader consuming a well-formed
    certificate never needs out-of-band length information beyond what
    the codec itself wrote.

    Numeric encodings:
    - [fixed ~width] writes exactly [width] bits, most significant
      first.  Used for vertex identifiers once an instance-wide ID
      width has been negotiated.
    - [nat] is the Elias gamma code of [n+1]: self-delimiting, about
      [2·log2 (n+1) + 1] bits.  Used for lengths and small counters.

    Readers raise {!Decode_error} (rather than assert-failing) on
    malformed input, because verifiers must treat adversarial
    certificates as ordinary "reject" cases. *)

exception Decode_error of string
(** Raised by {!Reader} operations on truncated or malformed input. *)

module Writer : sig
  type t

  val create : unit -> t

  val bit : t -> bool -> unit
  (** Append one bit. *)

  val fixed : t -> width:int -> int -> unit
  (** [fixed w ~width n] appends the [width]-bit big-endian encoding of
      [n].  Raises [Invalid_argument] if [n] is negative or does not
      fit. *)

  val nat : t -> int -> unit
  (** Elias-gamma append of a natural number (0 allowed). *)

  val int : t -> int -> unit
  (** Zigzag-then-{!nat} append of a possibly negative integer. *)

  val bitstring : t -> Bitstring.t -> unit
  (** Append a length-prefixed bit string ([nat] length, then bits). *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** [list w enc xs] appends [nat (List.length xs)] then each element. *)

  val string : t -> string -> unit
  (** [string w s] appends [nat (String.length s)] then each byte as 8
      fixed bits.  Used by the wire protocol for scheme names, graph
      specs and rejection reasons. *)

  val length : t -> int
  (** Number of bits appended so far. *)

  val contents : t -> Bitstring.t
  (** The bits appended so far (the writer remains usable). *)
end

val pack : int -> (Writer.t -> int -> unit) -> Bitstring.t array
(** [pack n enc] is [[| c_0; …; c_{n-1} |]] where [c_i] holds the bits
    [enc w i] appends — each equal ({!Bitstring.equal}, [hash],
    [compare]) to encoding [i] through its own writer and taking
    {!Writer.contents}.  One writer serves all [n] calls, each
    certificate starting on a byte boundary, and the results are views
    into its one buffer: a prover pays one small box per certificate
    instead of a writer, a buffer and a copy.  [enc] must only append
    to [w]. *)

module Reader : sig
  type t

  val of_bitstring : Bitstring.t -> t

  val bit : t -> bool
  val fixed : t -> width:int -> int
  val nat : t -> int
  val int : t -> int
  val bitstring : t -> Bitstring.t
  val list : t -> (t -> 'a) -> 'a list

  val string : t -> string
  (** Inverse of {!Writer.string}; raises {!Decode_error} on truncated
      input (the length prefix is validated against the remaining bits
      before any allocation, so adversarial lengths cannot force a
      large allocation). *)

  val remaining : t -> int
  (** Bits not yet consumed. *)

  val expect_end : t -> unit
  (** Raises {!Decode_error} if bits remain.  Verifiers call this to
      refuse padded certificates. *)
end

val decode : Bitstring.t -> (Reader.t -> 'a) -> 'a option
(** [decode b dec] runs [dec] on a fresh reader over [b] and checks
    that all input was consumed; [None] on any {!Decode_error}. *)
