(** Deterministic, splittable pseudo-random number generator.

    All randomized components (graph generators, adversarial corruption,
    random formula generation) take an explicit {!t} so that every
    experiment and test is reproducible from a seed.  The generator is
    SplitMix64; it is emphatically not cryptographic.

    A generator is one 64-bit state word held in an 8-byte buffer and
    read and written in place, so a draw allocates nothing: no boxed
    [int64] state per step, and {!int}, {!bool} and {!chance} return
    immediate values.  [split] allocates one such buffer per child. *)

type t

val make : int -> t
(** [make seed] creates a generator from an integer seed. *)

val split : t -> int -> t array
(** [split r k] returns [k] pairwise-distinct independent generators and
    advances [r] by [k] steps.  Use it to hand private streams to
    sub-computations (in particular parallel domains) without coupling
    their consumption to the caller's: the array depends only on the
    state of [r], so a computation that shards work over [split r k] is
    reproducible regardless of how many domains execute the shards. *)

val int : t -> int -> int
(** [int r bound] is {e exactly} uniform in [\[0, bound)]: draws whose
    [mod bound] residue would be over-represented (the incomplete top
    block of the 62-bit draw range) are rejected and redrawn, so there
    is no modulo bias for bounds that do not divide 2{^62}.  Raises
    [Invalid_argument] if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in r lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val bool : t -> bool
(** A fair coin. *)

val float : t -> float -> float
(** [float r bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance r p] is [float r 1.0 < p]: true with probability [p]
    (clamped to [\[0, 1\]]).  It takes the same single step as
    [float r 1.0], so the two are interchangeable in a pinned stream,
    but it returns no float and so boxes none. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list.  Raises [Invalid_argument] on
    the empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation r n] is a uniform permutation of [0..n-1]. *)

val bits : t -> int -> Bitstring.t
(** [bits r len] is a uniform bit string of length [len]. *)

(**/**)

val unbiased_mod : draw:(unit -> int) -> int -> int
(** Exposed for the test suite only: the rejection-sampling core of
    {!int}, over a caller-supplied stream of uniform draws from
    [\[0, 2^62)].  Lets tests drive the rejection branch with a
    deterministic fake stream, which no realistic seed reaches. *)
