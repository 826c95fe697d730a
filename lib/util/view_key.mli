(** Structural cache key for a radius-1 view.

    A radius-1 verifier's verdict is a pure function of its view; the
    parts of the view that can change between rounds of the
    distributed runtime are the vertex's own certificate and the inbox
    of (sender id, payload) pairs.  A {!t} captures exactly those, plus
    a precomputed digest, so a verdict cache can test "did this
    vertex's view change?" in O(1) expected time while staying exact:
    {!equal} confirms every digest match structurally, so hash
    collisions can never smuggle a stale verdict through. *)

type t

val make : cert:Bitstring.t -> nbrs:(int * Bitstring.t) list -> t
(** [make ~cert ~nbrs] keys a view by the vertex's own certificate and
    its inbox sorted ascending by sender id (the order
    [Scheme.view.nbrs] uses).  Hashing reuses the cached
    {!Bitstring.hash} of each component, so building a key is O(degree)
    hash folds, not a rescan of the payload bytes. *)

val digest : t -> int
(** The nonnegative 62-bit fingerprint.  Equal keys have equal
    digests; the converse is only almost-always true, which is why
    {!equal} exists. *)

val equal : t -> t -> bool
(** Digest fast-path, then full structural comparison
    ([Bitstring.equal] on certificates — a pointer test when both sides
    are one deduped value). *)
