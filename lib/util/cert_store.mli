(** Per-array certificate dedupe.

    [intern_all certs] collapses structurally equal certificates within
    [certs] to one physically shared value, so duplicate labels
    (identical kernel-MSO labels, broadcast schemes) are allocated once
    and compared by pointer.  The dedupe table is local to the call: no
    state outlives it.

    Callers holding a scheme go through [Scheme.intern], which skips
    this for plane-backed lowerings (the spanning family): their
    certificates are per-vertex, so the table would find no repeat, and
    their provers already write one packed buffer ([Bitbuf.pack]).
    [Runtime.execute] boots its nodes through [Scheme.intern] too.

    Invariant: dedupe never changes observable behaviour.  Every output
    element satisfies [Bitstring.equal c c'] with its input and has the
    same length, so certificate sizes ([max_cert_bits]) and wire-bit
    accounting are byte-identical on the raw and the deduped array. *)

val intern_all : Bitstring.t array -> Bitstring.t array
(** Fresh array, equal payloads within it physically shared (empty
    certificates pass through untouched).  Arrays of ≥ 2¹⁶ entries —
    the multi-million-vertex regime, where per-vertex certificates are
    mostly distinct — are also {e arena-packed}: payloads are copied
    back-to-back into a few ≥ 4 MiB major-heap chunks and returned as
    byte-offset views.  Smaller arrays keep their payloads in place.
    Safe to call from parallel domains. *)

type stats = {
  arena_packs : int;  (** arrays arena-packed *)
  arena_certs : int;  (** payloads copied into arena chunks *)
  arena_bytes : int;  (** payload bytes copied into arena chunks *)
}

val stats : unit -> stats
(** Arena totals since the last {!reset}. *)

val reset : unit -> unit
(** Zero the counters. *)
