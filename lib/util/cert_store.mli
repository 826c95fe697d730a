(** Hash-consed certificate store.

    [intern c] returns a canonical physically-shared representative of
    [c]: structurally equal certificates intern to the same value, so
    duplicate labels (identical kernel-MSO labels, unchanged per-round
    re-broadcasts) are allocated once and compared by pointer.

    Invariant: interning never changes observable behaviour.  The
    returned value satisfies [Bitstring.equal c (intern c)] and has the
    same length, so certificate sizes ([max_cert_bits]) and wire-bit
    accounting are byte-identical with the store enabled or disabled.

    The store is a process-global sharded table, safe to use from
    parallel domains. *)

val intern : Bitstring.t -> Bitstring.t
(** Canonical representative (the identity when disabled, and on the
    empty certificate). *)

val intern_all : Bitstring.t array -> Bitstring.t array
(** Fresh array of interned certificates.  Large arrays (≥ 2¹⁶
    entries — the multi-million-vertex regime, where per-vertex
    certificates are mostly distinct and global interning would only
    grow the table) are instead {e arena-packed}: payloads are copied
    back-to-back into a few ≥ 4 MiB major-heap chunks and returned as
    byte-offset views, with duplicates collapsed within the array.
    Either way every output element is structurally equal to its
    input, so the invariant above holds unchanged. *)

val pack : Bitstring.t array -> Bitstring.t array
(** Arena-pack unconditionally (what {!intern_all} does past the size
    threshold).  Exposed for the differential tests and benchmarks. *)

val set_enabled : bool -> unit
(** Toggle interning globally; disabled means [intern] is the
    identity.  Enabled by default. *)

val is_enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with interning forced on/off, restoring the previous
    setting afterwards. *)

type stats = {
  lookups : int;
  hits : int;
  distinct : int;
  arena_packs : int;  (** arrays routed through {!pack} *)
  arena_certs : int;  (** payloads copied into arena chunks *)
  arena_bytes : int;  (** payload bytes living in arena chunks *)
}

val stats : unit -> stats
(** Counters since the last {!reset}: total interning lookups, lookups
    that found an existing representative, distinct certificates
    stored, and arena totals. *)

val reset : unit -> unit
(** Drop all interned certificates and zero the counters. *)
