(** Per-vertex protocol state of the round-based runtime.

    A node owns the mutable state the simulator evolves across rounds:
    its stored certificate (mutated by persistent corruption faults)
    and its liveness status.  Everything else — identifier, label,
    topology — is read from the immutable {!Instance.t}. *)

type status =
  | Alive
  | Crashed  (** permanently silent; renders no verdicts *)
  | Byzantine  (** sends forged per-neighbor messages; renders no verdicts *)

type t = {
  vertex : int;
  id : int;  (** the instance identifier, [Instance.id_of] *)
  mutable cert : Bitstring.t;
  mutable status : status;
}

val boot : Instance.t -> Bitstring.t array -> t array
(** Initial node array: every vertex alive, holding its assigned
    certificate as given ([Runtime.execute] passes the array through
    [Scheme.intern] first).  Raises [Invalid_argument] if the
    certificate count does not match the instance. *)
