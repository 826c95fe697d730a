(** Certification instances: a connected graph with unique identifiers.

    The model of Section 3.3: vertices carry unique IDs from a
    polynomial range [\[1, n^k\]], so an ID fits in [O(log n)] bits.
    The {!id_bits} width is instance-global public knowledge (every
    codec in the library reads and writes IDs at this width, which is
    how measured certificate sizes inherit their [log n] factors
    honestly). *)

type t = private {
  graph : Graph.t;
  ids : int array;  (** [ids.(v)] = identifier of vertex [v]; unique, ≥ 1 *)
  id_bits : int;  (** width used to encode one identifier *)
  labels : int array;  (** vertex labels (all 0 when unlabeled) *)
}

val make : ?labels:int array -> ?ids:int array -> ?id_bits:int -> Graph.t -> t
(** Default identifiers are [v + 1]; raises [Invalid_argument] on
    duplicate or nonpositive ids, a wrong [ids] or [labels] length, or
    if the graph is empty.  The default ids need no check; a supplied
    array is checked with a hash table.

    [?id_bits] widens the identifier encoding beyond the minimum the
    ids require (raises [Invalid_argument] if too narrow to encode the
    largest id).  A sub-instance that must stay wire-compatible with
    its parent — region-scoped re-certification splices sub-instance
    certificates into a full assignment — passes the parent's width
    here, so every codec reads and writes ids at the same width on
    both sides. *)

val with_random_ids : ?range_exp:int -> Localcert_util.Rng.t -> t -> t
(** Redraw distinct identifiers uniformly from [\[1, n^range_exp\]]
    (default exponent 2) — tests use this to confirm schemes do not
    depend on the friendly default numbering. *)

val vertex_of_id : t -> int -> int option
(** Reverse lookup. *)

val id_of : t -> int -> int
val n : t -> int
val neighbor_ids : t -> int -> int list
(** Sorted identifiers of the neighbors of a vertex. *)
