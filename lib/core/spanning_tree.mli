(** Spanning-tree certification (Proposition 3.4) and its classic
    derivatives.

    Certificate of a vertex: the root's identifier, the BFS distance to
    the root, and the parent's identifier.  Local distance comparisons
    force the parent pointers to form a spanning tree rooted at the
    unique vertex of distance 0 — the foundational O(log n) tool of the
    whole area.

    Derivatives: vertex-count certification (each vertex also carries
    its subtree size and the claimed total) and acyclicity (every edge
    must be a tree edge). *)

type cert = { root_id : int; dist : int; parent_id : int }
(** [parent_id = own id] at the root. *)

val encode : id_bits:int -> cert -> Bitstring.t
(** One certificate through its own writer.  The provers write the
    same bits for every vertex at once into one packed buffer
    ({!Bitbuf.pack}). *)

type count_cert = {
  c_root_id : int;
  c_dist : int;
  c_parent_id : int;
  size : int;  (** vertices in the subtree below this one, itself included *)
  total : int;  (** the claimed vertex count *)
}
(** A {!vertex_count} / {!counted} certificate: the tree fields, then
    the subtree size and the claimed total. *)

val encode_count : id_bits:int -> count_cert -> Bitstring.t
(** One count certificate through its own writer; like {!encode}, the
    provers write the same bits packed. *)

val scheme : ?root:int -> unit -> Scheme.t
(** Certifies "the graph is connected and admits a spanning tree" —
    trivially true, but the verification logic is the reusable
    ingredient.  [root] fixes the prover's choice (default 0). *)

val acyclicity : Scheme.t
(** Certifies that the (connected) graph is a tree: spanning-tree
    checks plus "every neighbor is my parent or my child". *)

val vertex_count : ?root:int -> expected:(int -> bool) -> string -> Scheme.t
(** Certifies a predicate on the number of vertices (e.g. [n = 17], or
    [n] even): subtree-size counting along a certified spanning tree.
    The string names the predicate in the scheme name. *)

val count_cert_size : Instance.t -> int
(** Measured certificate size of {!vertex_count} on an instance — the
    E1 series. *)

val counted :
  ?choose_root:(Graph.t -> int option) ->
  name:string ->
  total_pred:(int -> bool) ->
  local:(total:int -> me:int -> degree:int -> bool) ->
  root_check:(total:int -> degree:int -> bool) ->
  unit ->
  Scheme.t
(** The general count-and-check pattern behind the depth-2 fragment
    (Lemma A.3): certify the vertex count [n]; every vertex checks
    [local ~total ~me ~degree]; the spanning-tree root additionally
    checks [root_check] — with [choose_root] the prover points the tree
    at a witness (e.g. a dominating vertex).  Completeness requires the
    chosen root to pass [root_check] on yes-instances. *)

(** {1 Verification core (shared with richer schemes)}

    Each scheme above has one decoded form and one check, over a
    struct-of-arrays plane ({!Scheme.flat}): a certificate reads
    straight into its row [valid; root_id; dist; parent_id] (then
    [size; total] for a count certificate), with [valid = 0] exactly
    where {!Bitbuf.decode} would refuse the bits, trailing bits
    included.  {!Scheme.flat_lowering} derives the boxed form every
    non-compiled path runs.  The spanning-tree check is also exposed on
    its own for schemes that embed spanning trees. *)

val check_tree_view :
  me:int -> cert -> neighbors:(int * cert) list -> (unit, string) result
(** The spanning-tree local checks at one vertex over well-formed
    certificates: {!scheme}'s own plane check, run on rows built from
    the records, with the same reason strings.  [Existential_fo] runs
    it once per witness tree. *)
