(** Ancestor-list certificates with per-ancestor annotations — the
    machinery shared by the treedepth certification (Theorem 2.4,
    Section 5) and the certified kernel (Theorem 2.6, Section 6.4).

    Certificate of a vertex [u] at depth [d] of an elimination tree:
    one {!entry} per ancestor of [u] (itself first, root last), where
    the entry for the ancestor [v] at depth [j] carries

    - the identifier of [v],
    - an annotation about [v] of the client's choosing ([unit] for
      plain treedepth; pruned flags / end types / kernel indices for
      the kernel scheme) — annotations travel with the ids, so the
      suffix checks force network-wide agreement on them,
    - for [j ≥ 2], [u]'s position in a spanning tree of [G_v] rooted at
      the exit vertex of [v] (Section 5): the exit's identifier, [u]'s
      distance, and [u]'s parent in that tree.

    The verification implements Section 5's four steps: depth bound and
    id agreement; suffix compatibility of neighbor lists; presence of
    [d−1] spanning-tree records; and per-depth local spanning-tree
    correctness, including that the exit vertex of [v] touches [v]'s
    parent.  {!verify_decoded} additionally reports the {e children}
    information used by the kernel scheme: for each child subtree of
    the vertex (all are visible by coherence), the child's claimed
    (id, annotation) — with conflicting claims rejected. *)

type tree_entry = { exit_id : int; dist : int; parent_id : int }

type 'a entry = { aid : int; ann : 'a; tree : tree_entry option }
(** [tree = None] exactly on the root entry (depth 1). *)

type 'a codec = {
  write : Bitbuf.Writer.t -> 'a -> unit;
  read : Bitbuf.Reader.t -> 'a;
  equal : 'a -> 'a -> bool;
}

val unit_codec : unit codec

(** {1 Prover side} *)

val build :
  Instance.t ->
  Elimination.t ->
  ann:(int -> 'a) ->
  'a entry list array
(** Per-vertex entry lists for a {e coherent} model ([ann v] is the
    annotation attached to vertex [v]; it is replicated into the
    certificate of every descendant of [v]).  Raises
    [Invalid_argument] if the model is not coherent (coherence is what
    guarantees exit vertices exist). *)

val encode : id_bits:int -> 'a codec -> 'a entry list -> Bitstring.t
val decode : id_bits:int -> 'a codec -> Bitstring.t -> 'a entry list option

val decode_arr : id_bits:int -> 'a codec -> Bitstring.t -> 'a entry array option
(** {!decode} into an array — the representation the array verifier
    ({!verify_decoded}) and the compiled engine path work on. *)

(** {1 Verifier side} *)

type 'a analysis_arr = {
  aentries : 'a entry array;  (** my decoded list, self first *)
  achildren : (int * 'a) list;
      (** (id, annotation) of each child of mine visible through a
          deeper neighbor, deduplicated; conflicting annotations for
          one id are a verification failure *)
}
(** What {!verify_decoded} reports (neighbor lists stay with the
    caller). *)

val verify_decoded :
  t_bound:int ->
  'a codec ->
  me:int ->
  'a entry array option ->
  ids:int array ->
  src:int array ->
  decs:'b array ->
  lo:int ->
  hi:int ->
  proj:('b -> 'a entry array option) ->
  ('a analysis_arr, string) result
(** All Section-5 checks at one vertex over pre-decoded certificates
    ([None] = malformed); [t_bound] is the certified depth bound [t].
    A row as in {!Scheme.lowering}'s [check], where [proj] extracts
    each neighbor's entry array.  All suffix comparisons run on one
    precomputed common-suffix length per neighbor, so the per-vertex
    work is O(Σ min(d, dn)) instead of a list walk's quadratic one. *)
