(** Elimination trees (treedepth models, Definition 3.1).

    An elimination forest of [G] is a rooted forest on the vertex set of
    [G] such that every edge of [G] joins an ancestor–descendant pair.
    For connected graphs it is a tree, the paper's "t-model".

    Depth convention: the root has depth 1, and the {e treedepth}
    witnessed by a model is its {!height} — the number of vertices on a
    longest root-to-leaf path.  This is the standard (Nešetřil–Ossona de
    Mendez) convention, the one under which Lemma 7.3's "treedepth 5"
    equals the cops-and-robber number 5; the caption of the paper's
    Figure 1 counts edges instead (its "depth 2" for P₇ is height 3
    here).  E10 prints both readings. *)

type t = { parent : int array  (** [-1] for roots *) }

val make : parent:int array -> t
(** Validates that [parent] is acyclic (a forest). *)

val n : t -> int
val roots : t -> int list
val root : t -> int
(** The unique root; raises [Invalid_argument] if the forest is not a
    tree. *)

val depth : t -> int array
(** Per-vertex depth, roots at depth 1. *)

val height : t -> int
(** Maximum depth — the treedepth witnessed by this model. *)

val ancestors : t -> int -> int list
(** From the vertex itself up to its root (inclusive), in order — the
    certificate list of Theorem 2.4. *)

val children : t -> int -> int list

val children_all : t -> int list array
(** Every vertex's children (ascending), built in one O(n) pass:
    [(children_all t).(v) = children t v].  Use it instead of calling
    {!children} in a loop. *)

val subtree : t -> int -> int list
(** Vertices of the subtree rooted at [v] (including [v]), sorted. *)

val is_ancestor : t -> anc:int -> desc:int -> bool
(** Reflexive: [is_ancestor t ~anc:v ~desc:v] is true. *)

(** {1 Being a model of a graph} *)

val is_model : t -> Graph.t -> bool
(** Every graph edge joins comparable vertices, and the vertex sets
    agree. *)

val is_coherent : t -> Graph.t -> bool
(** For every vertex [v] and child [w], some vertex of the subtree of
    [w] is adjacent to [v] in the graph (the paper's coherence; with
    connectivity it makes every [G_v] connected, Remark 1).
    O(m · height): one walk up the model per edge endpoint. *)

val coherentize : t -> Graph.t -> t
(** Lemma B.1: reattach subtrees to their lowest adjacent ancestor until
    coherent.  Requires [is_model t g] and [g] connected; the result is
    a coherent model of height at most the input's.  Repairs run in a
    fixed order: the least uncovered pair ([parent w], [w]) first, the
    order a rescan after every repair would find.

    Cost: O(m · height) to check (a coherent input, e.g. any centroid
    model of a tree, is returned as is), plus, per repair, the size and
    degree sum of the moved subtree, the height, and a log n set
    operation. *)

val exit_vertex : t -> Graph.t -> int -> int
(** [exit_vertex t g v]: for a non-root [v] of a coherent model, a
    vertex of the subtree of [v] adjacent to [v]'s parent (Section 5's
    "exit vertex").  Raises [Not_found] if none exists. *)

(** {1 Closed-form models} *)

val of_path : int -> t
(** The optimal balanced model of P_n, height ⌈log₂(n+1)⌉ (Figure 1's
    construction). *)

val of_cycle : int -> t
(** C_n: remove one vertex as root, model the remaining path under it;
    height 1 + ⌈log₂ n⌉, optimal up to 1. *)

val of_complete_binary_tree : h:int -> t
(** The identity model of the complete binary tree of height [h]
    (in heap numbering), height [h+1]. *)

val of_caterpillar : spine:int -> legs:int -> t
(** The natural model of [Gen.caterpillar]: the balanced path model on
    the spine with each leg hanging under its spine vertex; height
    ⌈log₂(spine+1)⌉ + 1. *)

val centroid_of_tree : Graph.t -> t
(** Centroid decomposition of a tree: a model of height at most
    ⌈log₂(n+1)⌉ — optimal on paths, within a small constant factor in
    general.  O(n log n): each level of the decomposition visits every
    remaining component once, and the work arrays are allocated
    once and cleared only over the component just split. *)

val to_dot : t -> string
(** DOT rendering of the rooted forest (directed, parent to child). *)

val pp : Format.formatter -> t -> unit
