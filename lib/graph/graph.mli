(** Finite simple undirected graphs on vertex set [{0, …, n-1}].

    All graphs in the paper (and hence in this library) are loopless
    and simple; the certification model additionally assumes connected
    graphs, which callers check with {!is_connected} where it matters.

    The representation is an immutable compressed-sparse-row (CSR)
    layout: one [row_ptr] array of length [n+1] and one flat [col]
    array of length [2m], each row sorted strictly ascending.  Neighbor
    scans — the heart of every radius-1 verifier — are contiguous array
    reads, adjacency tests are binary searches within a row, and a full
    sweep over all vertices touches [col] exactly once, in order. *)

type t

type bfs_tree = {
  dist : int array;  (** BFS distance from the source, [-1] unreachable *)
  parent : int array;
      (** BFS-tree parent, [-1] at the source and on unreachable
          vertices *)
  order : int array;
      (** reached vertices in discovery order — distances along it are
          nondecreasing, so it doubles as a counting sort by distance *)
}

(** {1 Construction} *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph on vertices [0..n-1] with the
    given undirected edges.  Duplicate edges are collapsed; loops raise
    [Invalid_argument], as do endpoints outside [\[0, n)]. *)

val of_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_iter ~n iter] builds the graph from a repeatable edge
    iterator: [iter f] must call [f u v] once per (undirected) edge,
    and is invoked twice — a counting pass that sizes the CSR rows and
    a fill pass that scatters endpoints — so no edge list of tuples is
    ever held.  The iterator must describe the same edges both times;
    a divergence raises [Invalid_argument], as do loops and
    out-of-range endpoints.  Duplicate edges are collapsed. *)

val empty : int -> t
(** [empty n] has [n] vertices and no edge. *)

val add_edge : t -> int -> int -> t
(** Functional edge insertion (no-op if present). *)

val remove_vertex : t -> int -> t
(** [remove_vertex g v] deletes [v]; remaining vertices are renumbered
    by shifting down, preserving relative order. *)

val induced : t -> int list -> t * int array
(** [induced g vs] is the subgraph induced by the vertices of [vs]
    (repeats ignored), together with the ascending array mapping new
    indices to original vertices.  Only the rows of [vs] are read:
    O(|vs| log |vs| + Σ_{v ∈ vs} deg v · log |vs|), with no pass over
    [g]'s other vertices or edges.  Raises [Invalid_argument] on a vertex
    out of range. *)

val disjoint_union : t -> t -> t
(** Vertices of the second graph are shifted by [n] of the first. *)

val relabel : t -> int array -> t
(** [relabel g perm] renames vertex [v] to [perm.(v)]; [perm] must be a
    permutation of [0..n-1]. *)

(** {1 Observation} *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val neighbors : t -> int -> int array
(** Sorted neighbor array.  Freshly allocated on every call — safe to
    mutate, but prefer {!iter_neighbors}/{!fold_neighbors} (or
    {!unsafe_csr} in compiled kernels) on hot paths. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbor of [v] in
    ascending order, without allocating. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Allocation-free fold over the neighbors of [v], ascending. *)

val unsafe_csr : t -> int array * int array
(** [(row_ptr, col)] — the internal arrays, for compiled verifier
    kernels that index rows directly: the neighbors of [v] are
    [col.(row_ptr.(v)) .. col.(row_ptr.(v+1) - 1)].  Do not mutate;
    writes would corrupt the graph for every holder. *)

val degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
(** Adjacency test (binary search). *)

val edges : t -> (int * int) list
(** All edges as pairs [(u, v)] with [u < v], sorted. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] for every edge with [u < v], in
    lexicographic order, without materializing a list — composes with
    {!of_iter} for rebuilds and with streaming writers. *)

val vertices : t -> int list
(** [0; 1; …; n-1]. *)

val fold_vertices : (int -> 'a -> 'a) -> t -> 'a -> 'a

val equal : t -> t -> bool
(** Same vertex count and same edge set (identity on labels).  The CSR
    form is canonical, so this is plain array equality. *)

(** {1 Traversal and metrics} *)

val bfs_dist : t -> int -> int array
(** [bfs_dist g s] has distance from [s] at index [v], or [-1] when
    unreachable. *)

val bfs_tree : t -> int -> bfs_tree
(** One-pass BFS from [s]: distances, tree parents and discovery order
    from a flat array queue, with no per-visit allocation. *)

val is_connected : t -> bool
(** True on the empty graph's complement convention: a graph with 0
    vertices is not connected (the paper assumes non-empty graphs); a
    1-vertex graph is. *)

val components : t -> int list list
(** Connected components as sorted vertex lists, in order of least
    vertex. *)

val diameter : t -> int
(** Exact eccentricity maximum over all vertices (BFS from each).
    Raises [Invalid_argument] on a disconnected or empty graph. *)

val is_tree : t -> bool
(** Connected and [m = n - 1]. *)

val is_acyclic : t -> bool
(** Forest test: [m = n - #components]. *)

(** {1 Edit overlay}

    Dynamic-topology simulations apply a handful of edge edits per
    round to graphs with up to 10⁶ vertices; rebuilding the CSR per
    edit would cost [O(n + m)] each time.  {!Delta} is a mutable edit
    overlay over an immutable base CSR: adds and removals land in
    small per-vertex diff lists, the overlay-aware accessors merge
    them on the fly, and {!Delta.commit} pays the full rebuild once,
    when a clean CSR is actually needed (re-certification, final
    state).  Reads are safe from multiple domains as long as no edit
    runs concurrently — the runtime edits sequentially between
    rounds. *)

module Delta : sig
  type graph := t

  type t
  (** A base graph plus pending undirected edge edits. *)

  val create : graph -> t
  (** An empty overlay: behaves exactly like the base. *)

  val base : t -> graph
  (** The immutable graph underneath (without pending edits). *)

  val n : t -> int
  (** Vertex count (edits never add or remove vertices). *)

  val edit_count : t -> int
  (** Number of undirected edges on which the overlay currently
      differs from the base; [0] means {!commit} is free. *)

  val add_edge : t -> int -> int -> bool
  (** [add_edge d u v] makes [u–v] present; [true] iff the graph
      changed (the edge was absent).  Raises [Invalid_argument] on a
      loop or out-of-range endpoint. *)

  val remove_edge : t -> int -> int -> bool
  (** [remove_edge d u v] makes [u–v] absent; [true] iff the graph
      changed.  Raises like {!add_edge}. *)

  val mem_edge : t -> int -> int -> bool
  val degree : t -> int -> int

  val iter_neighbors : t -> int -> (int -> unit) -> unit
  (** Ascending, duplicate-free, like {!Graph.iter_neighbors}; with no
      pending edits this is exactly the base iteration. *)

  val commit : t -> graph
  (** A clean CSR of the current topology.  Returns the base itself
      when [edit_count = 0]; otherwise one [of_iter] rebuild.  The
      overlay keeps its edits — committing is a read. *)
end

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Prints as [n=…; edges=(u,v)…]. *)
