(** Locally checkable labelings (Naor–Stockmeyer [39]) and their
    threshold-constraint generalization (Appendix C.2).

    An LCL is a constraint on a vertex's label and the multiset of its
    neighbors' labels.  Classic LCLs live on bounded-degree graphs
    where "the list of correct neighborhoods" is finite; Appendix C.2
    proposes threshold (unary ordering Presburger) constraints on label
    {e counts} as the right generalization to unbounded degrees — the
    same constraint language the MSO tree automata use.  This module
    implements exactly that: an LCL is a {!Localcert_automata.Uop.constr}
    per label over neighbor-label counts.

    LCLs interface with certification through {!scheme_of}: the
    certificate of a vertex is its own label (so neighbors can read it
    — the radius-1 model hides vertex inputs of neighbors), checked
    against the instance's true label, plus the local constraint. *)

type t = {
  name : string;
  alphabet : int;  (** labels are 0..alphabet-1 *)
  constraints : Localcert_automata.Uop.constr array;
      (** indexed by own label; variables are neighbor-label counts *)
}

val valid_at : t -> label:int -> neighbor_labels:int list -> bool
val valid : t -> Graph.t -> labels:int array -> bool
(** The constraint at every vertex. *)

(** {1 Classic LCLs as threshold constraints} *)

val proper_coloring : colors:int -> t
(** No neighbor shares my color. *)

val maximal_independent_set : t
(** Label 1 = in the set: no neighbor labeled 1; label 0: some
    neighbor labeled 1. *)

val weak_2_coloring : t
(** Every vertex has at least one neighbor of the other color. *)

val at_most_k_neighbors_in_set : int -> t
(** Label 1 free; label 0 must see at most k neighbors labeled 1 — a
    genuinely threshold example beyond bounded-degree LCLs. *)

(** {1 Solvers (provers) } *)

val greedy_coloring : colors:int -> Graph.t -> int array option
(** First-fit; succeeds whenever [colors > max degree] (and often
    sooner). *)

val greedy_mis : Graph.t -> int array
(** A maximal independent set by greedy scan. *)

val bfs_parity_coloring : Graph.t -> int array
(** Colors = BFS-distance parity: a valid {!weak_2_coloring} of any
    connected graph with at least two vertices (every vertex has its
    BFS parent or a child on the other side). *)

(** {1 Certification} *)

val encode_label : t -> int -> Bitstring.t
(** The certificate of a vertex labeled [l]: [l] in ⌈log₂ alphabet⌉
    bits.  The provers encode each symbol once and hand every vertex
    with that label the same (physically shared) certificate. *)

val scheme_of_labeled : t -> Scheme.t
(** Certifies "the instance's own vertex labels satisfy the LCL".
    Certificate: the vertex's label, ⌈log₂ alphabet⌉ bits (a neighbor's
    input is invisible at radius 1, so it travels in the certificate);
    each vertex checks its certificate matches its true label and the
    local constraint over the neighbors' certified labels. *)

val scheme_of_search : t -> solve:(Graph.t -> int array option) -> Scheme.t
(** Certifies "some labeling satisfies the LCL": the witness labeling
    lives purely in the certificates (instance labels are ignored);
    [solve] is the prover's solver. *)
