(** Certification of automaton-recognized properties on trees with
    O(1)-size certificates (Theorem 2.2 / Appendix C.1).

    The prover roots the tree, runs the automaton bottom-up, and labels
    every vertex with (its distance to the root mod 3, its state in the
    accepting run, a fingerprint of the automaton).  The verifier:

    - orients the tree from the mod-3 counters — each vertex must have
      exactly one neighbor at distance d−1 (its parent) and the rest at
      d+1, or be the unique root (no d−1 neighbor, own distance 0):
      counting oriented edges shows a tree admits exactly one root;
    - checks its state is the automaton transition applied to its
      label and its children's states;
    - at the root, checks acceptance and that the distance is 0.

    Certificates are [2 + ⌈log₂ |Q|⌉ + 16] bits — constant for a fixed
    automaton, as the theorem demands.

    The input is promised to be a tree (the paper certifies properties
    of trees); {!with_tree_promise_check} upgrades the scheme to
    arbitrary connected graphs by conjoining the O(log n) acyclicity
    certification. *)

val make : ?state_bits:int -> Localcert_automata.Tree_automaton.t -> Scheme.t
(** [make auto] certifies "the tree, suitably rooted, is accepted by
    [auto]" — for root-invariant automata this is a property of the
    tree; in general it is the ∃-root projection.  The prover picks
    the first vertex (in id order) whose rooting is accepted.  It runs
    the automaton once from vertex 0; if that run rejects, one
    rerooting pass decides every other root in O(n) [delta] calls, so
    a no-instance is declined in linear time.  Unlabelled vertices go
    through the automaton's flat label-0 table
    ({!Localcert_automata.Tree_automaton.tabulate}), shared with the
    verifier; labelled ones and automata without a table use the exact
    [delta].  [state_bits] fixes the state field width (default: enough
    for the automaton's current state count, with a floor of 1). *)

val make_with_root : ?state_bits:int -> root:int -> Localcert_automata.Tree_automaton.t -> Scheme.t
(** Prover uses a fixed root (completeness then requires the run from
    that root to accept). *)

val make_table : Localcert_automata.Uop.t -> Scheme.t
(** The fully literal Theorem-2.2 certificate: (1) the mod-3 distance,
    (2) {e the description of the automaton} — the bit-encoded UOP
    table, identical in every certificate and checked against the
    verifier's own expected table — and (3) the state in the accepting
    run.  Still O(1) bits for a fixed property; the table part is what
    the 16-bit fingerprint of {!make} abbreviates. *)

val with_tree_promise_check : Scheme.t -> Scheme.t
(** Conjoins {!Spanning_tree.acyclicity}, lifting the tree promise at
    an O(log n) cost. *)

val cert_size : ?state_bits:int -> Localcert_automata.Tree_automaton.t -> Instance.t -> int option
(** Measured size on an instance ([None] when no root accepts) — the
    E2 series; constant in [n]. *)
