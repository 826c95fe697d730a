(** Region-scoped re-certification: the prover side of self-healing.

    The runtime's [~recover] mode calls {!recertify} after a detection:
    given the current (committed) topology, the certificates the nodes
    hold now, and a seed set of suspect vertices, it produces a correct
    full assignment while re-running the prover on as little of the
    graph as soundness allows — the union of connected components
    containing a seed.  See DESIGN §5.9. *)

type outcome = {
  certs : Bitstring.t array;
      (** the healed assignment: [n] certificates, the prover's
          output deduped *)
  changed : int list;
      (** vertices whose certificate differs from [old], ascending —
          the nodes that must re-adopt *)
  scoped : bool;
      (** [true] when the region prover sufficed; [false] when the
          full-instance prover ran *)
}

val recertify :
  Scheme.t ->
  Instance.t ->
  dirty:int list ->
  old:Bitstring.t array ->
  outcome option
(** [recertify scheme inst ~dirty ~old] re-proves [inst] around the
    seed set [dirty].  When the seeds' components cover a strict
    subset of the vertices, the prover runs on that induced
    sub-instance (original ids and labels, parent [id_bits] width so
    certificates are bit-compatible) and the splice of its output into
    [old] is accepted only if a full early-exit {!Scheme.run} verifies
    it; otherwise — including on any scoped-path failure — the prover
    runs on the whole instance.  [None] means even the full prover
    declined: the current topology is a no-instance of the property
    and no certificate assignment exists.

    Deterministic (no randomness, sequential), so recovery never
    perturbs the runtime's jobs-determinism contract.  Raises
    [Invalid_argument] if [old] has the wrong length or a seed is out
    of range; fatal exceptions ({!Localcert_util.Fatal}) from the
    prover propagate. *)
