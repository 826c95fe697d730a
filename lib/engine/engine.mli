(** Domain-parallel execution of verifiers and soundness attacks.

    The two workloads the paper's evaluation spends its time in are
    embarrassingly parallel: {!Scheme.run} evaluates an independent
    radius-1 verifier at every vertex, and {!Attack}-style probing
    evaluates independent certificate assignments.  This module shards
    both across a {!Pool} of domains.

    {!run_par} is a drop-in replacement for {!Scheme.run}: it returns
    an identical {!Scheme.outcome} — same [accepted], same [max_bits],
    and the same [rejections] list in the same (vertex-ascending)
    order, reasons included.  {!attack_par} is deterministic in the
    seed {e independently of the job count}: trial randomness comes
    from {!Rng.split} streams keyed by trial position, not by domain,
    so [--jobs 1] and [--jobs 8] report the same verdict and the same
    fooling witness.

    Verifiers run concurrently from several domains, so a scheme's
    lowering must be thread-safe.  Every scheme in this library is:
    views and instances are immutable, and the three closures that memo
    across calls ([Kernel_mso]'s evaluation cache and the intern tables
    of [Tree_automaton.product] / [Capped_type]) are mutex-guarded. *)

val run_par :
  ?pool:Pool.t ->
  ?jobs:int ->
  Scheme.t ->
  Instance.t ->
  Bitstring.t array ->
  Scheme.outcome
(** [run_par scheme inst certs] executes the verifier at every vertex,
    sharding contiguous vertex ranges across domains.

    - [?pool] runs on an existing pool (the cheap path — reuse one pool
      across many runs); otherwise a fresh pool of [?jobs] domains
      (default {!Domain.recommended_domain_count}) is created for this
      call and shut down afterwards.

    The outcome equals [Scheme.run scheme inst certs] exactly.  It is
    {!sweep} over a kernel compiled for this call
    ([Vcompile.compile scheme inst certs]), then the outcome recorded
    in the scheme's [scheme.<name>.*] counters
    ({!Scheme.record_outcome}).  A caller that sweeps one assignment
    again and again compiles once and calls {!sweep}.

    An exception raised by the scheme's lowering propagates, as it
    does from {!Scheme.run}; the pool survives it. *)

val sweep :
  ?pool:Pool.t -> ?jobs:int -> Vcompile.kernel -> Instance.t -> Scheme.outcome
(** [sweep kernel inst] is {!run_par} without the compile and without
    recording the outcome: a caller that answers one sweep many times
    records each answer itself.  [kernel] is what [Vcompile.compile
    scheme inst certs] returned, compiled or, with compilation off,
    interpreted; the sweep calls its [check] at every vertex, and the
    outcome's [max_bits] is the kernel's.  The sweep is the [run_par]
    slice; {!run_par}'s compile is the [vcompile.<scheme>] slice
    before it.

    A sweep adds [n] to [engine.vertices_verified]: it counts vertices
    actually checked, not vertices per answer. *)

val recheck :
  Vcompile.kernel ->
  Instance.t ->
  Scheme.outcome ->
  int ->
  Bitstring.t ->
  Scheme.outcome
(** [recheck kernel inst base v c] is the outcome of the kernel's
    certificates with [v]'s replaced by [c], given their outcome
    [base] (a full {!sweep} of [kernel]): [sweep] on the swapped
    array, at the cost of N[v].  The verifier has radius 1, so only
    verdicts in N[v] can change.  Each vertex of N[v] is checked once
    through [kernel.swap v c]; the rejections of [base] inside N[v]
    are dropped and the re-checked ones merged in, vertex-ascending.
    [max_bits] is [base]'s, so it is the swapped array's when [c] has
    the length of [v]'s old certificate, as a bit flip does.

    Like {!sweep} it records no outcome, serves a compiled and an
    interpreted kernel alike, and adds |N[v]| to
    [engine.vertices_verified].  It runs on the calling domain.
    Raises [Invalid_argument] unless [0 <= v < n]. *)

val attack_par :
  ?pool:Pool.t ->
  ?jobs:int ->
  Localcert_util.Rng.t ->
  Scheme.t ->
  Instance.t ->
  trials:int ->
  max_bits:int ->
  Attack.report
(** [attack_par rng scheme inst ~trials ~max_bits] probes [trials]
    uniform random certificate assignments (lengths 0..[max_bits]), as
    {!Attack.random_assignments} does, fanned across domains.

    Determinism: the trial sequence is partitioned into fixed-size
    blocks, each drawing from its own {!Rng.split} stream, and the
    report is canonicalized to the {e lowest-index} fooling trial — so
    the result (verdict, witness, and [trials] = index of the fooling
    trial + 1) depends only on [rng]'s state and [trials], never on the
    job count or scheduling.  Domains stop early once every index below
    the current best fooling trial has been examined. *)
