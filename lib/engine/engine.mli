(** Domain-parallel execution of verifiers and soundness attacks.

    The two workloads the paper's evaluation spends its time in are
    embarrassingly parallel: {!Scheme.run} evaluates an independent
    radius-1 verifier at every vertex, and {!Attack}-style probing
    evaluates independent certificate assignments.  This module shards
    both across a {!Pool} of domains.

    {!run_par} is a drop-in replacement for {!Scheme.run}: with early
    exit disabled it returns an identical {!Scheme.outcome} — same
    [accepted], same [max_bits], and the same [rejections] list in the
    same (vertex-ascending) order, reasons included.  {!attack_par} is
    deterministic in the seed {e independently of the job count}: trial
    randomness comes from {!Rng.split} streams keyed by trial position,
    not by domain, so [--jobs 1] and [--jobs 8] report the same verdict
    and the same fooling witness.

    Verifiers run concurrently from several domains, so a scheme's
    lowering must be thread-safe.  Every scheme in this library is:
    views and instances are immutable, and the three closures that memo
    across calls ([Kernel_mso]'s evaluation cache and the intern tables
    of [Tree_automaton.product] / [Capped_type]) are mutex-guarded. *)

val run_par :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?early_exit:bool ->
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
    - [?early_exit] (default [false]) stops every domain at the first
      rejection, via a shared atomic flag; the outcome then carries at
      least one rejection but not necessarily all of them.  With the
      default, the outcome equals [Scheme.run scheme inst certs]
      exactly.

    It is {!sweep} over a kernel compiled for this call
    ([Vcompile.compile scheme inst certs]), so a caller that sweeps
    one assignment again and again compiles once and calls {!sweep}.

    An exception raised by the scheme's lowering propagates, as it
    does from {!Scheme.run}; the pool survives it. *)

val sweep :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?early_exit:bool ->
  Vcompile.kernel option ->
  Scheme.t ->
  Instance.t ->
  Bitstring.t array ->
  Scheme.outcome
(** [sweep kernel scheme inst certs] is {!run_par} without the
    compile, with its options and outcome.  [kernel] is what
    [Vcompile.compile scheme inst certs] returned; [None] (compilation
    off) runs {!Scheme.verify} at every vertex on [certs].  With a
    kernel, [certs] is not read and the outcome is the kernel's, so a
    kernel whose [check] is its [swap] sweeps the swapped certificates.
    The sweep is the [run_par] slice; {!run_par}'s compile is the
    [vcompile.<scheme>] slice before it. *)

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
