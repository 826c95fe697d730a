(** Round-based distributed execution of certification schemes.

    The paper's model (Section 2.2 / Appendix A.1) is a distributed
    protocol: every vertex receives its neighbors' certificates and
    decides locally.  {!execute} actually runs that protocol — each
    round, every alive vertex broadcasts its stored certificate, a
    {!Fault} plan intercepts state, messages {e and topology} (edges
    appear and vanish through a {!Graph.Delta} overlay), and each
    vertex runs the verifier on what it received.

    Contracts anchoring the simulator:

    - {e Reference equivalence}: under {!Fault.none} with [~rounds:1],
      the final {!Scheme.outcome} is identical to
      [Scheme.run scheme inst certs] — same [accepted], same
      [max_bits], same [rejections] (order and reasons included).
    - {e Seed determinism}: the whole execution — outcome {e and}
      trace, byte for byte — is a function of
      [(seed, plan, rounds, recover)] only, never of [?jobs] or
      scheduling.  Randomness is dealt from
      {!Localcert_util.Rng.split} streams keyed by (round, vertex),
      plus one sequentially-consumed topology stream per round.
    - {e Final-state equivalence}: for plans without message faults or
      crash/Byzantine kinds (topology churn, scheduled edits and
      corruption are fine), the final round's outcome equals a
      from-scratch [Scheme.run] on [final_graph] with [final_certs] —
      the simulated network state never drifts from the committed
      topology it claims to describe.

    Multi-round executions model self-stabilizing re-verification:
    persistent faults (corrupted certificates, crashes, stale
    certificates after churn) accumulate, {!result.detected_at}
    reports the first round in which some honest vertex rejected, and
    {!result.quiesced_at} the first round after the last fault from
    which every round accepted.

    {2 Acceptance semantics}

    A round's outcome counts the verdicts of alive, honest vertices
    only — crashed and Byzantine vertices render none.  A round that
    renders {e zero} verdicts (every vertex crashed or Byzantine) is
    {e not} accepted: vacuous acceptance would credit a dead network
    with certifying its property.  Such a round is not a detection
    either ([detected_at] requires an explicit rejecting verdict); it
    simply never accepts, so it also blocks quiescence.  The per-round
    [Trace.round_log.verdicts_rendered] count makes the distinction
    auditable in traces.

    {2 Incremental verification}

    By default the runtime does {e not} re-run the verifier at every
    vertex every round.  A radius-1 verdict is a pure function of the
    view, so between rounds it can only change at vertices within
    distance 1 of a fault event (or downstream of a transient fault's
    reversion); {!Vcache} computes that dirty set from the round's
    canonical event list — a topology edit dirties both endpoints'
    closed neighborhoods in the post-edit overlay, a recovery dirties
    the re-adopting vertex and its neighbors — every alive vertex in it
    runs the verifier, and cached verdicts are reused everywhere else.
    The mode is {e drop-in exact}: outcomes,
    [detected_at], [quiesced_at] and the trace are byte-identical to
    the full sweep ([~incremental:false]), and the dirty set is
    computed sequentially so [checked]/[reverified] — and the
    [runtime.vertices_reverified] / [runtime.verdicts_cached] metrics
    counters — are deterministic across job counts.  See DESIGN §5.4
    and §5.9.

    {2 Self-healing}

    With [~recover:true], a round that follows a detection starts by
    re-certifying: the current overlay is committed to a clean CSR,
    {!Recert.recertify} re-runs the prover on the region reachable
    from the suspect seeds (edit endpoints and rejecting vertices
    accumulated since the last attempt), and every alive vertex whose
    certificate changed re-adopts it (a {!Trace.Recover} event; the
    new certificate is broadcast in this same round).  Recovery is
    skipped when nothing happened since the last attempt — re-proving
    would reproduce the same assignment, e.g. when the persistent
    cause is a crashed neighbor no certificate can paper over.
    Recovery is deterministic and independent of [?jobs]. *)

type result = {
  outcome : Scheme.outcome;  (** the final round's outcome *)
  per_round : Scheme.outcome array;  (** outcome of every round, in order *)
  detected_at : int option;
      (** first round (1-based) with a rejecting verdict *)
  quiesced_at : int option;
      (** first round [q] after the last fault/edit round such that
          rounds [q..rounds] all accepted (every alive vertex rendered
          an accepting verdict); [None] if the execution never settled
          — faults ran to the last round, recovery failed, or some
          round in the tail rejected or rendered no verdicts.  On a
          fault-free accepting execution this is [1]. *)
  trace : Trace.t;
  checked : int list array;
      (** per round: the candidates, vertices whose view may have
          changed (the dirty set), ascending.  Contains the
          distance-1 closure of the round's fault events.  In
          full-sweep mode: every alive vertex. *)
  reverified : int list array;
      (** per round: vertices where the verifier ran, ascending — the
          alive candidates, so [checked] minus the crashed and
          Byzantine ones.  In full-sweep mode: every alive vertex.
          The [runtime.vertices_reverified] counter sums it; it used
          to count only candidates whose view also differed from the
          cached one, so it now reads at least as high for the same
          run. *)
  adopted : int list array;
      (** per round: vertices that re-adopted a recovered certificate,
          ascending; all empty unless [~recover:true] *)
  final_graph : Graph.t;
      (** the committed topology after the last round's edits — the
          instance a from-scratch verification of the final state
          would run on *)
  final_certs : Bitstring.t array;
      (** the certificates stored at the nodes after the last round
          (corruptions and recoveries included) *)
}

val execute :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?plan:Fault.t ->
  ?rounds:int ->
  ?seed:int ->
  ?incremental:bool ->
  ?recover:bool ->
  Scheme.t ->
  Instance.t ->
  Bitstring.t array ->
  result
(** [execute scheme inst certs] runs the protocol for [?rounds]
    (default 1) communication rounds under [?plan] (default
    {!Fault.none}), seeded by [?seed] (default 0).

    Vertices are sharded across the {!Pool} in both the exchange (on
    the round's {!Network} message plane) and the verification phase of
    every round ([?pool] to reuse a pool,
    [?jobs] for a private one, as in {!Engine.run_par}).

    [?incremental] (default [true]) enables the verdict cache: after
    round 1, only vertices in the dirty set of the round's fault
    events are re-examined.  [~incremental:false] forces the full
    per-round sweep; results are identical either way.

    Verdicts run through {!Network.checker}: compiled row checks while
    compilation is globally enabled ({!Vcompile.set_enabled}), else
    {!Scheme.verify} on {!Network.view}; outcomes and traces are
    identical either way.

    [?recover] (default [false]) enables self-healing re-certification
    after detections — see the module preamble.

    [max_bits] measures the stored certificates as of each round (so
    persistent corruption and recovery are reflected, transient wire
    flips are not).  A verifier that raises a scheme-level exception
    is treated as rejecting with the exception text: a vertex whose
    neighbors all crashed (or whose messages were mangled) must never
    take the simulator down.  Fatal exceptions
    ({!Localcert_util.Fatal} — [Out_of_memory], [Stack_overflow],
    [Assert_failure]) are {e not} converted: they indicate a broken
    process, not a detected fault, and propagate to the caller.

    Raises [Invalid_argument] if [rounds < 1], [|seed| > 2{^53}] (the
    trace renders the seed as a JSON number, which would round it to
    the seed of another run), the certificate count does not match the
    instance, a [plan.crashed] vertex id is outside [\[0, n)], or a
    scheduled edit endpoint is outside [\[0, n)] — out-of-range ids
    used to be silent no-ops; they are rejected loudly now. *)
