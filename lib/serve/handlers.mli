(** Request evaluation — the one implementation behind both the socket
    server and the in-process differential tests.

    Responses are deterministic in the request: schemes resolve through
    {!Localcert_core.Registry}, graphs through {!Localcert_graph.Spec},
    randomness through explicit seeds.  [Verify] answers exactly what
    {!Localcert_engine.Engine.run_par} computes and [Simulate] exactly
    what {!Localcert_runtime.Runtime.execute} computes (trace bytes
    included) — that equivalence is what test/test_serve.ml checks
    differentially through a real socket. *)

type t

val create : pool:Pool.t -> unit -> t
(** Shared evaluation state: the engine pool and capped
    per-(scheme, graph) prover caches whose certificate arrays stay
    physically stable across requests (so Vcompile's kernel cache
    fires on repeat sweeps). *)

val handle : t -> Protocol.request -> Protocol.response
(** Evaluate one request.  No deduplication happens here: the
    server's worker groups identical requests of one queue drain
    ({!Server.group}) and calls this once per group.  All failures
    (unknown scheme, bad graph, prover declined, non-fatal evaluation
    exceptions) come back as [Protocol.Error]; only
    {!Localcert_util.Fatal.is_fatal} exceptions propagate. *)
