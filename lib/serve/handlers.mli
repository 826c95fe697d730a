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
(** Shared evaluation state: the engine pool and a capped
    per-(scheme, graph) cache of prepared entries, each holding the
    prover's certificates and, once a CERTIFY or VERIFY has swept
    them, the kernel compiled from them (interpreted with compilation
    off) and their outcome: a list of rejections, empty for an honest
    prover's certificates.  Later CERTIFYs and unflipped VERIFYs of
    the key answer that outcome without sweeping; a flipped VERIFY, in
    either mode, re-checks only the flipped vertex and its neighbours
    ({!Localcert_engine.Engine.recheck}). *)

val flip : Bitstring.t array -> int * int -> int * Bitstring.t
(** [flip certs (v, b)] is the change a VERIFY with
    [flip = Some (v, b)] checks: vertex [v mod n] and its certificate
    with bit [b mod len] flipped, or unchanged when that certificate
    is empty ([len = 0]). *)

val handle : t -> Protocol.request -> Protocol.response
(** Evaluate one request.  Each answer is recorded in the scheme's
    [scheme.<name>.*] counters, swept or not.  The server's worker
    groups identical requests of one queue drain ({!Server.group}) and
    calls this once per group.  All failures
    (unknown scheme, bad graph, prover declined, non-fatal evaluation
    exceptions) come back as [Protocol.Error]; only
    {!Localcert_util.Fatal.is_fatal} exceptions propagate. *)
