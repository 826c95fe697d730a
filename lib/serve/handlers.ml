(* Request evaluation: the one implementation behind the socket server
   and the in-process differential tests.

   Everything here is deterministic in the request: schemes come from
   the Registry (pinned instantiations), graphs from Spec (pure
   generators), randomness from explicit request seeds.  The server's
   responses are therefore bit-identical to what a CLI run computes on
   the same inputs — the differential suite in test/test_serve.ml
   holds Verify against Engine.run_par and Simulate against
   Runtime.execute, trace bytes included.  Because a response is a
   pure function of its request, identical requests need only one
   evaluation: the server's worker groups them per queue drain
   (Server.group), and nothing here deduplicates.

   Prover work (instance construction + certificate computation) is
   cached per (scheme, graph): a service exists to answer many verify
   requests against few instances, and reusing the *physically same*
   certificate array across requests is what lets Vcompile's
   kernel cache skip decode entirely on repeat sweeps.
   The cache is a sharded Memo, insert-only and capped by entry count
   ([max_prepared], [max_flipped], [max_instances] below); flip
   variants get their own entries so they are physically stable too. *)

type prepared = {
  scheme : Scheme.t;
  inst : Instance.t;
  certs : Bitstring.t array option;
      (* through Scheme.intern: deduped for a boxed lowering, the
         prover's packed array for a plane one; None = prover
         declined *)
}

type t = {
  pool : Pool.t;
  prepared : (string * string, prepared) Memo.t;
  flipped : (string * string * int * int, Bitstring.t array) Memo.t;
  instances : (string, Instance.t) Memo.t;
      (* graph spec string → built instance, shared across schemes: a
         deployment typically certifies several properties of one
         topology, and at 10⁶+ vertices regenerating the graph (and
         re-streaming its edge list) dwarfs the verification sweep.
         Instances are immutable, and physical sharing is what lets
         Vcompile's instance-keyed kernel cache hold every scheme's
         kernel for one graph side by side. *)
}

let create ~pool () =
  {
    pool;
    prepared = Memo.create ~name:"serve.prepared" 16;
    flipped = Memo.create ~name:"serve.flipped" 16;
    instances = Memo.create ~name:"serve.instances" 16;
  }

exception Reject of Protocol.error_code

(* Caches are capped: past the cap a request is still served, just
   without caching, so a client cycling through distinct graph specs
   costs itself prover time instead of growing the server's heap.
   (Duplicates within one queue drain still share one evaluation.) *)
let max_prepared = 256
let max_flipped = 1024
let max_instances = 64

(* Work named by a request is bounded the way Attack's trials always
   were: a wire graph spec may not describe an instance past these
   caps (clique:100000 is ~5e9 edges) and a Simulate may not pin a
   worker for an unbounded number of rounds.  Past a cap the answer
   is a typed Bad_graph/Bad_argument, computed before anything is
   allocated.  The CLI keeps calling Spec.parse uncapped.  The caps
   admit the streamed multi-million-vertex instances the CSR substrate
   is built for (2²⁴ vertices / 2²⁶ edges ≈ 1 GiB of CSR arrays);
   memory for admitted work is the deployment's queue-depth × instance
   budget, as before. *)
let max_graph_vertices = 1 lsl 24
let max_graph_edges = 1 lsl 26
let max_rounds = 1_000_000

let instance_cache_hits =
  Once.make (fun () -> Metrics.counter ~approx:true "serve.instance_cache_hits")

let instance_for t graph =
  match Memo.find_opt t.instances graph with
  | Some inst ->
      if Metrics.is_enabled () then Metrics.incr (instance_cache_hits ());
      inst
  | None ->
      let g =
        match
          Spec.parse ~max_vertices:max_graph_vertices
            ~max_edges:max_graph_edges graph
        with
        | Ok g -> g
        | Error msg -> raise (Reject (Protocol.Bad_graph msg))
      in
      let inst = Instance.make g in
      if Memo.length t.instances < max_instances then
        Memo.set t.instances graph inst;
      inst

let prepare t ~scheme ~graph =
  let key = (scheme, graph) in
  match Memo.find_opt t.prepared key with
  | Some p -> p
  | None ->
      let entry =
        match Registry.find scheme with
        | Some e -> e
        | None -> raise (Reject (Protocol.Unknown_scheme scheme))
      in
      let inst = instance_for t graph in
      let sc = entry.Registry.scheme in
      let certs =
        match sc.Scheme.prover inst with
        | None -> None
        | Some certs ->
            let certs = Scheme.intern sc certs in
            Scheme.record_cert_sizes sc certs;
            Some certs
      in
      let p = { scheme = sc; inst; certs } in
      if Memo.length t.prepared < max_prepared then Memo.set t.prepared key p;
      p

let certs_or_decline p =
  match p.certs with
  | Some certs -> certs
  | None -> raise (Reject Protocol.Prover_declined)

(* The flip lands on real coordinates ([mod] the instance): loadgen can
   drive the rejection path without knowing certificate lengths, and a
   differential test can reproduce the exact mutation. *)
let flipped_certs t ~scheme ~graph p (v, b) =
  let key = (scheme, graph, v, b) in
  match Memo.find_opt t.flipped key with
  | Some certs -> certs
  | None ->
      let base = certs_or_decline p in
      let n = Array.length base in
      let v = v mod n in
      let certs = Array.copy base in
      let len = Bitstring.length certs.(v) in
      if len > 0 then
        certs.(v) <- Bitstring.flip certs.(v) (b mod len);
      if Memo.length t.flipped < max_flipped then Memo.set t.flipped key certs;
      certs

let verdict_of_outcome (o : Scheme.outcome) =
  Protocol.Verdict
    {
      accepted = o.Scheme.accepted;
      max_bits = o.Scheme.max_bits;
      rejections = o.Scheme.rejections;
    }

let eval t (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Stats -> Protocol.Stats_snapshot (Export.snapshot ())
  | Protocol.Certify { scheme; graph } ->
      let p = prepare t ~scheme ~graph in
      let certs = certs_or_decline p in
      verdict_of_outcome (Engine.run_par ~pool:t.pool p.scheme p.inst certs)
  | Protocol.Verify { scheme; graph; flip } ->
      let p = prepare t ~scheme ~graph in
      let certs =
        match flip with
        | None -> certs_or_decline p
        | Some fl -> flipped_certs t ~scheme ~graph p fl
      in
      verdict_of_outcome (Engine.run_par ~pool:t.pool p.scheme p.inst certs)
  | Protocol.Simulate { scheme; graph; plan; rounds; seed } ->
      if rounds < 1 || rounds > max_rounds then
        raise (Reject (Protocol.Bad_argument "rounds must be in [1, 1e6]"));
      let p = prepare t ~scheme ~graph in
      let certs = certs_or_decline p in
      let plan =
        match Fault.of_spec plan with
        | Ok plan -> plan
        | Error msg -> raise (Reject (Protocol.Bad_plan msg))
      in
      (* Runtime.execute's argument checks (a seed past 2^53, plan ids
         outside the instance) are the client's error. *)
      let r =
        try
          Runtime.execute ~pool:t.pool ~plan ~rounds ~seed p.scheme p.inst
            certs
        with Invalid_argument msg -> raise (Reject (Protocol.Bad_argument msg))
      in
      Protocol.Sim
        {
          detected_at = r.Runtime.detected_at;
          accepted = r.Runtime.outcome.Scheme.accepted;
          trace = Trace.to_json r.Runtime.trace;
        }
  | Protocol.Attack { scheme; graph; trials; max_bits; seed } ->
      if trials < 0 || trials > 1_000_000 then
        raise (Reject (Protocol.Bad_argument "trials must be in [0, 1e6]"));
      if max_bits < 0 || max_bits > 4096 then
        raise (Reject (Protocol.Bad_argument "max-bits must be in [0, 4096]"));
      let p = prepare t ~scheme ~graph in
      let report =
        Engine.attack_par ~pool:t.pool (Rng.make seed) p.scheme p.inst ~trials
          ~max_bits
      in
      Protocol.Attacked
        {
          trials = report.Attack.trials;
          fooled = report.Attack.fooled <> None;
        }

let handle t req =
  match eval t req with
  | resp -> resp
  | exception Reject code -> Protocol.Error code
  | exception e when not (Fatal.is_fatal e) ->
      Protocol.Error (Protocol.Internal (Printexc.to_string e))
