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
   (Server.group).

   Prover work (instance construction + certificate computation) is
   cached per (scheme, graph): a service exists to answer many verify
   requests against few instances.  A prepared entry also keeps its
   first sweep: the kernel compiled from its certificates (the
   interpreted one with compilation off; Vcompile.compile returns
   either) and their outcome, built by the first CERTIFY or VERIFY of
   the key.  The
   verifier has radius 1, so the verdicts of unchanged certificates
   never change: later CERTIFYs and VERIFYs answer the stored outcome
   without sweeping, and a VERIFY that names a flip re-checks only the
   flipped vertex and its neighbours from it (Engine.recheck): a flip
   neither compiles, sweeps nor copies the certificates.  SIMULATE
   never sweeps, and ATTACK, which draws its own assignments, needs no
   prepared entry.  The caches are sharded Memos, insert-only and
   capped by entry count ([max_prepared], [max_instances] below). *)

type prepared = {
  scheme : Scheme.t;
  inst : Instance.t;
  certs : Bitstring.t array option;
      (* through Scheme.intern: deduped for a boxed lowering, the
         prover's packed array for a plane one; None = prover
         declined *)
  swept : unit -> Vcompile.kernel * Scheme.outcome;
      (* Once over the first sweep of [certs]: the kernel compiled
         from them (interpreted with compilation off) and their
         outcome, which is recorded per answer, not here.  Raises
         Prover_declined when [certs] is None. *)
}

type t = {
  pool : Pool.t;
  prepared : (string * string, prepared) Memo.t;
  instances : (string, Instance.t) Memo.t;
      (* graph spec string → built instance, shared across schemes: a
         deployment typically certifies several properties of one
         topology, and at 10⁶+ vertices regenerating the graph (and
         re-streaming its edge list) dwarfs the verification sweep.
         Instances are immutable, so the prepared entries of every
         scheme on one graph share one. *)
}

let create ~pool () =
  {
    pool;
    prepared = Memo.create ~name:"serve.prepared" 16;
    instances = Memo.create ~name:"serve.instances" 16;
  }

exception Reject of Protocol.error_code

(* Caches are capped: past the cap a request is still served, just
   without caching, so a client cycling through distinct graph specs
   costs itself prover time instead of growing the server's heap.
   (Duplicates within one queue drain still share one evaluation.) *)
let max_prepared = 256
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

let scheme_named name =
  match Registry.find name with
  | Some e -> e.Registry.scheme
  | None -> raise (Reject (Protocol.Unknown_scheme name))

let prepare t ~scheme ~graph =
  let key = (scheme, graph) in
  match Memo.find_opt t.prepared key with
  | Some p -> p
  | None ->
      let sc = scheme_named scheme in
      let inst = instance_for t graph in
      let certs =
        match sc.Scheme.prover inst with
        | None -> None
        | Some certs ->
            let certs = Scheme.intern sc certs in
            Scheme.record_cert_sizes sc certs;
            Some certs
      in
      let swept =
        Once.make (fun () ->
            match certs with
            | None -> raise (Reject Protocol.Prover_declined)
            | Some certs ->
                let k = Vcompile.compile sc inst certs in
                (k, Engine.sweep ~pool:t.pool k inst))
      in
      let p = { scheme = sc; inst; certs; swept } in
      if Memo.length t.prepared < max_prepared then Memo.set t.prepared key p;
      p

let certs_or_decline p =
  match p.certs with
  | Some certs -> certs
  | None -> raise (Reject Protocol.Prover_declined)

(* The flip lands on real coordinates ([mod] the instance): loadgen can
   drive the rejection path without knowing certificate lengths, and a
   differential test can reproduce the exact mutation. *)
let flip base (v, b) =
  let v = v mod Array.length base in
  let c = base.(v) in
  let len = Bitstring.length c in
  (v, if len > 0 then Bitstring.flip c (b mod len) else c)

(* The scheme.<name>.* counters count verdicts served, one per answer,
   whether it swept or not. *)
let answer p (o : Scheme.outcome) =
  Scheme.record_outcome p.scheme o;
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
  | Protocol.Certify { scheme; graph }
  | Protocol.Verify { scheme; graph; flip = None } ->
      let p = prepare t ~scheme ~graph in
      answer p (snd (p.swept ()))
  | Protocol.Verify { scheme; graph; flip = Some fl } ->
      let p = prepare t ~scheme ~graph in
      let v, c = flip (certs_or_decline p) fl in
      let k, o = p.swept () in
      (* a flip keeps lengths, so [max_bits] holds *)
      answer p (Engine.recheck k p.inst o v c)
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
      (* Random assignments need neither the prover's certificates
         nor a prepared entry: resolve the scheme, then the graph. *)
      let sc = scheme_named scheme in
      let inst = instance_for t graph in
      let report =
        Engine.attack_par ~pool:t.pool (Rng.make seed) sc inst ~trials ~max_bits
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
