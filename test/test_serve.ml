(* The serving subsystem: wire framing, protocol codecs, admission
   control, coalescing, and the differential guarantee — a server's
   verdicts and traces are byte-identical to what the in-process
   engine and runtime compute for the same request. *)

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)

let frame_arb =
  QCheck.make
    ~print:(fun (f : Wire.frame) ->
      Printf.sprintf "{id=%d; opcode=%d; trace=%s; payload=%d bytes}" f.Wire.id
        f.Wire.opcode
        (match f.Wire.trace with None -> "-" | Some t -> string_of_int t)
        (String.length f.Wire.payload))
    QCheck.Gen.(
      let* id = oneof [ int_bound 1000; int_bound max_int ] in
      let* opcode = int_bound 0xff in
      (* small ids, and the top of the 62-bit range the header admits *)
      let* trace =
        oneof
          [
            return None;
            map Option.some (int_bound 0xffff);
            return (Some Wire.max_trace);
          ]
      in
      let* payload = string_size (int_bound 512) in
      return { Wire.id; opcode; trace; payload })

let qcheck_wire_roundtrip =
  QCheck.Test.make ~name:"wire: encode/decode is the identity" ~count:500
    frame_arb (fun f ->
      let s = Wire.encode f in
      let buf = Bytes.of_string s in
      match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
      | Wire.Frame (f', consumed) ->
          f' = f && consumed = Bytes.length buf
      | _ -> false)

let qcheck_wire_truncation =
  QCheck.Test.make
    ~name:"wire: every strict prefix asks for exactly the missing bytes"
    ~count:100 frame_arb (fun f ->
      let s = Wire.encode f in
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let ok = ref true in
      for cut = 0 to n - 1 do
        (* Before the 24-byte header is complete the decoder can only
           ask for the rest of the header; once it can read the length
           field it asks for exactly the rest of the frame. *)
        let expect =
          if cut < Wire.header_size then Wire.header_size - cut else n - cut
        in
        match Wire.decode buf ~pos:0 ~len:cut with
        | Wire.Need missing -> if missing <> expect then ok := false
        | _ -> ok := false
      done;
      !ok)

(* Total on arbitrary bytes: garbage yields Frame/Need/Fail, never an
   exception. *)
let qcheck_wire_total =
  QCheck.Test.make ~name:"wire: decode is total on random bytes" ~count:1000
    QCheck.(string_of_size Gen.(int_bound 64))
    (fun s ->
      let buf = Bytes.of_string s in
      match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
      | Wire.Frame _ | Wire.Need _ | Wire.Fail _ -> true)

let wire_adversarial () =
  let base =
    Wire.encode { Wire.id = 7; opcode = 2; trace = None; payload = "xy" }
  in
  let patched ~at byte =
    let b = Bytes.of_string base in
    Bytes.set_uint8 b at byte;
    b
  in
  let decode b = Wire.decode b ~pos:0 ~len:(Bytes.length b) in
  (match decode (patched ~at:0 0x58) with
  | Wire.Fail (Wire.Bad_magic _) -> ()
  | _ -> Alcotest.fail "bad magic not rejected");
  (match decode (patched ~at:2 9) with
  | Wire.Fail (Wire.Bad_version 9) -> ()
  | _ -> Alcotest.fail "bad version not rejected");
  (* id >= 2^62 would overflow the native int on Int64.to_int *)
  (match decode (patched ~at:4 0x70) with
  | Wire.Fail Wire.Bad_id -> ()
  | _ -> Alcotest.fail "overflowing id not rejected");
  (* a length prefix past max_payload can never become a valid frame *)
  (match decode (patched ~at:12 0x7f) with
  | Wire.Fail (Wire.Oversized _) -> ()
  | _ -> Alcotest.fail "oversized length not rejected");
  (* the trace word is strict in both directions: the reserved bit can
     never be set, and id bits without the traced flag are meaningless *)
  (match decode (patched ~at:16 0x40) with
  | Wire.Fail Wire.Bad_trace -> ()
  | _ -> Alcotest.fail "reserved trace bit not rejected");
  (match decode (patched ~at:23 0x01) with
  | Wire.Fail Wire.Bad_trace -> ()
  | _ -> Alcotest.fail "trace id bits without the traced flag not rejected");
  (* an unknown opcode is NOT a wire error: framing stays synchronized
     and the protocol layer answers it *)
  match decode (patched ~at:3 0xee) with
  | Wire.Frame (f, _) ->
      check "opcode preserved" true (f.Wire.opcode = 0xee);
      (match Protocol.decode_request f with
      | Error (Protocol.Unknown_opcode 0xee) -> ()
      | _ -> Alcotest.fail "unknown opcode not a typed protocol error")
  | _ -> Alcotest.fail "unknown opcode must still frame"

(* ------------------------------------------------------------------ *)
(* Protocol codecs                                                     *)

let request_arb =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 1 24) in
  QCheck.make
    ~print:(fun r ->
      match Protocol.encode_request ~id:0 r with
      | f -> Printf.sprintf "opcode %#x" f.Wire.opcode)
    (oneof
       [
         return Protocol.Ping;
         return Protocol.Stats;
         (let* scheme = str and* graph = str in
          return (Protocol.Certify { scheme; graph }));
         (let* scheme = str
          and* graph = str
          and* flip =
            oneof
              [
                return None;
                (let* v = int_bound 10_000 and* b = int_bound 10_000 in
                 return (Some (v, b)));
              ]
          in
          return (Protocol.Verify { scheme; graph; flip }));
         (let* scheme = str
          and* graph = str
          and* plan = str
          (* rounds = 0 is rejected at decode by design (see the
             explicit check in the fuzz test below), so the roundtrip
             generator stays in the valid range *)
          and* rounds = int_range 1 1000
          and* seed = int_bound 1_000_000 in
          return (Protocol.Simulate { scheme; graph; plan; rounds; seed }));
         (let* scheme = str
          and* graph = str
          and* trials = int_bound 1_000_000
          and* max_bits = int_bound 4096
          and* seed = int_bound 1_000_000 in
          return (Protocol.Attack { scheme; graph; trials; max_bits; seed }));
       ])

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"protocol: requests round-trip" ~count:500 request_arb
    (fun req ->
      let f = Protocol.encode_request ~id:42 req in
      f.Wire.id = 42 && Protocol.decode_request f = Ok req)

let response_arb =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 0 64) in
  QCheck.make
    ~print:(fun r -> fst (Protocol.encode_response_payload r) |> string_of_int)
    (oneof
       [
         return Protocol.Pong;
         return Protocol.Retry_later;
         (let* accepted = bool
          and* max_bits = int_bound 4096
          and* rejections =
            list_size (int_bound 4)
              (let* v = int_bound 100_000 and* r = str in
               return (v, r))
          in
          return (Protocol.Verdict { accepted; max_bits; rejections }));
         (let* detected_at =
            oneof [ return None; (let* r = int_bound 100 in return (Some r)) ]
          and* accepted = bool
          and* trace = str in
          return (Protocol.Sim { detected_at; accepted; trace }));
         (let* trials = int_bound 1_000_000 and* fooled = bool in
          return (Protocol.Attacked { trials; fooled }));
         (let* t = str in return (Protocol.Stats_text t));
         (let* msg = str in
          oneofl
            [
              Protocol.Error (Protocol.Unknown_opcode 0xee);
              Protocol.Error (Protocol.Bad_payload msg);
              Protocol.Error (Protocol.Unknown_scheme msg);
              Protocol.Error (Protocol.Bad_graph msg);
              Protocol.Error (Protocol.Bad_plan msg);
              Protocol.Error (Protocol.Bad_argument msg);
              Protocol.Error Protocol.Prover_declined;
              Protocol.Error (Protocol.Internal msg);
            ]);
       ])

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"protocol: responses round-trip" ~count:500
    response_arb (fun resp ->
      let f = Protocol.encode_response ~id:7 resp in
      f.Wire.id = 7 && Protocol.decode_response f = Ok resp)

(* Malformed payloads on every known opcode must come back as typed
   errors, never exceptions. *)
let qcheck_protocol_fuzz =
  QCheck.Test.make ~name:"protocol: request decode is total on fuzz payloads"
    ~count:1000
    QCheck.(pair (int_bound 0xff) (string_of_size Gen.(int_bound 48)))
    (fun (opcode, payload) ->
      match
        Protocol.decode_request { Wire.id = 0; opcode; trace = None; payload }
      with
      | Ok _ | Error _ -> true)

(* The one semantic validation in request decode: a well-framed
   SIMULATE with rounds = 0 is a typed Bad_payload, not Ok and not an
   exception. *)
let simulate_zero_rounds_rejected () =
  let f =
    Protocol.encode_request ~id:3
      (Protocol.Simulate
         { scheme = "spanning"; graph = "path:4"; plan = "none"; rounds = 0;
           seed = 1 })
  in
  match Protocol.decode_request f with
  | Error (Protocol.Bad_payload _) -> ()
  | Ok _ -> Alcotest.fail "rounds = 0 must not decode"
  | Error _ -> Alcotest.fail "rounds = 0 must be Bad_payload"

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let admission_bounds () =
  let q = Admission.create ~capacity:4 ~inflight_cap:2 () in
  let s1 = Admission.slots q and s2 = Admission.slots q in
  check "admit 1" true (Admission.try_admit q s1 `A = Admission.Admitted);
  check "admit 2" true (Admission.try_admit q s1 `B = Admission.Admitted);
  (* connection cap before queue capacity *)
  check "conn saturated" true
    (Admission.try_admit q s1 `C = Admission.Conn_saturated);
  check "other conn fine" true
    (Admission.try_admit q s2 `D = Admission.Admitted);
  check "admit 4" true (Admission.try_admit q s2 `E = Admission.Admitted);
  (* queue full; the failed push must roll the connection charge back *)
  let s3 = Admission.slots q in
  check "queue full" true (Admission.try_admit q s3 `F = Admission.Queue_full);
  check "rollback" true (Admission.inflight s3 = 0);
  check "depth" true (Admission.depth q = 4);
  (* batch pop drains in order, bounded by ~max *)
  check "batch of 3" true (Admission.pop_batch q ~max:3 = [ `A; `B; `D ]);
  check "rest" true (Admission.pop_batch q ~max:10 = [ `E ]);
  Admission.release s1;
  Admission.release s1;
  Admission.release s2;
  Admission.release s2;
  check "released" true (Admission.inflight s1 = 0);
  Admission.close q;
  check "closed pop" true (Admission.pop_batch q ~max:4 = []);
  check "closed push" true (Admission.try_admit q s1 `G = Admission.Queue_full)

(* ------------------------------------------------------------------ *)
(* Batcher                                                             *)

let batcher_group () =
  let groups = Batcher.group fst [ (1, "a"); (2, "b"); (1, "c"); (1, "d") ] in
  check "grouping" true
    (groups = [ (1, [ (1, "a"); (1, "c"); (1, "d") ]); (2, [ (2, "b") ]) ])

let batcher_coalesce () =
  let b = Batcher.create () in
  let computed = Atomic.make 0 in
  let gate = Atomic.make false in
  let f () =
    Atomic.incr computed;
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    "result"
  in
  let d1 = Domain.spawn (fun () -> Batcher.run b "k" f) in
  (* wait for the leader to be registered, then follow *)
  while Atomic.get computed = 0 do
    Domain.cpu_relax ()
  done;
  let d2 = Domain.spawn (fun () -> Batcher.run b "k" (fun () -> "other")) in
  Unix.sleepf 0.02;
  Atomic.set gate true;
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check "both got the leader's value" true (r1 = "result" && r2 = "result");
  (* d2 may have arrived after the leader finished and recomputed; but
     the gated leader ran exactly once *)
  check "leader computed once" true (Atomic.get computed = 1 || r2 = "other")

let batcher_exception () =
  let b = Batcher.create () in
  match Batcher.run b 1 (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "leader exception must propagate"
  | exception Failure msg ->
      check "message" true (msg = "boom");
      (* the key must not be stuck in the in-flight table *)
      check "key released" true (Batcher.run b 1 (fun () -> "ok") = "ok")

(* ------------------------------------------------------------------ *)
(* Differential: handlers ≡ engine ≡ runtime                           *)

let scheme_name = "spanning"
let graph_spec = "random-tree:96:5"

let direct_outcome () =
  let g = Result.get_ok (Spec.parse graph_spec) in
  let entry = Option.get (Registry.find scheme_name) in
  let sc = entry.Registry.scheme in
  let inst = Instance.make g in
  let certs = Cert_store.intern_all (Option.get (sc.Scheme.prover inst)) in
  Pool.with_pool ~jobs:1 (fun pool ->
      (sc, inst, certs, Engine.run_par ~pool sc inst certs))

let handlers_differential () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let h = Handlers.create ~pool () in
      let _, _, _, direct = direct_outcome () in
      (match
         Handlers.handle h
           (Protocol.Verify { scheme = scheme_name; graph = graph_spec; flip = None })
       with
      | Protocol.Verdict { accepted; max_bits; rejections } ->
          check "accepted" true (accepted = direct.Scheme.accepted);
          check "max_bits" true (max_bits = direct.Scheme.max_bits);
          check "rejections" true (rejections = direct.Scheme.rejections)
      | _ -> Alcotest.fail "expected a verdict");
      (* flipped certificates must reject somewhere *)
      match
        Handlers.handle h
          (Protocol.Verify
             { scheme = scheme_name; graph = graph_spec; flip = Some (3, 0) })
      with
      | Protocol.Verdict { accepted = false; _ } -> ()
      | Protocol.Verdict _ -> Alcotest.fail "flip not detected"
      | _ -> Alcotest.fail "expected a verdict")

(* One graph spec, two schemes: the second prepare must reuse the
   instance built for the first (the per-spec-string cache exists for
   exactly this cross-scheme sharing — same-scheme repeats are already
   absorbed by the (scheme, graph) prepared memo upstream) and say so
   in serve.instance_cache_hits. *)
let instance_cache_shares () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let h = Handlers.create ~pool () in
      Metrics.with_enabled true (fun () ->
          Metrics.reset ();
          let verify scheme =
            match
              Handlers.handle h
                (Protocol.Verify { scheme; graph = graph_spec; flip = None })
            with
            | Protocol.Verdict { accepted; _ } -> accepted
            | _ -> Alcotest.fail "expected a verdict"
          in
          check "spanning accepts" true (verify "spanning");
          check "acyclic accepts" true (verify "acyclic");
          check "second scheme hit the instance cache" true
            (Metrics.value
               (Metrics.counter ~approx:true "serve.instance_cache_hits")
            >= 1);
          Metrics.reset ()))

let simulate_differential_via_socket () =
  let plan = "corrupt:0.2" and rounds = 5 and seed = 11 in
  let sc, inst, certs, _ = direct_outcome () in
  let direct =
    Pool.with_pool ~jobs:1 (fun pool ->
        Runtime.execute ~pool ~plan:(Result.get_ok (Fault.of_spec plan)) ~rounds
          ~seed sc inst certs)
  in
  Loadgen.with_self_server
    ~config:{ Server.default_config with Server.workers = 1; jobs = 1 }
    (fun ~port ->
      match
        Loadgen.request_once ~host:"127.0.0.1" ~port
          (Protocol.Simulate
             { scheme = scheme_name; graph = graph_spec; plan; rounds; seed })
      with
      | Ok (Protocol.Sim { detected_at; accepted; trace }) ->
          check "detected_at" true (detected_at = direct.Runtime.detected_at);
          check "accepted" true
            (accepted = direct.Runtime.outcome.Scheme.accepted);
          (* trace equality is byte-level: the server reproduced the
             exact execution the in-process runtime performs *)
          Alcotest.(check string)
            "trace bytes" (Trace.to_json direct.Runtime.trace) trace
      | Ok _ -> Alcotest.fail "expected a Sim response"
      | Error e -> Alcotest.fail e)

let verify_differential_via_socket () =
  let _, _, _, direct = direct_outcome () in
  Loadgen.with_self_server
    ~config:{ Server.default_config with Server.workers = 1; jobs = 1 }
    (fun ~port ->
      (match
         Loadgen.request_once ~host:"127.0.0.1" ~port
           (Protocol.Verify { scheme = scheme_name; graph = graph_spec; flip = None })
       with
      | Ok (Protocol.Verdict { accepted; max_bits; rejections }) ->
          check "socket verdict" true
            (accepted = direct.Scheme.accepted
            && max_bits = direct.Scheme.max_bits
            && rejections = direct.Scheme.rejections)
      | Ok _ -> Alcotest.fail "expected a verdict"
      | Error e -> Alcotest.fail e);
      (match Loadgen.request_once ~host:"127.0.0.1" ~port Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "ping");
      (match Loadgen.request_once ~host:"127.0.0.1" ~port Protocol.Stats with
      | Ok (Protocol.Stats_text _) -> ()
      | _ -> Alcotest.fail "stats");
      (* typed errors over the wire *)
      match
        Loadgen.request_once ~host:"127.0.0.1" ~port
          (Protocol.Certify { scheme = "nosuch"; graph = graph_spec })
      with
      | Ok (Protocol.Error (Protocol.Unknown_scheme "nosuch")) -> ()
      | _ -> Alcotest.fail "unknown scheme must be a typed error")

(* Overload: a tiny admission envelope under a pipelined burst answers
   RETRY_LATER — typed, immediate — and still completes every request
   without a crash or a stall. *)
let overload_retry_later () =
  Loadgen.with_self_server
    ~config:
      {
        Server.default_config with
        Server.workers = 1;
        jobs = 1;
        queue_capacity = 8;
        inflight_cap = 4;
      }
    (fun ~port ->
      let stats =
        Loadgen.run
          {
            Loadgen.host = "127.0.0.1";
            port;
            connections = 2;
            window = 128;
            total = 2_000;
            rate = None;
            request =
              Protocol.Verify
                { scheme = scheme_name; graph = graph_spec; flip = None };
            trace_rate = 0.;
          }
      in
      check "all answered" true (stats.Loadgen.sent = 2_000);
      check "no errors" true (stats.Loadgen.errors = 0);
      check "overload answered with RETRY_LATER" true
        (stats.Loadgen.retry_later > 0);
      check "but real work still happened" true (stats.Loadgen.ok > 0))

(* ------------------------------------------------------------------ *)
(* Graph spec parity                                                   *)

let spec_matches_generators () =
  List.iter
    (fun (spec, g) ->
      match Spec.parse spec with
      | Ok g' -> check spec true (Graph.equal g g')
      | Error e -> Alcotest.failf "%s: %s" spec e)
    [
      ("path:5", Gen.path 5);
      ("cycle:6", Gen.cycle 6);
      ("star:4", Gen.star 4);
      ("clique:4", Gen.clique 4);
      ("cbt:3", Gen.complete_binary_tree 3);
      ("grid:2:3", Gen.grid 2 3);
      ("random-tree:17:3", Gen.random_tree (Rng.make 3) 17);
      ("edges:0-1,1-2", Graph.of_edges ~n:3 [ (0, 1); (1, 2) ]);
    ]

let qcheck_spec_total =
  QCheck.Test.make ~name:"spec: parse is total on junk" ~count:500
    QCheck.(string_of_size Gen.(int_bound 32))
    (fun s ->
      match Spec.parse s with Ok _ | Error _ -> true)

(* Caps refuse a huge spec from its *parameters* — these would OOM or
   spin for minutes if the generator ran first — while specs inside
   the caps build exactly as the uncapped parse does. *)
let spec_size_caps () =
  let capped = Spec.parse ~max_vertices:10_000 ~max_edges:100_000 in
  let refused spec =
    match capped spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s not refused" spec
  in
  refused "clique:100000";
  refused "grid:100000:100000";
  refused "cbt:60";
  refused "path:1000000000";
  refused "caterpillar:100000:100000";
  refused "edges:0-9999999999";
  (* empty graphs are refused with or without caps *)
  List.iter
    (fun spec ->
      refused spec;
      match Spec.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s not refused uncapped" spec)
    [ "path:0"; "clique:0" ];
  List.iter
    (fun spec ->
      match (capped spec, Spec.parse spec) with
      | Ok g, Ok g' -> check spec true (Graph.equal g g')
      | _ -> Alcotest.failf "%s should parse under the caps" spec)
    [ "clique:12"; "grid:30:30"; "random-tree:500:7"; "edges:0-1,1-2" ];
  (* junk stays a typed error under caps too *)
  match capped "clique:notanumber" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted"

(* ------------------------------------------------------------------ *)
(* Server-side resource bounds                                         *)

let handlers_resource_bounds () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let h = Handlers.create ~pool () in
      (* a graph spec naming an enormous instance is a typed Bad_graph,
         answered without building anything; so is one naming the
         empty graph *)
      List.iter
        (fun graph ->
          match
            Handlers.handle h
              (Protocol.Verify { scheme = scheme_name; graph; flip = None })
          with
          | Protocol.Error (Protocol.Bad_graph _) -> ()
          | _ -> Alcotest.failf "graph spec %s must be Bad_graph" graph)
        [ "clique:100000"; "path:0"; "clique:0" ];
      (* unbounded rounds are a typed Bad_argument *)
      match
        Handlers.handle h
          (Protocol.Simulate
             {
               scheme = scheme_name;
               graph = graph_spec;
               plan = "corrupt:0.1";
               rounds = 100_000_000;
               seed = 1;
             })
      with
      | Protocol.Error (Protocol.Bad_argument _) -> ()
      | _ -> Alcotest.fail "unbounded rounds must be Bad_argument")

(* ------------------------------------------------------------------ *)
(* Host resolution                                                     *)

let resolve_hosts () =
  (match Server.resolve_addr ~host:"127.0.0.1" ~port:19523 with
  | Unix.ADDR_INET (a, 19523) ->
      check "numeric" true (Unix.string_of_inet_addr a = "127.0.0.1")
  | _ -> Alcotest.fail "numeric address must resolve");
  (match Server.resolve_addr ~host:"localhost" ~port:7 with
  | Unix.ADDR_INET (_, 7) -> ()
  | _ -> Alcotest.fail "localhost must resolve via getaddrinfo");
  match Server.resolve_addr ~host:"no.such.host.invalid" ~port:1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unresolvable host must raise a readable Failure"

(* A client that disconnects with responses still in flight must not
   kill the server (SIGPIPE ignored, EPIPE contained): the server
   keeps answering a second client afterwards. *)
let dead_peer_survival () =
  Loadgen.with_self_server
    ~config:{ Server.default_config with Server.workers = 1; jobs = 1 }
    (fun ~port ->
      (* open, fire a pipelined burst, vanish without reading *)
      for _ = 1 to 3 do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let b = Buffer.create 4096 in
        for id = 0 to 63 do
          Wire.encode_into b
            (Protocol.encode_request ~id
               (Protocol.Verify
                  { scheme = scheme_name; graph = graph_spec; flip = None }))
        done;
        (try
           ignore
             (Unix.write_substring fd (Buffer.contents b) 0
                (Buffer.length b))
         with Unix.Unix_error _ -> ());
        Unix.close fd;
        Unix.sleepf 0.01
      done;
      (* the server is still alive and correct for a well-behaved peer *)
      match
        Loadgen.request_once ~host:"localhost" ~port
          (Protocol.Verify { scheme = scheme_name; graph = graph_spec; flip = None })
      with
      | Ok (Protocol.Verdict { accepted = true; _ }) -> ()
      | Ok _ -> Alcotest.fail "expected an accepting verdict"
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Bench schema                                                        *)

let bench_run =
  {
    Bench_schema.label = "verify-n4096";
    opcode = "verify";
    scheme = "spanning";
    graph = "random-tree:4096:1";
    connections = 4;
    window = 256;
    rate = None;
    sent = 1000;
    ok = 990;
    retry_later = 8;
    errors = 2;
    duration_s = 0.5;
    throughput_rps = 2000.;
    p50_us = 100.;
    p99_us = 900.;
    p999_us = 1500.;
    max_us = 2000.;
  }

let bench_doc = { Bench_schema.smoke = false; workers = 1; runs = [ bench_run ] }

let bench_schema_roundtrip () =
  let rendered = Bench_schema.render bench_doc in
  match Bench_schema.parse rendered with
  | Error e -> Alcotest.failf "rendered doc does not parse: %s" e
  | Ok d -> Alcotest.(check string) "fixpoint" rendered (Bench_schema.render d)

let bench_schema_rejects () =
  let reject why doc =
    match Bench_schema.parse (Bench_schema.render doc) with
    | Ok _ -> Alcotest.failf "accepted %s" why
    | Error _ -> ()
  in
  reject "inverted percentiles"
    {
      bench_doc with
      Bench_schema.runs = [ { bench_run with Bench_schema.p99_us = 50. } ];
    };
  reject "counts not tiling sent"
    {
      bench_doc with
      Bench_schema.runs = [ { bench_run with Bench_schema.ok = 1 } ];
    };
  reject "duplicate labels"
    { bench_doc with Bench_schema.runs = [ bench_run; bench_run ] };
  (* malformed texts the renderer cannot produce: edits of a rendered
     run whose outcome counts are all [ok], so 0 + 0 + 0 tiling a
     zero [sent] cannot mask a bad integer *)
  let clean =
    Bench_schema.render
      {
        bench_doc with
        Bench_schema.runs =
          [
            {
              bench_run with
              Bench_schema.ok = 1000;
              retry_later = 0;
              errors = 0;
            };
          ];
      }
  in
  let edit pairs =
    List.fold_left
      (fun text (needle, by) ->
        let n = String.length needle in
        let rec find i =
          if i + n > String.length text then
            Alcotest.failf "%S not in the rendered document" needle
          else if String.sub text i n = needle then i
          else find (i + 1)
        in
        let i = find 0 in
        String.sub text 0 i ^ by
        ^ String.sub text (i + n) (String.length text - i - n))
      clean pairs
  in
  check "clean baseline parses" true (Result.is_ok (Bench_schema.parse clean));
  List.iter
    (fun (why, text) ->
      if Result.is_ok (Bench_schema.parse text) then
        Alcotest.failf "accepted %s" why)
    [
      ("an empty document", "{}");
      ( "out-of-range counts (1e300 is no native int)",
        edit
          [
            ({|"sent": 1000|}, {|"sent": 1e300|});
            ({|"ok": 1000|}, {|"ok": 1e300|});
          ] );
      ( "a repeated key",
        edit [ ({|"window": 256|}, {|"window": 256, "window": 256|}) ] );
    ]

(* The committed artifact at the repository root (same walk-up as the
   BENCH_PERF guard) parses under the schema and meets the throughput
   floor the serving layer promises (ROADMAP item 3): 50k verify req/s
   against the n=4096 spanning instance.  Smoke artifacts (CI
   regenerates one in-place) skip the floor, not the schema. *)
let committed_artifact () =
  let rec find dir depth =
    if depth > 6 then None
    else
      let candidate = Filename.concat dir "BENCH_SERVE.json" in
      if Sys.file_exists candidate then Some candidate
      else find (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  match find (Sys.getcwd ()) 0 with
  | None ->
      Alcotest.fail
        "BENCH_SERVE.json not found; run `make bench-serve` (or commit the \
         artifact)"
  | Some path -> (
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Bench_schema.parse text with
      | Error e -> Alcotest.failf "%s invalid: %s" path e
      | Ok d -> (
          match Bench_schema.find_run d "verify-n4096" with
          | None -> Alcotest.fail "missing the verify-n4096 run"
          | Some r ->
              check "overload run present" true
                (Bench_schema.find_run d "overload" <> None);
              if not d.Bench_schema.smoke then
                check "\u{2265} 50k verify req/s" true
                  (r.Bench_schema.throughput_rps >= 50_000.)))

(* ------------------------------------------------------------------ *)
(* Shutdown registry                                                   *)

let shutdown_cleanups () =
  let order = ref [] in
  Shutdown.add_cleanup (fun () -> order := "first" :: !order);
  Shutdown.add_cleanup (fun () -> failwith "cleanup failure is contained");
  Shutdown.add_cleanup (fun () -> order := "last" :: !order);
  Shutdown.run_cleanups ();
  (* LIFO, exception-tolerant *)
  check "order" true (!order = [ "first"; "last" ]);
  Shutdown.add_cleanup (fun () -> order := "late" :: !order);
  Shutdown.run_cleanups ();
  check "one-shot per registration wave" true (!order = [ "late"; "first"; "last" ])

let suite =
  [
    ( "serve-wire",
      [
        QCheck_alcotest.to_alcotest qcheck_wire_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_wire_truncation;
        QCheck_alcotest.to_alcotest qcheck_wire_total;
        Alcotest.test_case "adversarial headers" `Quick wire_adversarial;
      ] );
    ( "serve-protocol",
      [
        QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_protocol_fuzz;
        Alcotest.test_case "simulate rounds = 0 is a typed rejection" `Quick
          simulate_zero_rounds_rejected;
      ] );
    ( "serve-admission",
      [
        Alcotest.test_case "bounds and batch pops" `Quick admission_bounds;
      ] );
    ( "serve-batcher",
      [
        Alcotest.test_case "group by key" `Quick batcher_group;
        Alcotest.test_case "cross-domain coalescing" `Quick batcher_coalesce;
        Alcotest.test_case "leader exceptions propagate" `Quick
          batcher_exception;
      ] );
    ( "serve-differential",
      [
        Alcotest.test_case "handlers ≡ engine" `Quick handlers_differential;
        Alcotest.test_case "instance cache shared across schemes" `Quick
          instance_cache_shares;
        Alcotest.test_case "socket verify ≡ engine" `Quick
          verify_differential_via_socket;
        Alcotest.test_case "socket simulate ≡ runtime (trace bytes)" `Quick
          simulate_differential_via_socket;
        Alcotest.test_case "overload answers RETRY_LATER" `Quick
          overload_retry_later;
        Alcotest.test_case "oversized specs and rounds rejected typed" `Quick
          handlers_resource_bounds;
        Alcotest.test_case "dead peers do not kill the server" `Quick
          dead_peer_survival;
      ] );
    ( "serve-spec",
      [
        Alcotest.test_case "spec matches generators" `Quick
          spec_matches_generators;
        QCheck_alcotest.to_alcotest qcheck_spec_total;
        Alcotest.test_case "size caps refuse before building" `Quick
          spec_size_caps;
      ] );
    ( "serve-resolve",
      [ Alcotest.test_case "numeric, named and bogus hosts" `Quick resolve_hosts ] );
    ( "serve-bench-schema",
      [
        Alcotest.test_case "render/parse fixpoint" `Quick
          bench_schema_roundtrip;
        Alcotest.test_case "invalid documents rejected" `Quick
          bench_schema_rejects;
        Alcotest.test_case "committed artifact valid and fast enough" `Quick
          committed_artifact;
      ] );
    ( "serve-shutdown",
      [ Alcotest.test_case "cleanups LIFO, contained" `Quick shutdown_cleanups ] );
  ]
