(* The serving subsystem: wire framing, protocol codecs, admission
   control, queue-drain grouping, and the differential guarantee — a
   server's verdicts and traces are byte-identical to what the
   in-process engine and runtime compute for the same request. *)

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

(* A STATS reply carries a real snapshot: a seeded workload over
   instruments of every kind and section, then [Export.snapshot].
   Timings hold floats, so snapshots compare in their rendered form. *)
let seeded_snapshot seed =
  let rng = Random.State.make [| seed |] in
  let draw n = Random.State.int rng n in
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      for _ = 1 to draw 24 do
        let name kind = Printf.sprintf "test.stats.%s%d" kind (draw 3) in
        match draw 7 with
        | 0 -> Metrics.add (Metrics.counter (name "counter")) (draw 1000)
        | 1 -> Metrics.add (Metrics.counter ~approx:true (name "acounter")) (draw 9)
        | 2 -> Metrics.set_gauge (Metrics.gauge (name "gauge")) (draw 200 - 100)
        | 3 -> Metrics.set_gauge (Metrics.gauge ~approx:true (name "agauge")) (draw 50)
        | 4 -> Metrics.observe (Metrics.histogram (name "histo")) (draw 5000)
        | 5 ->
            Metrics.observe
              (Metrics.histogram ~approx:true ~bounds:[| 10; 100 |] (name "ahisto"))
              (draw 200)
        | _ -> Metrics.record_ns (Metrics.timer (name "timer")) (draw 10_000_000)
      done;
      Export.snapshot ())

let response_equal a b =
  match (a, b) with
  | Protocol.Stats_snapshot x, Protocol.Stats_snapshot y ->
      Export.render x = Export.render y
  | _ -> a = b

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
         map
           (fun seed -> Protocol.Stats_snapshot (seeded_snapshot seed))
           (int_bound 1_000_000);
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
      f.Wire.id = 7
      &&
      match Protocol.decode_response f with
      | Ok resp' -> response_equal resp resp'
      | Error _ -> false)

(* A STATS payload: the bit-length-prefixed packing of one Bitbuf
   string, so a test can hand the decoder any text as the snapshot. *)
let stats_frame text =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.string w text;
  let bits = Bitbuf.Writer.contents w in
  let len = Bitstring.length bits in
  let b = Buffer.create (4 + (len / 8) + 1) in
  Buffer.add_int32_be b (Int32.of_int len);
  for i = 0 to ((len + 7) / 8) - 1 do
    let width = min 8 (len - (8 * i)) in
    Buffer.add_uint8 b
      (Bitstring.unsafe_extract bits ~pos:(8 * i) ~width lsl (8 - width))
  done;
  { Wire.id = 5; opcode = 0x85; trace = None; payload = Buffer.contents b }

(* The snapshot in a STATS reply is decoded by the strict Export.parse:
   a truncated snapshot (any prefix that stops before the closing
   brace) or a truncated payload is an [Error], and a corrupted
   snapshot (one byte overwritten) decodes to [Ok] or [Error] but
   never raises. *)
let qcheck_stats_snapshot_strict =
  QCheck.Test.make ~name:"protocol: damaged stats snapshots are typed errors"
    ~count:200
    QCheck.(quad (int_bound 1_000_000) (int_bound 100_000) (int_bound 100_000)
              printable_char)
    (fun (seed, cut, pos, c) ->
      let snap = seeded_snapshot seed in
      let text = Export.render snap in
      let n = String.length text in
      let truncated = String.sub text 0 (cut mod (n - 1)) in
      let corrupted =
        String.mapi (fun i x -> if i = pos mod n then c else x) text
      in
      let full =
        (Protocol.encode_response ~id:5 (Protocol.Stats_snapshot snap))
          .Wire.payload
      in
      let short_frame =
        { (stats_frame text) with
          Wire.payload = String.sub full 0 (cut mod String.length full) }
      in
      (match Protocol.decode_response (stats_frame text) with
      | Ok (Protocol.Stats_snapshot _) -> true
      | _ -> false)
      && (match Protocol.decode_response (stats_frame truncated) with
         | Error _ -> true
         | Ok _ -> false)
      && (match Protocol.decode_response (stats_frame corrupted) with
         | Ok _ | Error _ -> true)
      &&
      match Protocol.decode_response short_frame with
      | Error _ -> true
      | Ok _ -> false)

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

(* [Verify {flip = Some (max_int, 1)}] ends in v's gamma code (62
   zeros, a one, a zero tail of 62 bits) and b's (010).  Setting the
   tail's last bit, 4 bits from the end, makes a code no int holds: a
   typed Bad_payload, not a negative flip. *)
let overlong_flip_rejected () =
  let flip = Some (max_int, 1) in
  let f =
    Protocol.encode_request ~id:5
      (Protocol.Verify { scheme = "spanning"; graph = "path:8"; flip })
  in
  let p = Bytes.of_string f.Wire.payload in
  let bit = Int32.to_int (Bytes.get_int32_be p 0) - 4 in
  let at = 4 + (bit / 8) in
  Bytes.set_uint8 p at (Bytes.get_uint8 p at lor (0x80 lsr (bit mod 8)));
  match Protocol.decode_request { f with Wire.payload = Bytes.to_string p } with
  | Error (Protocol.Bad_payload _) -> ()
  | Ok (Protocol.Verify { flip = Some (v, b); _ }) ->
      Alcotest.failf "decoded to the flip (%d, %d)" v b
  | _ -> Alcotest.fail "an overlong flip must be Bad_payload"

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
(* Queue-drain grouping                                                *)

let group_by_key () =
  let groups = Server.group fst [ (1, "a"); (2, "b"); (1, "c"); (1, "d") ] in
  check "grouping" true
    (groups = [ (1, [ (1, "a"); (1, "c"); (1, "d") ]); (2, [ (2, "b") ]) ])

(* ------------------------------------------------------------------ *)
(* Raw socket clients                                                  *)

(* Blocking frame reader over one socket; the buffer grows to fit a
   large frame (a Simulate trace). *)
let frame_reader fd =
  let buf = ref (Bytes.create 65536) in
  let len = ref 0 in
  let rec next () =
    match Wire.decode !buf ~pos:0 ~len:!len with
    | Wire.Frame (frame, used) ->
        Bytes.blit !buf used !buf 0 (!len - used);
        len := !len - used;
        frame
    | Wire.Fail e -> failwith (Wire.error_to_string e)
    | Wire.Need _ -> (
        if !len = Bytes.length !buf then begin
          let nb = Bytes.create (2 * !len) in
          Bytes.blit !buf 0 nb 0 !len;
          buf := nb
        end;
        match Unix.read fd !buf !len (Bytes.length !buf - !len) with
        | 0 -> raise End_of_file
        | n ->
            len := !len + n;
            next ())
  in
  next

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Write [(id, request)]s in one write. *)
let send_requests fd reqs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (id, req) -> Wire.encode_into b (Protocol.encode_request ~id req))
    reqs;
  let s = Buffer.contents b in
  ignore (Unix.write_substring fd s 0 (String.length s))

(* Read [count] responses, each decoded, sorted by id. *)
let read_responses fd count =
  let next = frame_reader fd in
  List.init count (fun _ ->
      let frame = next () in
      match Protocol.decode_response frame with
      | Ok resp -> (frame.Wire.id, resp)
      | Error e -> Alcotest.failf "undecodable response: %s" e)
  |> List.sort compare

let ids_are count answers =
  check "one answer per request id" true
    (List.map fst answers = List.init count Fun.id)

let expect_verdict what (direct : Scheme.outcome) = function
  | Protocol.Verdict { accepted; max_bits; rejections } ->
      check what true
        (accepted = direct.Scheme.accepted
        && max_bits = direct.Scheme.max_bits
        && rejections = direct.Scheme.rejections)
  | Protocol.Error code ->
      Alcotest.failf "%s: error %s" what (Protocol.error_code_to_string code)
  | _ -> Alcotest.failf "%s: expected a verdict" what

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
  Metrics.with_enabled true @@ fun () ->
  Metrics.reset ();
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
      (* the STATS reply is the server's own snapshot, dotted names
         and timings intact *)
      (match Loadgen.request_once ~host:"127.0.0.1" ~port Protocol.Stats with
      | Ok (Protocol.Stats_snapshot snap) ->
          check "serve.requests.verify counted" true
            (List.mem_assoc "serve.requests.verify" snap.Export.approx_counters);
          check "serve.handle timed" true
            (List.exists
               (fun (t : Export.timing) ->
                 t.Export.name = "serve.handle" && t.Export.count >= 1)
               snap.Export.timings)
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

let verify_req flip =
  Protocol.Verify { scheme = scheme_name; graph = graph_spec; flip }

(* What a flipped VERIFY does to the prover certificates, written out
   in process: bit [b mod len] of vertex [v mod n]'s certificate, and
   nothing when that certificate is empty. *)
let materialise certs (v, b) =
  let certs = Array.copy certs in
  let v = v mod Array.length certs in
  let len = Bitstring.length certs.(v) in
  if len > 0 then certs.(v) <- Bitstring.flip certs.(v) (b mod len);
  certs

let flipped_outcome flip =
  let sc, inst, certs, _ = direct_outcome () in
  Pool.with_pool ~jobs:1 (fun pool ->
      Engine.run_par ~pool sc inst (materialise certs flip))

(* A served flipped VERIFY answers [Engine.run_par] on the materialised
   flipped array.  Flips land on hubs (vertex 0, a star's centre and a
   clique vertex), on random vertices and at v >= n, where the server
   takes v mod n; each flip is sent twice, in separate requests, and
   both answers must agree.  One draw in four serves it with
   compilation off, so the entry keeps the interpreted kernel and the
   flip is its [Engine.recheck].  No registry prover emits an empty
   certificate, so the empty case is checked on [Handlers.flip]
   itself: flipping an empty certificate leaves it as it was. *)
let flip_cases =
  [
    ("star:40", "spanning");
    ("star:40", "lcl:mis");
    ("star:40", "depth2:dominating");
    ("clique:12", "spanning");
    ("clique:12", "depth2:dominating");
    ("random-tree:96:5", "spanning");
    ("random-tree:96:5", "lcl:mis");
  ]

let qcheck_served_flips =
  QCheck.Test.make ~name:"served flipped VERIFY ≡ run_par on the flipped array"
    ~count:80 QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Rng.make seed in
      let graph, scheme =
        List.nth flip_cases (Rng.int rng (List.length flip_cases))
      in
      let sc = (Option.get (Registry.find scheme)).Registry.scheme in
      let inst = Instance.make (Result.get_ok (Spec.parse graph)) in
      let certs = Option.get (sc.Scheme.prover inst) in
      let n = Instance.n inst in
      let v =
        match Rng.int rng 3 with
        | 0 -> 0
        | 1 -> Rng.int rng n
        | _ -> n + Rng.int rng (1 lsl 20)
      in
      let fl = (v, Rng.int rng 1_000) in
      let compiled = Rng.int rng 4 > 0 in
      let empty_ok =
        let blanked = Array.copy certs in
        blanked.(v mod n) <- Bitstring.empty;
        let u, c = Handlers.flip blanked fl in
        u = v mod n && Bitstring.equal c Bitstring.empty
      in
      Pool.with_pool ~jobs:1 (fun pool ->
          let h = Handlers.create ~pool () in
          let want = Engine.run_par ~pool sc inst (materialise certs fl) in
          let served () =
            Vcompile.set_enabled compiled;
            Fun.protect ~finally:(fun () -> Vcompile.set_enabled true)
            @@ fun () ->
            Handlers.handle h
              (Protocol.Verify { scheme; graph; flip = Some fl })
          in
          let first = served () in
          let second = served () in
          empty_ok && first = second
          &&
          match first with
          | Protocol.Verdict { accepted; max_bits; rejections } ->
              accepted = want.Scheme.accepted
              && max_bits = want.Scheme.max_bits
              && rejections = want.Scheme.rejections
          | _ -> false))

(* An ATTACK draws its own assignments: it needs the scheme and the
   instance, never the prover's certificates, so it makes no prepared
   entry, and it answers what [Engine.attack_par] computes in process.
   An unknown scheme is still reported before a bad graph. *)
let attack_prepares_nothing () =
  let sc, inst, _, _ = direct_outcome () in
  let trials = 300 and max_bits = 6 and seed = 9 in
  Pool.with_pool ~jobs:1 (fun pool ->
      let want =
        Engine.attack_par ~pool (Rng.make seed) sc inst ~trials ~max_bits
      in
      let h = Handlers.create ~pool () in
      let attack scheme graph =
        Handlers.handle h
          (Protocol.Attack { scheme; graph; trials; max_bits; seed })
      in
      Metrics.with_enabled true @@ fun () ->
      Metrics.reset ();
      Fun.protect ~finally:Metrics.reset @@ fun () ->
      (match attack scheme_name graph_spec with
      | Protocol.Attacked { trials = t; fooled } ->
          check "trials as in process" true (t = want.Attack.trials);
          check "verdict as in process" true
            (fooled = (want.Attack.fooled <> None))
      | _ -> Alcotest.fail "expected an Attacked answer");
      Alcotest.(check int) "no prepared entry looked up" 0
        (Metrics.value
           (Metrics.counter ~approx:true "memo.serve.prepared.misses"));
      (match attack "nosuch" "clique:100000" with
      | Protocol.Error (Protocol.Unknown_scheme "nosuch") -> ()
      | _ -> Alcotest.fail "an unknown scheme must be reported first");
      match attack scheme_name "clique:100000" with
      | Protocol.Error (Protocol.Bad_graph _) -> ()
      | _ -> Alcotest.fail "an oversized graph must be Bad_graph")

let batch_sizes () =
  match
    List.find_opt
      (fun (h : Metrics.histogram_snapshot) ->
        h.Metrics.hname = "serve.batch_size")
      (Metrics.histograms ())
  with
  | Some h -> (Array.fold_left ( + ) 0 h.Metrics.counts, h.Metrics.sum)
  | None -> (0, 0)

(* One evaluation per distinct request per drain.  A long SIMULATE
   holds the only worker while K identical VERIFYs pipelined on one
   connection queue up behind it; the next drain takes all K as one
   group.  serve.batch_size then holds exactly two groups, the
   SIMULATE's (size 1) and one of size K, and every VERIFY still gets
   its own answer under its own id. *)
let drain_groups_identical_requests () =
  let k = 12 in
  let _, _, _, direct = direct_outcome () in
  Metrics.with_enabled true @@ fun () ->
  Metrics.reset ();
  Fun.protect ~finally:Metrics.reset @@ fun () ->
  Loadgen.with_self_server
    ~config:{ Server.default_config with Server.workers = 1; jobs = 1 }
    (fun ~port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_requests fd
        [
          ( 0,
            Protocol.Simulate
              {
                scheme = scheme_name;
                graph = "random-tree:1024:1";
                plan = "none";
                rounds = 20;
                seed = 1;
              } );
        ];
      (* let the worker pop the SIMULATE alone *)
      Unix.sleepf 0.02;
      send_requests fd (List.init k (fun i -> (i + 1, verify_req None)));
      let answers = read_responses fd (k + 1) in
      ids_are (k + 1) answers;
      (match List.assoc 0 answers with
      | Protocol.Sim _ -> ()
      | _ -> Alcotest.fail "expected a Sim response");
      List.iter
        (fun (id, resp) ->
          if id > 0 then expect_verdict "verify ≡ engine" direct resp)
        answers);
  let groups, requests = batch_sizes () in
  if (groups, requests) <> (2, k + 1) then
    Alcotest.failf "expected groups of 1 and %d, got %d groups over %d requests"
      k groups requests

(* Two workers, four connections sending the same VERIFY at once (and
   then its flipped variant): workers may evaluate the same request
   concurrently, prover cache cold included, and every answer must
   still be the in-process verdict. *)
let concurrent_workers_agree () =
  let conns = 4 and per_conn = 8 in
  let _, _, _, plain = direct_outcome () in
  let flip = (3, 0) in
  let flipped = flipped_outcome flip in
  check "the flip rejects" false flipped.Scheme.accepted;
  List.iter
    (fun (what, req, direct) ->
      Loadgen.with_self_server
        ~config:{ Server.default_config with Server.workers = 2; jobs = 1 }
        (fun ~port ->
          let go = Atomic.make false in
          let clients =
            List.init conns (fun _ ->
                Domain.spawn (fun () ->
                    let fd = connect port in
                    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
                    while not (Atomic.get go) do
                      Domain.cpu_relax ()
                    done;
                    send_requests fd (List.init per_conn (fun i -> (i, req)));
                    read_responses fd per_conn))
          in
          Atomic.set go true;
          List.iter
            (fun client ->
              let answers = Domain.join client in
              ids_are per_conn answers;
              List.iter
                (fun (_, resp) -> expect_verdict what direct resp)
                answers)
            clients))
    [
      ("verify ≡ engine", verify_req None, plain);
      ("flipped verify ≡ engine", verify_req (Some flip), flipped);
    ]

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
        [
          "clique:100000";
          (* one vertex past max_graph_vertices = 2^24 *)
          "path:16777217";
          (* 11586 * 11585 / 2 ≈ 6.71e7 edges, past max_graph_edges = 2^26 *)
          "clique:11586";
          "path:0";
          "clique:0";
        ];
      (* unbounded rounds, and a seed no trace could name, are a typed
         Bad_argument *)
      List.iter
        (fun (rounds, seed, what) ->
          match
            Handlers.handle h
              (Protocol.Simulate
                 {
                   scheme = scheme_name;
                   graph = graph_spec;
                   plan = "corrupt:0.1";
                   rounds;
                   seed;
                 })
          with
          | Protocol.Error (Protocol.Bad_argument _) -> ()
          | _ -> Alcotest.failf "%s must be Bad_argument" what)
        [
          (100_000_000, 1, "unbounded rounds");
          (1, 1234567890123456789, "a seed past 2^53");
        ])

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
        let fd = connect port in
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
(* Load generator against scripted servers                             *)

(* A one-connection server on an ephemeral loopback port whose answers
   are scripted by [serve fd]: the load generator's own accounting is
   then checked against a peer that misbehaves on purpose. *)
let with_fake_server serve f =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close lfd) @@ fun () ->
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept lfd in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            try serve fd
            with Unix.Unix_error _ | End_of_file -> ()))
  in
  Fun.protect ~finally:(fun () -> Domain.join server) (fun () -> f ~port)

(* One write carrying each [(id, response)], in order. *)
let send_responses fd answers =
  let s =
    String.concat ""
      (List.map
         (fun (id, r) -> Wire.encode (Protocol.encode_response ~id r))
         answers)
  in
  ignore (Unix.write_substring fd s 0 (String.length s))

let send_pongs fd ids =
  send_responses fd (List.map (fun id -> (id, Protocol.Pong)) ids)

(* Read [reads] requests, then send [answers] in one write. *)
let read_then_answer ~reads answers fd =
  let next = frame_reader fd in
  for _ = 1 to reads do
    ignore (next ())
  done;
  send_responses fd answers

let ping_cfg ~port ~window ~total ~rate =
  {
    Loadgen.host = "127.0.0.1";
    port;
    connections = 1;
    window;
    total;
    rate;
    request = Protocol.Ping;
    trace_rate = 0.;
  }

(* Coordinated omission: a server that stalls 300 ms before its first
   answer holds back every paced request due meanwhile (window 1, one
   due every 10 ms).  Timed from their actual sends those requests look
   instant and the stall shows up in one sample; timed from their due
   times, most of the run waited behind it. *)
let loadgen_paced_counts_stall () =
  let total = 40 in
  with_fake_server
    (fun fd ->
      let next = frame_reader fd in
      for i = 0 to total - 1 do
        let frame = next () in
        if i = 0 then Unix.sleepf 0.3;
        send_pongs fd [ frame.Wire.id ]
      done)
    (fun ~port ->
      let s =
        Loadgen.run (ping_cfg ~port ~window:1 ~total ~rate:(Some 100))
      in
      check "all answered" true (s.Loadgen.sent = total && s.Loadgen.ok = total);
      let p50 = Loadgen.percentile s.Loadgen.latencies_us 0.5 in
      if p50 < 50_000. then
        Alcotest.failf "paced p50 %.0f us hides the 300 ms stall" p50)

(* A bogus answer must fail the run, not be counted. *)
let expect_failure ~window ~reads answers expect =
  with_fake_server (read_then_answer ~reads answers) (fun ~port ->
      match Loadgen.run (ping_cfg ~port ~window ~total:2 ~rate:None) with
      | s ->
          Alcotest.failf "bogus answer accepted: sent=%d ok=%d" s.Loadgen.sent
            s.Loadgen.ok
      | exception Failure msg ->
          if not (String.starts_with ~prefix:expect msg) then
            Alcotest.failf "expected %S, got %S" expect msg)

(* A server that answers id 0 twice and id 1 never has not answered
   two requests. *)
let loadgen_duplicate_id_fails () =
  expect_failure ~window:2 ~reads:2
    [ (0, Protocol.Pong); (0, Protocol.Pong) ]
    "loadgen: duplicate response id 0"

(* One that answers an id before it was sent has answered nothing. *)
let loadgen_unsent_id_fails () =
  expect_failure ~window:1 ~reads:1 [ (1, Protocol.Pong) ]
    "loadgen: response id out of range"

(* One that hangs up with requests outstanding fails the run. *)
let loadgen_server_close_fails () =
  expect_failure ~window:2 ~reads:2 [] "loadgen: server closed the connection"

(* Typed overload and error answers are answers: each is counted in its
   own bucket and contributes a latency sample. *)
let loadgen_counts_typed_answers () =
  with_fake_server
    (read_then_answer ~reads:3
       [
         (2, Protocol.Retry_later);
         (0, Protocol.Error (Protocol.Bad_argument "scripted"));
         (1, Protocol.Pong);
       ])
    (fun ~port ->
      let s = Loadgen.run (ping_cfg ~port ~window:3 ~total:3 ~rate:None) in
      check "sent" true (s.Loadgen.sent = 3);
      check "one ok, one retry-later, one error" true
        (s.Loadgen.ok = 1 && s.Loadgen.retry_later = 1 && s.Loadgen.errors = 1);
      check "one sample per answer" true
        (Array.length s.Loadgen.latencies_us = 3))

(* Unpaced requests have no schedule and are timed from their sends:
   with window 1, the stall lands on the first request only. *)
let loadgen_unpaced_times_sends () =
  let total = 5 in
  with_fake_server
    (fun fd ->
      let next = frame_reader fd in
      for i = 0 to total - 1 do
        let frame = next () in
        if i = 0 then Unix.sleepf 0.3;
        send_pongs fd [ frame.Wire.id ]
      done)
    (fun ~port ->
      let s = Loadgen.run (ping_cfg ~port ~window:1 ~total ~rate:None) in
      check "all answered" true (s.Loadgen.sent = total && s.Loadgen.ok = total);
      let lat = s.Loadgen.latencies_us in
      let max = Loadgen.percentile lat 1.0 in
      if max < 300_000. then Alcotest.failf "stall not measured: max %.0f us" max;
      let p50 = Loadgen.percentile lat 0.5 in
      if p50 >= 150_000. then
        Alcotest.failf "unpaced p50 %.0f us charges the stall to later sends"
          p50)

(* [rate] is the total offered load: 4 req/s over 8 connections is
   0.5 req/s each, so each connection's second request is due at 2 s.
   Rounding each connection's share down to a whole 1 req/s would
   finish in about 1 s. *)
let loadgen_rate_is_total () =
  Loadgen.with_self_server (fun ~port ->
      let s =
        Loadgen.run
          {
            (ping_cfg ~port ~window:1 ~total:16 ~rate:(Some 4)) with
            Loadgen.connections = 8;
          }
      in
      check "all answered" true (s.Loadgen.sent = 16 && s.Loadgen.ok = 16);
      if s.Loadgen.duration_s < 1.75 then
        Alcotest.failf "16 requests at 4 req/s took %.2f s" s.Loadgen.duration_s)

let loadgen_rejects_bad_config () =
  List.iter
    (fun (what, cfg) ->
      check (what ^ " rejected") true
        (match Loadgen.run cfg with
        | _ -> false
        | exception Invalid_argument _ -> true))
    (let cfg = ping_cfg ~port:1 ~window:1 ~total:1 ~rate:None in
     [
       ("0 connections", { cfg with Loadgen.connections = 0 });
       ("0 window", { cfg with Loadgen.window = 0 });
       ("0 total", { cfg with Loadgen.total = 0 });
       ("0 rate", { cfg with Loadgen.rate = Some 0 });
     ]);
  let sorted = [| 1.; 2.; 3.; 4. |] in
  check "empty percentile is 0" true (Loadgen.percentile [||] 0.5 = 0.);
  check "q = 1 is the max" true (Loadgen.percentile sorted 1.0 = 4.);
  check "q = 0 is the min" true (Loadgen.percentile sorted 0.0 = 1.);
  check "median" true (Loadgen.percentile sorted 0.5 = 3.)

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
        QCheck_alcotest.to_alcotest qcheck_stats_snapshot_strict;
        QCheck_alcotest.to_alcotest qcheck_protocol_fuzz;
        Alcotest.test_case "simulate rounds = 0 is a typed rejection" `Quick
          simulate_zero_rounds_rejected;
        Alcotest.test_case "an overlong VERIFY flip is a typed rejection"
          `Quick overlong_flip_rejected;
      ] );
    ( "serve-admission",
      [
        Alcotest.test_case "bounds and batch pops" `Quick admission_bounds;
      ] );
    ( "serve-grouping",
      [
        Alcotest.test_case "group by key" `Quick group_by_key;
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
        Alcotest.test_case "one evaluation per distinct request per drain"
          `Quick drain_groups_identical_requests;
        Alcotest.test_case "two workers agree with the engine" `Quick
          concurrent_workers_agree;
        QCheck_alcotest.to_alcotest qcheck_served_flips;
        Alcotest.test_case "ATTACK prepares nothing" `Quick
          attack_prepares_nothing;
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
    ( "serve-loadgen",
      [
        Alcotest.test_case "paced latency counts a server stall" `Quick
          loadgen_paced_counts_stall;
        Alcotest.test_case "duplicate response id fails" `Quick
          loadgen_duplicate_id_fails;
        Alcotest.test_case "unsent response id fails" `Quick
          loadgen_unsent_id_fails;
        Alcotest.test_case "server hang-up fails" `Quick
          loadgen_server_close_fails;
        Alcotest.test_case "retry-later and errors counted" `Quick
          loadgen_counts_typed_answers;
        Alcotest.test_case "unpaced latency timed from the send" `Quick
          loadgen_unpaced_times_sends;
        Alcotest.test_case "rate is the total across connections" `Quick
          loadgen_rate_is_total;
        Alcotest.test_case "bad config and percentile edges" `Quick
          loadgen_rejects_bad_config;
      ] );
    ( "serve-shutdown",
      [ Alcotest.test_case "cleanups LIFO, contained" `Quick shutdown_cleanups ] );
  ]
