(** Typed requests and responses over {!Wire} frames.

    Payloads are Bitbuf-encoded bit streams packed into bytes (bit
    length prefix, zero padding), so every field rides the same codecs
    the schemes' certificates use.  Decoding is total: malformed
    payloads and unknown opcodes come back as typed {!error_code}s, and
    the server answers them with an [Error] response on the same
    request id — no exception crosses this module's boundary except
    the fatal ones ({!Localcert_util.Fatal.is_fatal}).

    Instances are referenced by value, not by handle: a request names a
    registry scheme family ({!Localcert_core.Registry}) and a pure
    graph spec ({!Localcert_graph.Spec}), so any client — and any
    differential test — can rebuild the exact instance a request
    denotes. *)

type request =
  | Ping  (** liveness / latency-floor probe *)
  | Certify of { scheme : string; graph : string }
      (** run prover + engine verifier; answers [Verdict] *)
  | Verify of { scheme : string; graph : string; flip : (int * int) option }
      (** verify the prover's certification; [flip = Some (v, b)]
          first flips bit [b mod len] of vertex [v mod n]'s certificate
          (the soundness-probe path); answers [Verdict] *)
  | Simulate of {
      scheme : string;
      graph : string;
      plan : string;  (** a {!Localcert_runtime.Fault.of_spec} string *)
      rounds : int;
      seed : int;
    }  (** round-based runtime execution; answers [Sim] *)
  | Attack of {
      scheme : string;
      graph : string;
      trials : int;
      max_bits : int;
      seed : int;
    }  (** adversarial probe via [Engine.attack_par]; answers [Attacked] *)
  | Stats  (** the server's metrics snapshot; answers [Stats_snapshot] *)

type error_code =
  | Unknown_opcode of int
  | Bad_payload of string
  | Unknown_scheme of string
  | Bad_graph of string
  | Bad_plan of string
  | Bad_argument of string
  | Prover_declined
  | Internal of string

type response =
  | Pong
  | Verdict of {
      accepted : bool;
      max_bits : int;
      rejections : (int * string) list;
    }
  | Sim of {
      detected_at : int option;
      accepted : bool;
      trace : string;  (** the canonical {!Localcert_runtime.Trace} JSON *)
    }
  | Attacked of { trials : int; fooled : bool }
  | Stats_snapshot of Export.t
      (** {!Localcert_obs.Export.snapshot} of the server process, sent
          as {!Localcert_obs.Export.render} and decoded with the strict
          {!Localcert_obs.Export.parse}: a malformed snapshot is a
          decode error *)
  | Retry_later
      (** admission control: queue full or per-connection cap hit;
          back off and resend *)
  | Error of error_code

val error_code_to_string : error_code -> string
val opcode_name : int -> string

val encode_request : ?trace:int -> id:int -> request -> Wire.frame
(** [trace] puts a tracing context on the frame (strictly optional:
    untraced requests are byte-identical to a client that has never
    heard of tracing). *)

val decode_request : Wire.frame -> (request, error_code) result

val encode_response : ?trace:int -> id:int -> response -> Wire.frame
(** Servers echo the request's trace id so the client can stitch its
    send/recv events to the server-side slices. *)

val encode_response_payload : response -> int * string
(** [(opcode, payload)] without an id — batched responses encode the
    shared payload once and stamp per-request ids into headers. *)

val decode_response : Wire.frame -> (response, string) result
