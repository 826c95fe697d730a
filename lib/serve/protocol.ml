(* Request/response types and their Bitbuf marshalling.

   Payloads are bit streams written with Bitbuf.Writer and packed into
   whole bytes (4-byte big-endian bit-length prefix, zero padding in
   the last byte).  Certificates and rejection lists therefore ride the
   exact codecs the schemes already use — the deduped certificate
   arrays on the server side are reached by decoding through the same
   Bitstring values the in-process paths share.

   Decoding is total: any Bitbuf.Decode_error, trailing bits, bad
   padding or out-of-range field becomes a typed [error_code], never an
   exception past Fatal.is_fatal.  The server answers a request that
   fails to decode with [Error code] on the same request id.

   STATS is answered with the server's metrics snapshot itself: the
   payload is one string holding [Export.render]'s JSON, and the
   client decodes it with the strict [Export.parse] that --metrics
   files go through, so a malformed snapshot is a decode error like
   any other bad field. *)

(* ------------------------------------------------------------------ *)
(* Opcodes                                                             *)

let op_ping = 0x01
let op_certify = 0x02
let op_verify = 0x03
let op_simulate = 0x04
let op_attack = 0x05
let op_stats = 0x06
let op_pong = 0x81
let op_verdict = 0x82
let op_sim = 0x83
let op_attacked = 0x84
let op_stats_snapshot = 0x85
let op_retry_later = 0x90
let op_error = 0x91

let opcode_name op =
  match op with
  | 0x01 -> "ping"
  | 0x02 -> "certify"
  | 0x03 -> "verify"
  | 0x04 -> "simulate"
  | 0x05 -> "attack"
  | 0x06 -> "stats"
  | 0x81 -> "pong"
  | 0x82 -> "verdict"
  | 0x83 -> "sim"
  | 0x84 -> "attacked"
  | 0x85 -> "stats_snapshot"
  | 0x90 -> "retry_later"
  | 0x91 -> "error"
  | _ -> Printf.sprintf "op_0x%02x" op

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

type request =
  | Ping
  | Certify of { scheme : string; graph : string }
  | Verify of { scheme : string; graph : string; flip : (int * int) option }
  | Simulate of {
      scheme : string;
      graph : string;
      plan : string;
      rounds : int;
      seed : int;
    }
  | Attack of {
      scheme : string;
      graph : string;
      trials : int;
      max_bits : int;
      seed : int;
    }
  | Stats

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
  | Sim of { detected_at : int option; accepted : bool; trace : string }
  | Attacked of { trials : int; fooled : bool }
  | Stats_snapshot of Export.t
  | Retry_later
  | Error of error_code

let error_code_to_string = function
  | Unknown_opcode op -> Printf.sprintf "unknown opcode 0x%02x" op
  | Bad_payload msg -> "bad payload: " ^ msg
  | Unknown_scheme s -> Printf.sprintf "unknown scheme %S" s
  | Bad_graph msg -> "bad graph spec: " ^ msg
  | Bad_plan msg -> "bad fault plan: " ^ msg
  | Bad_argument msg -> "bad argument: " ^ msg
  | Prover_declined -> "prover declined (no-instance or unsupported size)"
  | Internal msg -> "internal error: " ^ msg

(* ------------------------------------------------------------------ *)
(* Bit payload <-> bytes                                               *)

(* 4-byte big-endian bit length, then the packed MSB-first bytes with
   zero padding — the padding is checked on decode so a payload has
   exactly one valid encoding. *)
let payload_of_bits bits =
  let len = Bitstring.length bits in
  let nbytes = (len + 7) / 8 in
  let b = Buffer.create (4 + nbytes) in
  Buffer.add_int32_be b (Int32.of_int len);
  for i = 0 to nbytes - 1 do
    let pos = 8 * i in
    let width = min 8 (len - pos) in
    let v = Bitstring.unsafe_extract bits ~pos ~width in
    Buffer.add_uint8 b (v lsl (8 - width))
  done;
  Buffer.contents b

exception Bad of string

let bits_of_payload s =
  if String.length s < 4 then raise (Bad "payload shorter than its header");
  let len = Int32.to_int (String.get_int32_be s 0) in
  if len < 0 then raise (Bad "negative bit length");
  let nbytes = (len + 7) / 8 in
  if String.length s <> 4 + nbytes then
    raise
      (Bad
         (Printf.sprintf "payload is %d bytes, bit length %d needs %d"
            (String.length s - 4) len nbytes));
  let data = Bytes.of_string (String.sub s 4 nbytes) in
  (* strict: padding bits of the last byte must be zero *)
  (if len land 7 <> 0 then
     let last = Bytes.get_uint8 data (nbytes - 1) in
     if last land ((1 lsl (8 - (len land 7))) - 1) <> 0 then
       raise (Bad "nonzero padding bits"));
  Bitstring.unsafe_of_bytes data ~len

(* ------------------------------------------------------------------ *)
(* Field codecs                                                        *)

let w_option w enc = function
  | None -> Bitbuf.Writer.bit w false
  | Some v ->
      Bitbuf.Writer.bit w true;
      enc w v

let r_option r dec = if Bitbuf.Reader.bit r then Some (dec r) else None

let w_pair w (a, b) =
  Bitbuf.Writer.nat w a;
  Bitbuf.Writer.nat w b

let r_pair r =
  let a = Bitbuf.Reader.nat r in
  let b = Bitbuf.Reader.nat r in
  (a, b)

let w_rejection w (v, reason) =
  Bitbuf.Writer.nat w v;
  Bitbuf.Writer.string w reason

let r_rejection r =
  let v = Bitbuf.Reader.nat r in
  let reason = Bitbuf.Reader.string r in
  (v, reason)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let encode_request ?trace ~id req =
  let w = Bitbuf.Writer.create () in
  let opcode =
    match req with
    | Ping -> op_ping
    | Certify { scheme; graph } ->
        Bitbuf.Writer.string w scheme;
        Bitbuf.Writer.string w graph;
        op_certify
    | Verify { scheme; graph; flip } ->
        Bitbuf.Writer.string w scheme;
        Bitbuf.Writer.string w graph;
        w_option w (fun w p -> w_pair w p) flip;
        op_verify
    | Simulate { scheme; graph; plan; rounds; seed } ->
        Bitbuf.Writer.string w scheme;
        Bitbuf.Writer.string w graph;
        Bitbuf.Writer.string w plan;
        Bitbuf.Writer.nat w rounds;
        Bitbuf.Writer.int w seed;
        op_simulate
    | Attack { scheme; graph; trials; max_bits; seed } ->
        Bitbuf.Writer.string w scheme;
        Bitbuf.Writer.string w graph;
        Bitbuf.Writer.nat w trials;
        Bitbuf.Writer.nat w max_bits;
        Bitbuf.Writer.int w seed;
        op_attack
    | Stats -> op_stats
  in
  {
    Wire.id;
    opcode;
    trace;
    payload = payload_of_bits (Bitbuf.Writer.contents w);
  }

let decode_request (f : Wire.frame) =
  match
    (* Opcode dispatch precedes payload parsing: an unknown opcode is
       [Unknown_opcode] even when its payload is also garbage, so a
       client probing the version surface gets the informative error. *)
    if
      not
        (List.mem f.Wire.opcode
           [ op_ping; op_certify; op_verify; op_simulate; op_attack; op_stats ])
    then raise Exit;
    let bits = bits_of_payload f.Wire.payload in
    let r = Bitbuf.Reader.of_bitstring bits in
    let req =
      if f.Wire.opcode = op_ping then Ping
      else if f.Wire.opcode = op_certify then begin
        let scheme = Bitbuf.Reader.string r in
        let graph = Bitbuf.Reader.string r in
        Certify { scheme; graph }
      end
      else if f.Wire.opcode = op_verify then begin
        let scheme = Bitbuf.Reader.string r in
        let graph = Bitbuf.Reader.string r in
        let flip = r_option r r_pair in
        Verify { scheme; graph; flip }
      end
      else if f.Wire.opcode = op_simulate then begin
        let scheme = Bitbuf.Reader.string r in
        let graph = Bitbuf.Reader.string r in
        let plan = Bitbuf.Reader.string r in
        let rounds = Bitbuf.Reader.nat r in
        let seed = Bitbuf.Reader.int r in
        if rounds < 1 then raise (Bad "rounds must be >= 1");
        Simulate { scheme; graph; plan; rounds; seed }
      end
      else if f.Wire.opcode = op_attack then begin
        let scheme = Bitbuf.Reader.string r in
        let graph = Bitbuf.Reader.string r in
        let trials = Bitbuf.Reader.nat r in
        let max_bits = Bitbuf.Reader.nat r in
        let seed = Bitbuf.Reader.int r in
        Attack { scheme; graph; trials; max_bits; seed }
      end
      else if f.Wire.opcode = op_stats then Stats
      else raise Exit
    in
    Bitbuf.Reader.expect_end r;
    req
  with
  | req -> Ok req
  | exception Exit -> Result.Error (Unknown_opcode f.Wire.opcode)
  | exception Bad msg -> Result.Error (Bad_payload msg)
  | exception Bitbuf.Decode_error msg -> Result.Error (Bad_payload msg)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let error_tag = function
  | Unknown_opcode _ -> 0
  | Bad_payload _ -> 1
  | Unknown_scheme _ -> 2
  | Bad_graph _ -> 3
  | Bad_plan _ -> 4
  | Bad_argument _ -> 5
  | Prover_declined -> 6
  | Internal _ -> 7

let encode_response_payload resp =
  let w = Bitbuf.Writer.create () in
  let opcode =
    match resp with
    | Pong -> op_pong
    | Verdict { accepted; max_bits; rejections } ->
        Bitbuf.Writer.bit w accepted;
        Bitbuf.Writer.nat w max_bits;
        Bitbuf.Writer.list w w_rejection rejections;
        op_verdict
    | Sim { detected_at; accepted; trace } ->
        w_option w (fun w n -> Bitbuf.Writer.nat w n) detected_at;
        Bitbuf.Writer.bit w accepted;
        Bitbuf.Writer.string w trace;
        op_sim
    | Attacked { trials; fooled } ->
        Bitbuf.Writer.nat w trials;
        Bitbuf.Writer.bit w fooled;
        op_attacked
    | Stats_snapshot snap ->
        Bitbuf.Writer.string w (Export.render snap);
        op_stats_snapshot
    | Retry_later -> op_retry_later
    | Error code ->
        Bitbuf.Writer.nat w (error_tag code);
        (match code with
        | Unknown_opcode op -> Bitbuf.Writer.nat w op
        | Bad_payload m | Unknown_scheme m | Bad_graph m | Bad_plan m
        | Bad_argument m | Internal m ->
            Bitbuf.Writer.string w m
        | Prover_declined -> ());
        op_error
  in
  (opcode, payload_of_bits (Bitbuf.Writer.contents w))

let encode_response ?trace ~id resp =
  let opcode, payload = encode_response_payload resp in
  { Wire.id; opcode; trace; payload }

let decode_response (f : Wire.frame) =
  match
    let bits = bits_of_payload f.Wire.payload in
    let r = Bitbuf.Reader.of_bitstring bits in
    let resp =
      if f.Wire.opcode = op_pong then Pong
      else if f.Wire.opcode = op_verdict then begin
        let accepted = Bitbuf.Reader.bit r in
        let max_bits = Bitbuf.Reader.nat r in
        let rejections = Bitbuf.Reader.list r r_rejection in
        Verdict { accepted; max_bits; rejections }
      end
      else if f.Wire.opcode = op_sim then begin
        let detected_at = r_option r Bitbuf.Reader.nat in
        let accepted = Bitbuf.Reader.bit r in
        let trace = Bitbuf.Reader.string r in
        Sim { detected_at; accepted; trace }
      end
      else if f.Wire.opcode = op_attacked then begin
        let trials = Bitbuf.Reader.nat r in
        let fooled = Bitbuf.Reader.bit r in
        Attacked { trials; fooled }
      end
      else if f.Wire.opcode = op_stats_snapshot then begin
        match Export.parse (Bitbuf.Reader.string r) with
        | Ok snap -> Stats_snapshot snap
        | Error msg -> raise (Bad ("stats snapshot: " ^ msg))
      end
      else if f.Wire.opcode = op_retry_later then Retry_later
      else if f.Wire.opcode = op_error then begin
        let tag = Bitbuf.Reader.nat r in
        let code =
          match tag with
          | 0 -> Unknown_opcode (Bitbuf.Reader.nat r)
          | 1 -> Bad_payload (Bitbuf.Reader.string r)
          | 2 -> Unknown_scheme (Bitbuf.Reader.string r)
          | 3 -> Bad_graph (Bitbuf.Reader.string r)
          | 4 -> Bad_plan (Bitbuf.Reader.string r)
          | 5 -> Bad_argument (Bitbuf.Reader.string r)
          | 6 -> Prover_declined
          | 7 -> Internal (Bitbuf.Reader.string r)
          | t -> raise (Bad (Printf.sprintf "unknown error tag %d" t))
        in
        Error code
      end
      else raise Exit
    in
    Bitbuf.Reader.expect_end r;
    resp
  with
  | resp -> Ok resp
  | exception Exit ->
      Result.Error (Printf.sprintf "unknown response opcode 0x%02x" f.Wire.opcode)
  | exception Bad msg -> Result.Error msg
  | exception Bitbuf.Decode_error msg -> Result.Error msg
