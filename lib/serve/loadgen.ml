(* Open-loop latency load generator.

   One domain per connection, each pipelining up to [window] requests
   on a blocking socket and matching responses by request id.  All
   connections send the *same* request: a certification service's hot
   load is many clients asking about few instances, and identical
   requests drained together are exactly what a server worker groups
   into single engine sweeps — this harness measures that path on
   purpose.

   With [rate = Some r] each connection paces its sends at its float
   share [r /. connections], so the connections together offer exactly
   [r] requests/s; unpaced, the window is kept full — saturation
   throughput.  Every stamp (start, pacing, sends, arrivals) is read
   from [Monotonic], which never steps, so no latency can come out
   negative.  Latency is response arrival minus the request's start,
   in microseconds, one sample per request including RETRY_LATER and
   error responses (a typed overload answer is still an answer; its
   latency is the admission path's latency).
   A paced request starts at its due time on the schedule, not when a
   full window finally lets it out: a stalled server delays every
   request queued behind it, and timing from the actual send would
   hide that wait (coordinated omission).  An unpaced request has no
   schedule and starts when it is written. *)

type config = {
  host : string;
  port : int;
  connections : int;
  window : int;
  total : int;  (** total requests across all connections *)
  rate : int option;  (** total requests/s across all connections *)
  request : Protocol.request;
  trace_rate : float;  (** fraction of requests sent with a trace id *)
}

(* Client-chosen trace ids carry bit 61 (servers sample under bit 60),
   then the connection index and the per-connection sequence number —
   collision-free across connections without coordination. *)
let client_trace_tag = 1 lsl 61

let trace_every_of_rate r =
  if r <= 0. then 0 else max 1 (int_of_float (Float.round (1. /. Float.min 1. r)))

type stats = {
  sent : int;
  ok : int;
  retry_later : int;
  errors : int;
  duration_s : float;
  latencies_us : float array;  (** sorted ascending, one per response *)
}

type outcome = { mutable n_ok : int; mutable n_retry : int; mutable n_err : int }

let classify out = function
  | Ok Protocol.Retry_later -> out.n_retry <- out.n_retry + 1
  | Ok (Protocol.Error _) | Error _ -> out.n_err <- out.n_err + 1
  | Ok _ -> out.n_ok <- out.n_ok + 1

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* One connection's run: returns (outcome counts, latencies in
   completion order).  [per_conn] requests, ids [0 .. per_conn-1]. *)
let client cfg ~conn_id ~per_conn ~per_conn_rate =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Server.resolve_addr ~host:cfg.host ~port:cfg.port);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let template = Protocol.encode_request ~id:0 cfg.request in
  let out = { n_ok = 0; n_retry = 0; n_err = 0 } in
  let lat = Array.make (max per_conn 1) 0.0 in
  (* each request's start: its due time when paced, its send otherwise *)
  let start_ns = Array.make (max per_conn 1) 0 in
  let answered = Bytes.make (max per_conn 1) '\000' in
  let trace_every =
    if Tracer.is_enabled () then trace_every_of_rate cfg.trace_rate else 0
  in
  (* Trace ids for traced requests only — the untraced path keeps its
     allocation profile. *)
  let trace_of =
    if trace_every > 0 then Array.make (max per_conn 1) (-1) else [||]
  in
  let sent = ref 0 and recvd = ref 0 in
  let rbuf = ref (Bytes.create 65536) in
  let rstart = ref 0 and rlen = ref 0 in
  let wbuf = Buffer.create 4096 in
  let start = Monotonic.now_ns () in
  let read_some () =
    (* grow if the pending frame cannot fit *)
    if !rstart + !rlen = Bytes.length !rbuf then begin
      if !rstart > 0 then begin
        Bytes.blit !rbuf !rstart !rbuf 0 !rlen;
        rstart := 0
      end
      else begin
        let nb = Bytes.create (2 * Bytes.length !rbuf) in
        Bytes.blit !rbuf 0 nb 0 !rlen;
        rbuf := nb
      end
    end;
    let off = !rstart + !rlen in
    match Unix.read fd !rbuf off (Bytes.length !rbuf - off) with
    | 0 -> failwith "loadgen: server closed the connection"
    | n -> rlen := !rlen + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let parse_frames () =
    let continue = ref true in
    while !continue do
      match Wire.decode !rbuf ~pos:!rstart ~len:(!rstart + !rlen) with
      | Wire.Frame (frame, consumed) ->
          rstart := !rstart + consumed;
          rlen := !rlen - consumed;
          let id = frame.Wire.id in
          if id < 0 || id >= !sent then
            failwith "loadgen: response id out of range";
          if Bytes.get answered id <> '\000' then
            failwith (Printf.sprintf "loadgen: duplicate response id %d" id);
          Bytes.set answered id '\001';
          lat.(!recvd) <-
            float_of_int (Monotonic.now_ns () - start_ns.(id)) /. 1e3;
          if trace_every > 0 && trace_of.(id) >= 0 then begin
            (* client-observed round trip over the latency sample's own
               interval, stitched to the server's slices by the echoed
               trace id *)
            let t = trace_of.(id) in
            Tracer.complete_slice ~trace:t ~t0_ns:start_ns.(id) "client.rtt";
            Tracer.flow_end ~trace:t ~id:t "req"
          end;
          classify out (Protocol.decode_response frame);
          incr recvd
      | Wire.Need _ -> continue := false
      | Wire.Fail e -> failwith ("loadgen: " ^ Wire.error_to_string e)
    done;
    if !rstart > 0 && !rlen = 0 then rstart := 0
  in
  while !recvd < per_conn do
    (* how many sends the window (and the pacing schedule) allow now *)
    let can_send =
      min (per_conn - !sent) (cfg.window - (!sent - !recvd))
    in
    let can_send =
      match per_conn_rate with
      | None -> can_send
      | Some r ->
          let due =
            let elapsed_s = float_of_int (Monotonic.now_ns () - start) /. 1e9 in
            int_of_float (elapsed_s *. r) + 1 - !sent
          in
          min can_send (max 0 due)
    in
    if can_send > 0 then begin
      Buffer.clear wbuf;
      for _ = 1 to can_send do
        start_ns.(!sent) <-
          (match per_conn_rate with
          | None -> Monotonic.now_ns ()
          | Some r -> start + int_of_float (float_of_int !sent *. 1e9 /. r));
        if trace_every > 0 && !sent mod trace_every = 0 then begin
          let t = client_trace_tag lor (conn_id lsl 24) lor !sent in
          trace_of.(!sent) <- t;
          Tracer.flow_start ~trace:t ~id:t "req";
          Tracer.instant ~trace:t "client.send";
          Wire.encode_into wbuf { template with Wire.id = !sent; trace = Some t }
        end
        else Wire.encode_into wbuf { template with Wire.id = !sent };
        incr sent
      done;
      write_all fd (Buffer.contents wbuf)
    end;
    if !recvd < per_conn then
      if !sent > !recvd then begin
        read_some ();
        parse_frames ()
      end
      else
        (* paced and idle: sleep toward the next scheduled send *)
        Unix.sleepf 0.0005
  done;
  (out, lat)

(* One request, one response, over a fresh connection — the CLI's
   remote-stats path and the differential tests' client. *)
let request_once ~host ~port req =
  Shutdown.ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Unix.connect fd (Server.resolve_addr ~host ~port) with
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))
  | () -> (
      write_all fd (Wire.encode (Protocol.encode_request ~id:0 req));
      let buf = ref (Bytes.create 65536) in
      let len = ref 0 in
      let rec recv () =
        match Wire.decode !buf ~pos:0 ~len:!len with
        | Wire.Frame (frame, _) -> Ok frame
        | Wire.Fail e -> Error (Wire.error_to_string e)
        | Wire.Need _ -> (
            if !len = Bytes.length !buf then begin
              let nb = Bytes.create (2 * Bytes.length !buf) in
              Bytes.blit !buf 0 nb 0 !len;
              buf := nb
            end;
            match Unix.read fd !buf !len (Bytes.length !buf - !len) with
            | 0 -> Error "server closed the connection"
            | n ->
                len := !len + n;
                recv ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ())
      in
      match recv () with
      | Error _ as e -> e
      | Ok frame ->
          if frame.Wire.id <> 0 then Error "response id mismatch"
          else Protocol.decode_response frame)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let run cfg =
  Shutdown.ignore_sigpipe ();
  if cfg.connections < 1 then invalid_arg "Loadgen.run: connections < 1";
  if cfg.window < 1 then invalid_arg "Loadgen.run: window < 1";
  if cfg.total < 1 then invalid_arg "Loadgen.run: total < 1";
  (match cfg.rate with
  | Some r when r < 1 -> invalid_arg "Loadgen.run: rate < 1"
  | _ -> ());
  let base = cfg.total / cfg.connections
  and extra = cfg.total mod cfg.connections in
  let per_conn_rate =
    Option.map
      (fun r -> float_of_int r /. float_of_int cfg.connections)
      cfg.rate
  in
  let start = Monotonic.now_ns () in
  let domains =
    List.init cfg.connections (fun i ->
        let per_conn = base + if i < extra then 1 else 0 in
        Domain.spawn (fun () ->
            if per_conn = 0 then ({ n_ok = 0; n_retry = 0; n_err = 0 }, [||])
            else client cfg ~conn_id:i ~per_conn ~per_conn_rate))
  in
  let results = List.map Domain.join domains in
  let duration_s = float_of_int (Monotonic.now_ns () - start) /. 1e9 in
  let sent = List.fold_left (fun a (_, l) -> a + Array.length l) 0 results in
  let ok = List.fold_left (fun a (o, _) -> a + o.n_ok) 0 results in
  let retry_later = List.fold_left (fun a (o, _) -> a + o.n_retry) 0 results in
  let errors = List.fold_left (fun a (o, _) -> a + o.n_err) 0 results in
  let latencies_us = Array.concat (List.map snd results) in
  Array.sort compare latencies_us;
  { sent; ok; retry_later; errors; duration_s; latencies_us }

(* Boot an in-process server on an ephemeral port, run [f ~port], then
   drain it.  This is what `localcert loadgen --self` and the serve
   tests use: one command, no port coordination, and the drain path
   gets exercised on every run. *)
let with_self_server ?(config = Server.default_config) f =
  let stop = Atomic.make false in
  let port_cell = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Server.run ~stop ~install_signals:false
          ~ready:(fun p -> Atomic.set port_cell p)
          { config with port = 0 })
  in
  let rec wait_port tries =
    match Atomic.get port_cell with
    | 0 ->
        if tries > 5000 then failwith "loadgen: server never came up";
        Unix.sleepf 0.001;
        wait_port (tries + 1)
    | p -> p
  in
  let finish () =
    Atomic.set stop true;
    Domain.join server
  in
  match f ~port:(wait_port 0) with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e
