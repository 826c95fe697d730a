(* The long-lived certification server.

   Topology: one IO domain (this caller) runs a select loop over the
   listen socket and every connection — it accepts, reads, frames
   (Wire.decode is incremental) and decides admission; a fixed pool of
   worker domains pops queue batches, evaluates requests through
   Handlers (grouped so identical requests in a batch share one engine
   sweep) and writes responses.  No threads library: domains and
   blocking sockets only, which is all OCaml 5 needs here.

   Overload never stalls the accept loop: Admission.try_admit is
   non-blocking, and a rejected frame is answered with RETRY_LATER
   right from the IO domain.  Responses may be written out of request
   order (workers finish independently); clients match on request id.

   Graceful drain (SIGINT/SIGTERM or the [stop] atomic): close the
   listen socket, stop reading, let the workers drain the queue and
   write every in-flight response, then close connections, run the
   Shutdown cleanups (the --metrics flush) and return — exit 0, not a
   signal death. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; [ready] reports it *)
  workers : int;
  jobs : int;
  queue_capacity : int;
  inflight_cap : int;
  max_connections : int;
  batch_max : int;
  trace_rate : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    (* one IO domain + workers; leave the caller's core to IO on small
       machines *)
    workers = max 1 (Domain.recommended_domain_count () - 1);
    jobs = 1;
    queue_capacity = 4096;
    inflight_cap = 1024;
    max_connections = 256;
    batch_max = 512;
    trace_rate = 0.;
  }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable rbuf : Bytes.t;
  mutable rstart : int;  (* consumed prefix *)
  mutable rlen : int;  (* valid bytes from rstart *)
  wm : Mutex.t;
  mutable closed : bool;  (* guarded by wm *)
  slots : Admission.slots;
}

(* [enqueued_ns] is monotonic (Monotonic.now_ns), not wall time: an
   NTP step between enqueue and drain must not produce negative or
   skewed queue-wait observations, and the tracer's slices need the
   same clock.  [trace] is the request's tracing context — either
   propagated by the client in the wire header or sampled here. *)
type job = {
  jconn : conn;
  frame : Wire.frame;
  enqueued_ns : int;
  trace : int option;
}

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

(* Request traffic depends on clients and scheduling, so every serve
   instrument lives in the approx section; the deterministic section
   stays reserved for seed-reproducible workload counts. *)
let approx_counter name =
  Once.make (fun () -> Metrics.counter ~approx:true name)

(* One counter per opcode byte, registered on first use: the IO domain
   counts every frame without building a name or taking the registry
   lock. *)
let c_requests =
  Array.init 256 (fun op ->
      approx_counter ("serve.requests." ^ Protocol.opcode_name op))

let approx_histogram bounds name =
  Once.make (fun () -> Metrics.histogram ~approx:true ~bounds name)

let c_retry = approx_counter "serve.retry_later"
let c_wire_errors = approx_counter "serve.wire_errors"
let c_oversized = approx_counter "serve.oversized_responses"
let c_conns = approx_counter "serve.connections"
let c_conns_rejected = approx_counter "serve.connections_rejected"
let g_open = Once.make (fun () -> Metrics.gauge ~approx:true "serve.conns_open")
let t_handle = Metrics.timer "serve.handle"

let latency_bounds =
  [| 50; 100; 200; 500; 1000; 2000; 5000; 10000; 50000; 100000; 1000000 |]

let h_latency = approx_histogram latency_bounds "serve.latency_us"
let h_queue_wait = approx_histogram latency_bounds "serve.queue_wait_us"

(* One observation per evaluated well-formed group: its size. *)
let h_batch_size =
  approx_histogram [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]
    "serve.batch_size"

let when_metrics f = if Metrics.is_enabled () then f ()

(* Server-sampled trace ids live in their own namespace (bit 60) so
   they can never collide with client-chosen ids, which the load
   generator tags with bit 61. *)
let server_trace_tag = 1 lsl 60
let trace_sample_counter = Atomic.make 0

(* [--trace-rate r] becomes "trace every k-th untraced request".
   Counter sampling (not a PRNG) keeps the IO loop deterministic and
   allocation-free. *)
let trace_every_of_rate r =
  if r <= 0. then 0 else max 1 (int_of_float (Float.round (1. /. Float.min 1. r)))

(* ------------------------------------------------------------------ *)
(* Connection writes                                                   *)

(* All bytes or raise; blocking sockets only short-write on signals. *)
let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Best-effort: a peer that vanished mid-response is closed and
   forgotten, never an exception into the worker. *)
let send conn s =
  Mutex.protect conn.wm (fun () ->
      if not conn.closed then
        try write_all conn.fd s
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          conn.closed <- true)

(* ------------------------------------------------------------------ *)
(* Worker loop                                                         *)

(* The one coalescing layer.  A response is a pure function of its
   request, so a drained batch is grouped by decoded request and each
   group is evaluated once.  Nothing is shared across workers: two
   workers that drain the same request at once each evaluate it. *)
let group key items =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun item ->
      let k = key item in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := item :: !l
      | None ->
          Hashtbl.replace tbl k (ref [ item ]);
          order := k :: !order)
    items;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

(* Handlers.handle already folds non-fatal exceptions into typed
   [Internal] errors; this is the fatal backstop.  Out_of_memory while
   materialising one oversized response must not kill the worker
   domain silently — with workers=1 that would stop the server while
   admitted jobs keep their in-flight slots forever.  Answer the
   request, log loudly, keep serving. *)
let handle_guarded handlers req =
  match Tracer.with_slice t_handle (fun () -> Handlers.handle handlers req) with
  | resp -> resp
  | exception e ->
      Logger.err
        ~fields:[ ("exn", Printexc.to_string e) ]
        "serve: fatal exception in a handler; answering INTERNAL";
      Protocol.Error (Protocol.Internal (Printexc.to_string e))

(* A response whose payload cannot ride a frame (a Simulate trace or
   rejection list past Wire.max_payload) must become a typed error,
   not an [Invalid_argument] out of [Wire.encode_into]. *)
let encodable_payload resp =
  let (_, payload) as r = Protocol.encode_response_payload resp in
  if String.length payload <= Wire.max_payload then r
  else begin
    when_metrics (fun () -> Metrics.incr (c_oversized ()));
    Logger.warn
      ~fields:[ ("bytes", string_of_int (String.length payload)) ]
      "serve: response exceeds the frame limit; answering INTERNAL";
    Protocol.encode_response_payload
      (Protocol.Error
         (Protocol.Internal "response exceeds the wire frame limit"))
  end

let worker handlers queue batch_max ~io_tid =
  let run_batch jobs =
    let t_drain = Monotonic.now_ns () in
    (* The first traced job lends its context to the batch-level
       slices — batching is shared work, so the trace shows the batch
       the traced request actually rode in. *)
    let batch_trace = List.find_map (fun j -> j.trace) jobs in
    List.iter
      (fun j ->
        when_metrics (fun () ->
            Metrics.observe (h_queue_wait ())
              ((t_drain - j.enqueued_ns) / 1000));
        match j.trace with
        | Some t ->
            (* Rendered on the IO domain's timeline: the wait happened
               between the IO domain's dispatch and this drain, and
               putting it there keeps the worker row to actual work. *)
            Tracer.complete_slice ~trace:t ~tid:io_tid ~t1_ns:t_drain
              ~t0_ns:j.enqueued_ns "serve.queue_wait"
        | None -> ())
      jobs;
    (* Decode, then group by decoded request: every group is
       answered by one evaluation, its shared payload encoded once
       and stamped with each request's id. *)
    let t_decode = Monotonic.now_ns () in
    let decoded =
      List.map (fun j -> (j, Protocol.decode_request j.frame)) jobs
    in
    (match batch_trace with
    | Some t -> Tracer.complete_slice ~trace:t ~t0_ns:t_decode "serve.decode"
    | None -> ());
    let groups = group snd decoded in
    let out : (int, conn * Buffer.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (key, items) ->
        let eval () =
          match key with
          | Error code -> Protocol.Error code
          | Ok req ->
              when_metrics (fun () ->
                  Metrics.observe (h_batch_size ())
                    (List.length items));
              handle_guarded handlers req
        in
        let resp =
          (* Install the group's trace context so the engine-side
             slices (serve.handle, run_par, vcompile) tag their events
             with the request that caused them. *)
          match List.find_map (fun ((j : job), _) -> j.trace) items with
          | None -> eval ()
          | Some _ as gtrace -> Tracer.with_context gtrace eval
        in
        let opcode, payload = encodable_payload resp in
        List.iter
          (fun ((j : job), _) ->
            let conn = j.jconn in
            let buf =
              match Hashtbl.find_opt out conn.cid with
              | Some (_, b) -> b
              | None ->
                  let b = Buffer.create 256 in
                  Hashtbl.replace out conn.cid (conn, b);
                  b
            in
            Wire.encode_into buf
              { Wire.id = j.frame.Wire.id; opcode; trace = j.trace; payload };
            when_metrics (fun () ->
                Metrics.observe (h_latency ())
                  ((Monotonic.now_ns () - j.enqueued_ns) / 1000)))
          items)
      groups;
    (match batch_trace with
    | Some t ->
        Tracer.complete_slice ~trace:t
          ~args:[ ("batch_size", List.length jobs) ]
          ~t0_ns:t_drain "serve.batch"
    | None -> ());
    (* one write per connection per batch *)
    let t_write = Monotonic.now_ns () in
    Hashtbl.iter (fun _ (conn, b) -> send conn (Buffer.contents b)) out;
    match batch_trace with
    | Some t -> Tracer.complete_slice ~trace:t ~t0_ns:t_write "serve.write"
    | None -> ()
  in
  let rec loop () =
    match Admission.pop_batch queue ~max:batch_max with
    | [] -> () (* closed and drained *)
    | jobs ->
        (* Slots are released whatever happens to the batch: a leaked
           slot would pin its connection at the in-flight cap forever. *)
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun j -> Admission.release j.jconn.slots) jobs)
          (fun () -> run_batch jobs);
        loop ()
  in
  (* Anything escaping the guards above is a bug; dying loudly beats a
     silent worker loss. *)
  try loop ()
  with e ->
    Logger.err
      ~fields:[ ("exn", Printexc.to_string e) ]
      "serve: worker domain died";
    raise e

(* ------------------------------------------------------------------ *)
(* IO loop                                                             *)

let retry_later_payload = Protocol.encode_response_payload Protocol.Retry_later

let dispatch ~trace_every queue conn (frame : Wire.frame) =
  when_metrics (fun () -> Metrics.incr (c_requests.(frame.Wire.opcode) ()));
  let trace =
    match frame.Wire.trace with
    | Some t ->
        (* Client-propagated context: stitch its flow arrow into the
           server timeline right at ingress. *)
        Tracer.flow_step ~trace:t ~id:t "req";
        Tracer.instant ~trace:t "serve.ingress";
        Some t
    | None ->
        if trace_every > 0 && Tracer.is_enabled () then begin
          let n = Atomic.fetch_and_add trace_sample_counter 1 in
          if n mod trace_every = 0 then begin
            let t = server_trace_tag lor n in
            Tracer.instant ~trace:t "serve.ingress";
            Some t
          end
          else None
        end
        else None
  in
  let job = { jconn = conn; frame; enqueued_ns = Monotonic.now_ns (); trace } in
  match Admission.try_admit queue conn.slots job with
  | Admission.Admitted -> ()
  | Admission.Queue_full | Admission.Conn_saturated ->
      when_metrics (fun () -> Metrics.incr (c_retry ()));
      let opcode, payload = retry_later_payload in
      send conn
        (Wire.encode
           { Wire.id = frame.Wire.id; opcode; trace = frame.Wire.trace; payload })

(* Parse every complete frame in the connection's buffer.  Returns
   [false] when the connection must be closed (framing lost). *)
let parse_frames ~trace_every queue conn =
  let ok = ref true and continue = ref true in
  while !continue do
    match
      Wire.decode conn.rbuf ~pos:conn.rstart ~len:(conn.rstart + conn.rlen)
    with
    | Wire.Frame (frame, consumed) ->
        conn.rstart <- conn.rstart + consumed;
        conn.rlen <- conn.rlen - consumed;
        dispatch ~trace_every queue conn frame
    | Wire.Need _ -> continue := false
    | Wire.Fail e ->
        when_metrics (fun () -> Metrics.incr (c_wire_errors ()));
        Logger.warn
          ~fields:[ ("conn", string_of_int conn.cid) ]
          ("wire error: " ^ Wire.error_to_string e);
        ok := false;
        continue := false
  done;
  (* compact: keep the unparsed suffix at the front *)
  if conn.rstart > 0 then begin
    if conn.rlen > 0 then Bytes.blit conn.rbuf conn.rstart conn.rbuf 0 conn.rlen;
    conn.rstart <- 0
  end;
  !ok

let read_into conn =
  (* grow so at least one header (or the pending frame) can land *)
  let cap = Bytes.length conn.rbuf in
  if conn.rstart + conn.rlen = cap then begin
    let need = max (2 * cap) (conn.rlen + 65536) in
    let need = min need (Wire.header_size + Wire.max_payload + 65536) in
    if need > cap then begin
      let nb = Bytes.create need in
      Bytes.blit conn.rbuf conn.rstart nb 0 conn.rlen;
      conn.rbuf <- nb;
      conn.rstart <- 0
    end
  end;
  let off = conn.rstart + conn.rlen in
  match Unix.read conn.fd conn.rbuf off (Bytes.length conn.rbuf - off) with
  | 0 -> `Eof
  | n ->
      conn.rlen <- conn.rlen + n;
      `Read
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Read
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof

(* [Unix.inet_addr_of_string] accepts only numeric addresses and
   raises a bare [Failure _] on names; fall through to getaddrinfo so
   "localhost" (server bind and loadgen connect alike) resolves.  IPv4
   only — both ends open PF_INET sockets. *)
let resolve_addr ~host ~port =
  match Unix.inet_addr_of_string host with
  | addr -> Unix.ADDR_INET (addr, port)
  | exception Failure _ -> (
      let candidates =
        try
          Unix.getaddrinfo host ""
            [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
        with Unix.Unix_error _ -> []
      in
      match
        List.find_map
          (function
            | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } -> Some addr
            | _ -> None)
          candidates
      with
      | Some addr -> Unix.ADDR_INET (addr, port)
      | None -> failwith (Printf.sprintf "cannot resolve host %S" host))

let run ?(stop = Atomic.make false) ?(install_signals = true) ?ready config =
  if config.workers < 1 then invalid_arg "Server.run: workers < 1";
  (* A client that disconnects with responses in flight must surface
     as EPIPE in [send], not kill the process. *)
  Shutdown.ignore_sigpipe ();
  if install_signals then
    Shutdown.install ~handler:(fun _ -> Atomic.set stop true) ();
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (resolve_addr ~host:config.host ~port:config.port);
  Unix.listen listen_fd 128;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  (match ready with None -> () | Some f -> f port);
  Logger.info
    ~fields:
      [
        ("port", string_of_int port);
        ("workers", string_of_int config.workers);
        ("queue", string_of_int config.queue_capacity);
      ]
    "serve: listening";
  let queue =
    Admission.create ~capacity:config.queue_capacity
      ~inflight_cap:config.inflight_cap ()
  in
  Pool.with_pool ~jobs:config.jobs @@ fun pool ->
  let handlers = Handlers.create ~pool () in
  let io_tid = (Domain.self () :> int) in
  let trace_every = trace_every_of_rate config.trace_rate in
  let workers =
    List.init config.workers (fun _ ->
        Domain.spawn (fun () -> worker handlers queue config.batch_max ~io_tid))
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 32 in
  let next_cid = ref 0 in
  let close_conn conn =
    Mutex.protect conn.wm (fun () -> conn.closed <- true);
    Hashtbl.remove conns conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    when_metrics (fun () ->
        Metrics.set_gauge (g_open ()) (Hashtbl.length conns))
  in
  let accept_one () =
    match Unix.accept listen_fd with
    | fd, _addr ->
        if Hashtbl.length conns >= config.max_connections then begin
          when_metrics (fun () -> Metrics.incr (c_conns_rejected ()));
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          incr next_cid;
          let conn =
            {
              fd;
              cid = !next_cid;
              rbuf = Bytes.create 65536;
              rstart = 0;
              rlen = 0;
              wm = Mutex.create ();
              closed = false;
              slots = Admission.slots queue;
            }
          in
          Hashtbl.replace conns fd conn;
          when_metrics (fun () ->
              Metrics.incr (c_conns ());
              Metrics.set_gauge (g_open ()) (Hashtbl.length conns))
        end
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
  in
  (* main select loop *)
  let continue = ref true in
  while !continue do
    if Atomic.get stop then continue := false
    else begin
      let fds = listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      match Unix.select fds [] [] 0.2 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = listen_fd then accept_one ()
              else
                match Hashtbl.find_opt conns fd with
                | None -> ()
                | Some conn -> (
                    match read_into conn with
                    | `Eof -> close_conn conn
                    | `Read ->
                        if not (parse_frames ~trace_every queue conn) then
                          close_conn conn))
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  (* graceful drain: no new connections or frames; the workers finish
     everything already admitted, then exit on the closed queue. *)
  Logger.info ~fields:[ ("port", string_of_int port) ] "serve: draining";
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Admission.close queue;
  List.iter Domain.join workers;
  Hashtbl.iter (fun _ conn -> Mutex.protect conn.wm (fun () -> conn.closed <- true)) conns;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  Logger.info ~fields:[ ("port", string_of_int port) ] "serve: drained";
  Shutdown.run_cleanups ()
