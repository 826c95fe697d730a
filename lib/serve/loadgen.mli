(** Open-loop latency load generator for the certification server.

    One domain per connection, each pipelining up to [window] requests
    and matching responses by id.  Every connection sends the same
    request — many clients asking about few instances is the service's
    hot shape, and it is exactly what a server worker groups within
    one queue drain; this harness measures that path deliberately. *)

type config = {
  host : string;
  port : int;
  connections : int;
  window : int;  (** per-connection pipeline depth *)
  total : int;  (** total requests across all connections *)
  rate : int option;
      (** total requests/s pacing across all connections, each
          connection paced at its float share; [None] keeps every
          window full (saturation) *)
  request : Protocol.request;
  trace_rate : float;
      (** fraction of requests stamped with a client trace id (wire
          header trace word + {!Localcert_obs.Tracer} send/recv
          events); effective only while the tracer is enabled *)
}

type stats = {
  sent : int;
  ok : int;
  retry_later : int;
  errors : int;
  duration_s : float;
  latencies_us : float array;
      (** sorted ascending; one sample per response, RETRY_LATER and
          error responses included (a typed overload answer is still
          an answer).  A sample runs from the request's start to its
          response: for a paced run ([rate = Some _]) the start is the
          request's due time on the schedule, so time spent waiting
          behind a stalled server counts; unpaced, it is the send.
          Timed on {!Localcert_obs.Monotonic}, so never negative. *)
}

val run : config -> stats
(** Raises [Invalid_argument] on non-positive connections, window,
    total or rate; [Failure] if the server closes a connection, breaks framing,
    or answers an id that was never sent or was already answered. *)

val request_once :
  host:string -> port:int -> Protocol.request ->
  (Protocol.response, string) result
(** One request, one response, over a fresh connection — the CLI's
    remote-stats path and the differential tests' client. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0..1]; [q = 1.0] is the max,
    empty arrays give [0.0]. *)

val with_self_server :
  ?config:Server.config -> (port:int -> 'a) -> 'a
(** Boot an in-process {!Server} on an ephemeral port (the [port]
    field of [config] is overridden with 0), run the callback, then
    stop and drain the server — even if the callback raises. *)
