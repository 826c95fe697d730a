(** The certification server: accept loop, worker domains, graceful
    drain.

    One IO domain (the caller of {!run}) owns the listen socket and
    every connection: it accepts, reads, frames incrementally with
    {!Wire.decode} and decides admission without ever blocking.  A
    fixed pool of worker domains pops queue {e batches}, groups them by
    request so identical concurrent requests share one engine sweep,
    and writes responses (out of request order — clients match on
    request id).  Overload is answered inline with RETRY_LATER from
    the IO domain; see DESIGN §5.6. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; [ready] reports it *)
  workers : int;  (** response worker domains, ≥ 1 *)
  jobs : int;  (** engine pool size shared by the workers *)
  queue_capacity : int;  (** global admission bound *)
  inflight_cap : int;  (** per-connection admission bound *)
  max_connections : int;  (** accepts past this are closed *)
  batch_max : int;  (** max requests a worker pops at once *)
  trace_rate : float;
      (** fraction of untraced requests the server samples into the
          tracer (0 disables; client-traced requests are always
          honoured).  Effective only while {!Localcert_obs.Tracer} is
          enabled. *)
}

val default_config : config

val group : ('a -> 'k) -> 'a list -> ('k * 'a list) list
(** [group key items] groups a drained batch by [key] (structural
    equality), keys in first-seen order, each group's items in arrival
    order.  A worker evaluates each group once and answers every item
    from that evaluation — the server's only request coalescing. *)

val resolve_addr : host:string -> port:int -> Unix.sockaddr
(** Resolve [host] (a numeric IPv4 address or a name like
    ["localhost"], via getaddrinfo) to an IPv4 socket address.
    Raises [Failure] with a readable message when the name does not
    resolve.  Shared by the server's bind and the load generator's
    connects. *)

val run :
  ?stop:bool Atomic.t ->
  ?install_signals:bool ->
  ?ready:(int -> unit) ->
  config ->
  unit
(** Serve until [stop] becomes true, then drain: stop accepting,
    finish every admitted request, flush responses, close, run the
    {!Shutdown} cleanups, return normally.

    [install_signals] (default true) routes SIGINT/SIGTERM to the
    drain path (the handler just sets [stop]); pass [false] in tests
    that stop the server through the atomic.  [ready] is called with
    the bound port before the first accept — the hook the CLI uses to
    print the port and the tests use to connect to an ephemeral one.
    Blocks the calling domain for the server's lifetime. *)
