(** Bounded MPMC work queue with overload admission control.

    Two limits, both decided at push time without ever blocking the IO
    domain: a global queue capacity (bounds total queueing delay) and a
    per-connection in-flight cap (bounds how much of the queue one
    client can own).  A rejected push becomes a RETRY_LATER response —
    overload is a typed, immediate signal to clients, not a stall or a
    timeout.  See DESIGN §5.6. *)

type 'a t

type decision = Admitted | Queue_full | Conn_saturated

type slots
(** One connection's in-flight accounting. *)

val create : capacity:int -> inflight_cap:int -> unit -> 'a t
(** Raises [Invalid_argument] unless both limits are ≥ 1. *)

val slots : 'a t -> slots
(** Fresh accounting for a new connection. *)

val try_admit : 'a t -> slots -> 'a -> decision
(** Charge the connection, then enqueue.  On [Admitted] the caller
    must arrange exactly one {!release} when the request completes;
    on rejection the charge has already been rolled back. *)

val release : slots -> unit
val inflight : slots -> int

val pop_batch : 'a t -> max:int -> 'a list
(** Block until at least one item is available (or the queue is
    closed), then drain up to [max] items without blocking.  Returns
    [[]] only after {!close} with the queue empty — the workers' exit
    signal.  Batch pops are what let a worker group identical
    requests ({!Server.group}) under load while a lone request is
    served immediately. *)

val depth : 'a t -> int

val close : 'a t -> unit
(** Reject further pushes and wake all poppers; pending items still
    drain (graceful shutdown finishes in-flight work). *)
