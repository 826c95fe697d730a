(** One communication round on a flat message plane: broadcast,
    faults, delivery.

    A plane is laid out over one CSR topology (the committed
    {!Graph.Delta} overlay of the current round, so churned edges take
    effect in the round they were edited).  It holds one payload slot
    per directed edge, aligned with the {e receiver's} row: slot [j] of
    row [v] carries what [col.(j)] sent to [v] this round.  A [twin]
    array maps each slot to the slot of the reverse edge — built in one
    O(m) pass, because rows are sorted — so sender [u] writes its
    payload for its j-th neighbor into [twin.(j)].  A slot left silent
    (a crashed sender, a dropped message) holds a private physical
    sentinel, never a real payload.  The layout is reused across rounds
    with the same topology; {!exchange} overwrites every slot.

    Each alive vertex broadcasts its stored certificate; the fault plan
    intercepts state (crash, Byzantine conversion, stored-certificate
    corruption) and messages (drop, bit flip, forgery) on the way.
    Honest deliveries are not events: the round reports them as a
    {!Trace.deliveries} record, and only the faults are heap events.

    Determinism contract: vertex [v]'s step consumes randomness only
    from [streams.(v)], mutates only [nodes.(v)] and writes only the
    slots of [v]'s outgoing edges (each slot has exactly one writer),
    so the phase can be sharded across any number of domains without
    changing the outcome — fault events are collected per chunk in
    ascending vertex order and concatenated in chunk order. *)

type t
(** A round layout plus its payload slots. *)

val layout : Graph.t -> t
(** The plane for one topology, all slots silent.  O(n + m). *)

val graph : t -> Graph.t
(** The topology the plane was laid out for. *)

type round = {
  events : Trace.event list;
      (** sender-side fault events (crash, Byzantine conversion,
          corruption, drop, flip, forge), canonical order *)
  deliveries : Trace.deliveries;  (** the honest deliveries *)
  wire_bits : int;  (** delivered payload bits, forged ones included *)
}

val exchange :
  pool:Pool.t ->
  plan:Fault.t ->
  first_round:bool ->
  active:bool ->
  plane:t ->
  nodes:Node.t array ->
  streams:Localcert_util.Rng.t array ->
  round
(** [exchange ~pool ~plan ~first_round ~active ~plane ~nodes ~streams]
    plays one round of message exchange on [plane], filling every slot
    with the payload that survived the faults (or the silent
    sentinel).

    [active] is whether the round is within the plan's
    {!Fault.t.horizon}: when [false], every random number is still
    drawn (the stream schedule never depends on the horizon) but no
    rate-based fault fires — already-Byzantine vertices keep forging,
    already-crashed vertices stay silent.

    Per vertex the stream is consumed in a fixed order: round-1
    Byzantine draw, crash draw, corruption draw (plus mutation draws
    when it fires), then per neighbor in ascending vertex order a drop
    draw, a flip draw and — for Byzantine senders — the forged
    payload.  The plan's deterministic [crashed] list is applied in
    round 1 through a precomputed mask (no per-vertex list scan);
    {!Runtime.execute} validates those ids before the first round.
    [nodes] is mutated in place (status transitions, corrupted
    certificates). *)

val view : t -> Instance.t -> Node.t array -> int -> Scheme.view
(** [view plane inst nodes v] is the {!Scheme.view} vertex [v]
    assembles from its row of the plane after {!exchange}: its
    neighbors' [(id, payload)] pairs, sorted by id, with silent slots
    left out.  With every slot delivered honestly this is exactly
    {!Scheme.view_of}.  The interpreted oracle: {!checker} computes the
    same verdict without building it. *)

val checker :
  Scheme.t -> Instance.t -> Node.t array -> t -> int -> Scheme.verdict
(** [checker scheme inst nodes] is the runtime's verifier, built once
    per execution over the execution's [nodes]; [checker … plane v] is
    vertex [v]'s verdict on its row of [plane] after {!exchange},
    always equal to [Scheme.verify scheme (view plane inst nodes v)],
    reason strings included.

    With compilation enabled ({!Vcompile.is_enabled} when the checker
    is built) it builds no {!Scheme.view}: it reads the row directly,
    skips silent slots, sorts the row by id only when it is not already
    sorted, and runs the lowering's [check].  A payload that is
    physically its sender's stored certificate (every honest delivery)
    takes its decoded value from a per-vertex table, kept for the
    checker's lifetime and refreshed whenever that vertex stores a new
    certificate.  Flipped and forged payloads are decoded on the spot.
    With compilation disabled it is exactly the interpreted oracle
    above.  An exception from the lowering propagates.  Distinct
    vertices may be checked concurrently. *)
