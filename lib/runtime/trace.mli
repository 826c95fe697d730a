(** Structured execution traces of the round-based runtime.

    A trace is the full, deterministic event log of one
    {!Runtime.execute}: per round, every message sent, dropped,
    corrupted on the wire or forged, every state fault (crash,
    Byzantine conversion, stored-certificate corruption) and every
    verdict rendered.  Event order is canonical — sender events in
    ascending vertex order, then verdicts in ascending vertex order —
    so the same seed produces a byte-identical {!to_json} rendering at
    every job count.

    {2 Delivery records}

    Honest deliveries are the bulk of a round (one per directed edge)
    and carry no information beyond the topology and the sender's
    certificate length; verdicts (one per verifying vertex) carry none
    beyond the round's rejections.  So a {!round_log} holds neither as
    events.  Its [events] list holds only the heap events —
    recoveries, topology edits and the sender-side faults — and its
    {!deliveries} record holds the round's topology, each sender's
    payload length and the delivery count.  {!all_events} derives the
    [Send] and [Verdict] events again, in the canonical order:
    - recoveries and topology edits, as recorded;
    - for each sender [u] in ascending order, its state events
      ([Crash], [Went_byzantine], [Corrupt]) first, then for each
      neighbor [w] of [u] in ascending order exactly one of: [Drop];
      [Flip] followed by [Send]; [Forge]; or [Send] — the last only
      when [u] broadcast honestly (its payload length is [>= 0]);
    - for each vertex [v] in ascending order whose payload length is
      [>= 0] — the alive, honest vertices, exactly those that verify —
      one [Verdict]: rejecting with its reason if [v] is in
      [rejections], accepting otherwise.

    {!to_json} renders that derived list; {!metrics} and
    {!pp_summary} read the counts and never build the derived
    events.

    {!metrics} folds a trace into the aggregate figures the bench
    sweep reports: detection latency in rounds, corruption/detection
    counts, and total communication bits. *)

type event =
  | Crash of { vertex : int }  (** the vertex halted this round *)
  | Went_byzantine of { vertex : int }  (** round-1 adversary draw *)
  | Corrupt of { vertex : int }  (** stored certificate mutated *)
  | Send of { src : int; dst : int; bits : int }
      (** delivered honestly; only ever derived, by {!all_events} *)
  | Drop of { src : int; dst : int }  (** lost on the wire *)
  | Flip of { src : int; dst : int; bit : int }
      (** delivered with bit [bit] inverted *)
  | Forge of { src : int; dst : int; bits : int }
      (** Byzantine sender, arbitrary payload delivered *)
  | Edge_added of { u : int; v : int }
      (** topology churn: edge [u–v] ([u < v]) appeared this round *)
  | Edge_removed of { u : int; v : int }
      (** topology churn: edge [u–v] ([u < v]) vanished this round *)
  | Recover of { vertex : int }
      (** self-healing: the vertex re-adopted a freshly proved
          certificate (not a fault) *)
  | Verdict of { vertex : int; accepted : bool; reason : string }
      (** verifier output ([reason] is [""] on acceptance); only ever
          derived, by {!all_events} *)

type deliveries = {
  topology : Graph.t;
      (** the round's topology, after its edits; physically shared by
          consecutive rounds whose topology did not change *)
  payload_bits : int array;
      (** per sender: the length of the certificate it broadcast, or
          [-1] when it sent nothing honestly (crashed, or Byzantine —
          its per-message payloads are [Forge] events).  The vertices
          with a length [>= 0] are exactly the ones that rendered a
          verdict this round. *)
  sent : int;  (** honest deliveries, flipped ones included *)
}
(** The honest deliveries of one round, stored implicitly: see the
    preamble for how the [Send] events are derived from it. *)

type round_log = {
  round : int;  (** 1-based *)
  events : event list;
      (** the heap events in canonical order; never a [Send] or a
          [Verdict] (see {!all_events}) *)
  deliveries : deliveries;
  wire_bits : int;  (** delivered payload bits this round *)
  rejections : (int * string) list;  (** rejecting vertices, ascending *)
  verdicts_rendered : int;
      (** how many alive honest vertices actually rendered a verdict —
          [0] means the round's acceptance was vacuously undecidable
          (every vertex crashed or Byzantine), which {!Runtime} treats
          as {e not} accepted *)
}

val all_events : round_log -> event list
(** The round's complete canonical event list, [Send] and [Verdict]
    events included, derived from [events], [deliveries] and
    [rejections] as the preamble describes. *)

type t = {
  scheme : string;
  n : int;
  seed : int;
  plan : string;
  rounds : round_log list;  (** ascending round order *)
}

type metrics = {
  rounds : int;
  detected_at : int option;  (** first round with a rejection, 1-based *)
  first_corruption : int option;
      (** first round with any fault event
          (corrupt/flip/drop/forge/crash/edge edit) *)
  messages_sent : int;  (** delivered, honest *)
  messages_dropped : int;
  messages_flipped : int;
  messages_forged : int;
  certs_corrupted : int;
  crashed : int;
  byzantine : int;
  wire_bits : int;  (** delivered payload bits over all rounds *)
  rejecting_verdicts : int;
  edges_added : int;  (** topology churn: edges that appeared *)
  edges_removed : int;  (** topology churn: edges that vanished *)
  certs_recovered : int;  (** certificates re-adopted by self-healing *)
  last_fault : int option;
      (** last round with any fault event (edits included, recoveries
          not) — the baseline for rounds-to-quiescence *)
}

(** Which radius-1 views an event can change (see DESIGN §5.4): a
    vertex-state fault (crash, Byzantine conversion, corruption)
    changes the vertex's own view and every neighbor's inbox; a wire
    fault (drop, flip, forge) changes exactly the receiving vertex's
    inbox; a topology edit changes both endpoints' degrees and
    broadcast targets, hence both endpoints' closed neighborhoods (in
    the post-edit topology); a recovery changes the vertex's stored
    certificate exactly like a corruption does; honest sends and
    verdicts change nothing.  The runtime's incremental dirty set is
    the union of these scopes, closed over neighborhoods for the
    vertex-state and endpoint cases. *)
type scope =
  | Self_and_neighbors of int
  | Inbox of int
  | Endpoints of int * int
  | Pure

val scope : event -> scope

val is_fault : event -> bool
(** Whether the event perturbs the execution: state faults, wire
    faults and topology edits are faults; honest sends, verdicts and
    recoveries are not.  The last round containing one is the baseline
    for rounds-to-quiescence. *)

val is_transient : event -> bool
(** [true] for the wire faults (drop, flip, forge) whose effect on a
    view reverts one round later without a marking event — the reason
    the incremental dirty set carries them over one extra round. *)

val metrics : t -> metrics

val detection_latency : metrics -> int option
(** Rounds from the first fault to the first rejection, inclusive
    (so same-round detection has latency 1).  [None] when nothing was
    detected, nothing was corrupted — including the trivial zero-round
    trace — or the first rejection precedes the first fault (invalid
    certificates rejected before the fault plan fired); a non-positive
    "latency" is never reported. *)

val to_json : t -> string
(** Machine-readable rendering (compact {!Localcert_obs.Json.render})
    of every round's {!all_events}.  Deterministic: the same trace
    value always yields the same bytes. *)

val pp_summary : Format.formatter -> t -> unit
(** One line per round plus the aggregate metrics — the CLI's default
    [simulate] output. *)
