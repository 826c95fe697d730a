(** Per-vertex verdict cache and dirty-set propagator for the
    incremental runtime.

    A radius-1 verifier's verdict depends only on the vertex's view,
    and between rounds a view can change only through the fault events
    of the current round — plus the unmarked reversion, one round
    later, of a transient wire fault.  This module turns that
    invariant into a candidate set per round:

    {[ candidates(r) = closure(fault events(r)) ∪ carry(r - 1) ]}

    where the closure follows {!Trace.scope} (vertex-state faults
    dirty the vertex and its neighbors, wire faults dirty the
    receiving inbox, topology edits dirty both endpoints' closed
    neighborhoods in the post-edit topology) and the carry holds the
    scopes of the previous round's transient events.  A persistent
    change (corruption, crash, Byzantine conversion, recovery, edge
    edit) is an event in its own round and is re-broadcast unchanged
    afterwards, so it needs no carry.  Vertices outside the candidate
    set provably have the same view as when their cached verdict was
    computed, so the verdict is reused without looking at the view;
    every alive candidate runs its check.

    The candidate set is computed {e sequentially} from the round's
    canonical heap events (honest deliveries are implicit in the
    round's {!Trace.deliveries} and change no view, so they are never
    walked), so it — and every count derived from it — is identical
    at every job count.  The per-candidate accessors ({!store},
    {!skip}) write only the verdict of the given vertex and may be
    called concurrently for distinct vertices. *)

type t

val create : int -> t
(** A cold cache for [n] vertices: round 1 makes every vertex a
    candidate and populates the cache. *)

val candidates :
  t -> graph:Graph.t -> first_round:bool -> Trace.event list -> int list
(** The vertices whose view may have changed this round, ascending.
    [graph] is the round's topology, after its edits.
    With [~first_round:true] that is every vertex (nothing is cached
    yet).  Call exactly once per round, before the fan-out. *)

val store : t -> int -> Scheme.verdict -> unit
(** Record a freshly computed verdict for [v]. *)

val skip : t -> int -> unit
(** [v] renders no verdict this round (crashed or Byzantine); clears
    its cache entry. *)

val verdict : t -> int -> Scheme.verdict option
(** The verdict of [v]'s current view: fresh or cached.  [Some] for
    every vertex that was alive at its last candidacy. *)

val update_carry : t -> graph:Graph.t -> Trace.event list -> unit
(** Compute the carry for the next round from this round's transient
    events.  Call exactly once per round, after the fan-out. *)
