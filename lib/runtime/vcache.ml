(* Per-vertex verdict cache + dirty-set propagator for the incremental
   runtime (DESIGN §5.4).

   Soundness rests on two facts.  First, a radius-1 verifier's verdict
   is a pure function of its view: the vertex's own certificate and its
   inbox.  Second, every view change is caused by a fault event in the
   current round's event list, except for the reversion of a transient
   wire fault (a dropped or flipped message re-sent honestly), which
   happens exactly one round after the event.  A persistent change
   (corruption, crash, Byzantine conversion, recovery, edge edit) is
   an event in the round it happens and is re-broadcast unchanged
   afterwards, so it changes no view again without a new event.  So
   the set of vertices whose view may have changed this round is

     closure(fault events this round) ∪ carry(previous round)

   where the closure maps a vertex-state fault to the vertex and its
   neighbors, a wire fault to the receiving vertex ([Trace.scope]),
   and the carry re-checks, one round later, every vertex that sat in
   a transient's scope.  Everything outside that set provably has the
   same view as when its cached verdict was computed, and every alive
   vertex inside it runs its check.

   Determinism: the candidate set is computed sequentially from the
   (canonical, jobs-invariant) event list; the parallel fan-out only
   writes the verdicts of distinct candidates, so there is no
   cross-domain contention and no scheduling-dependent state. *)

type t = {
  verdicts : Scheme.verdict option array;
      (* [None] before round 1 and for vertices that render no verdict *)
  carry : bool array;  (* re-check in the next round *)
  dirty : bool array;  (* scratch: the current round's candidate set *)
}

let create n =
  {
    verdicts = Array.make n None;
    carry = Array.make n false;
    dirty = Array.make n false;
  }

(* Closed neighborhoods are taken in the graph as it stands {e after}
   the round's edits — for a topology event both endpoints' current
   neighbors see a different inbox (a new sender appeared or an old
   one fell silent), and the endpoints themselves broadcast to a
   different set.  The just-removed counterparty is its own event's
   endpoint, so it is marked even though it is no longer a neighbor. *)
let mark_scope graph dirty = function
  | Trace.Self_and_neighbors v ->
      dirty.(v) <- true;
      Graph.iter_neighbors graph v (fun w -> dirty.(w) <- true)
  | Trace.Inbox v -> dirty.(v) <- true
  | Trace.Endpoints (u, v) ->
      dirty.(u) <- true;
      Graph.iter_neighbors graph u (fun w -> dirty.(w) <- true);
      dirty.(v) <- true;
      Graph.iter_neighbors graph v (fun w -> dirty.(w) <- true)
  | Trace.Pure -> ()

(* The round's candidate list, ascending.  Sequential by design: it
   must be a pure function of the event list, never of scheduling. *)
let candidates t ~graph ~first_round events =
  let n = Array.length t.verdicts in
  if first_round then Array.fill t.dirty 0 n true
  else begin
    Array.blit t.carry 0 t.dirty 0 n;
    List.iter (fun e -> mark_scope graph t.dirty (Trace.scope e)) events
  end;
  let out = ref [] in
  for v = n - 1 downto 0 do
    if t.dirty.(v) then out := v :: !out
  done;
  !out

(* Candidate-side accessors, called from the parallel fan-out.  Each
   candidate is owned by exactly one chunk, so the writes below are
   single-writer per vertex. *)

let store t v verdict = t.verdicts.(v) <- Some verdict

(* crashed or Byzantine: renders no verdict, and stays that way *)
let skip t v = t.verdicts.(v) <- None
let verdict t v = t.verdicts.(v)

(* Next round's carry: the scopes of this round's transient events,
   whose reversion is unmarked. *)
let update_carry t ~graph events =
  Array.fill t.carry 0 (Array.length t.carry) false;
  List.iter
    (fun e ->
      if Trace.is_transient e then mark_scope graph t.carry (Trace.scope e))
    events
