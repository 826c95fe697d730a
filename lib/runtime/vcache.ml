(* Per-vertex verdict cache + dirty-set propagator for the incremental
   runtime (DESIGN §5.4).

   Soundness rests on two facts.  First, a radius-1 verifier's verdict
   is a pure function of its view, and the only view components that
   change between rounds are the vertex's own certificate and its
   inbox — captured exactly by [View_key].  Second, every view change
   is caused by a fault event in the current round's event list,
   except for the reversion of a transient wire fault (a dropped or
   flipped message re-sent honestly), which happens exactly one round
   after the event.  So the set of vertices whose view may have
   changed this round is

     closure(fault events this round) ∪ carry(previous round)

   where the closure maps a vertex-state fault to the vertex and its
   neighbors, a wire fault to the receiving vertex ([Trace.scope]),
   and the carry re-checks, one round later, every vertex that sat in
   a transient's scope or whose key actually changed.  Everything
   outside that set provably has the same view as when its cached
   verdict was computed.

   Determinism: the candidate set is computed sequentially from the
   (canonical, jobs-invariant) event list; the parallel fan-out only
   writes per-vertex fields of distinct candidates, so there is no
   cross-domain contention and no scheduling-dependent state. *)

type entry = {
  mutable key : View_key.t option;
      (* view key at the last digest check; [None] before round 1 and
         for vertices that render no verdict *)
  mutable verdict : Scheme.verdict option;  (* verdict for [key] *)
  mutable changed : bool;  (* key changed during the current round *)
}

type t = {
  entries : entry array;
  carry : bool array;  (* re-check in the next round *)
  dirty : bool array;  (* scratch: the current round's candidate set *)
}

let create n =
  {
    entries =
      Array.init n (fun _ -> { key = None; verdict = None; changed = false });
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
  let n = Array.length t.entries in
  Array.fill t.dirty 0 n false;
  if first_round then Array.fill t.dirty 0 n true
  else begin
    Array.blit t.carry 0 t.dirty 0 n;
    List.iter (fun e -> mark_scope graph t.dirty (Trace.scope e)) events
  end;
  let out = ref [] in
  for v = n - 1 downto 0 do
    if t.dirty.(v) then begin
      t.entries.(v).changed <- false;
      out := v :: !out
    end
  done;
  !out

(* Candidate-side accessors, called from the parallel fan-out.  Each
   candidate is owned by exactly one chunk, so the mutations below are
   single-writer per entry. *)

let check t v key =
  let e = t.entries.(v) in
  match e.key with
  | Some k when View_key.equal k key -> e.verdict
  | _ -> None

let store t v key verdict =
  let e = t.entries.(v) in
  e.changed <- Option.is_some e.key;
  e.key <- Some key;
  e.verdict <- Some verdict

let skip t v =
  (* crashed or Byzantine: renders no verdict, and stays that way *)
  let e = t.entries.(v) in
  e.key <- None;
  e.verdict <- None;
  e.changed <- false

let verdict t v = t.entries.(v).verdict

(* Next round's carry: the scopes of this round's transient events
   (their reversion is unmarked) plus every candidate whose key
   actually changed (one extra cheap re-check; keeps the invariant
   robust rather than relying on a sharper reversion analysis). *)
let update_carry t ~graph events =
  let n = Array.length t.entries in
  Array.fill t.carry 0 n false;
  List.iter
    (fun e ->
      if Trace.is_transient e then mark_scope graph t.carry (Trace.scope e))
    events;
  for v = 0 to n - 1 do
    if t.entries.(v).changed then t.carry.(v) <- true
  done
