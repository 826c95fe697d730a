type event =
  | Crash of { vertex : int }
  | Went_byzantine of { vertex : int }
  | Corrupt of { vertex : int }
  | Send of { src : int; dst : int; bits : int }
  | Drop of { src : int; dst : int }
  | Flip of { src : int; dst : int; bit : int }
  | Forge of { src : int; dst : int; bits : int }
  | Edge_added of { u : int; v : int }
  | Edge_removed of { u : int; v : int }
  | Recover of { vertex : int }
  | Verdict of { vertex : int; accepted : bool; reason : string }

type deliveries = {
  topology : Graph.t;
  payload_bits : int array;
  sent : int;
}

type round_log = {
  round : int;
  events : event list;
  deliveries : deliveries;
  wire_bits : int;
  rejections : (int * string) list;
  verdicts_rendered : int;
}

type t = {
  scheme : string;
  n : int;
  seed : int;
  plan : string;
  rounds : round_log list;
}

type metrics = {
  rounds : int;
  detected_at : int option;
  first_corruption : int option;
  messages_sent : int;
  messages_dropped : int;
  messages_flipped : int;
  messages_forged : int;
  certs_corrupted : int;
  crashed : int;
  byzantine : int;
  wire_bits : int;
  rejecting_verdicts : int;
  edges_added : int;
  edges_removed : int;
  certs_recovered : int;
  last_fault : int option;
}

let is_fault = function
  | Corrupt _ | Drop _ | Flip _ | Forge _ | Crash _ | Went_byzantine _
  | Edge_added _ | Edge_removed _ ->
      true
  | Send _ | Verdict _ | Recover _ -> false

(* Which radius-1 views a fault event can change — the soundness basis
   of the runtime's incremental dirty set (DESIGN §5.4).  Vertex-state
   faults change the vertex's own view and (through its broadcast or
   silence) every neighbor's inbox; wire faults change exactly the
   receiving inbox; honest sends and verdicts change no view at all. *)
type scope =
  | Self_and_neighbors of int
  | Inbox of int
  | Endpoints of int * int
  | Pure

let scope = function
  | Crash { vertex } | Went_byzantine { vertex } | Corrupt { vertex }
  | Recover { vertex } ->
      Self_and_neighbors vertex
  | Drop { dst; _ } | Flip { dst; _ } | Forge { dst; _ } -> Inbox dst
  | Edge_added { u; v } | Edge_removed { u; v } -> Endpoints (u, v)
  | Send _ | Verdict _ -> Pure

(* Transient faults perturb one round's messages and revert on their
   own in the next round (the dropped or flipped message is re-sent
   honestly, the Byzantine sender forges afresh), so the views they
   touched change again one round later {e without} any fault event
   marking the reversion.  Persistent faults (crash, Byzantine status,
   stored-certificate corruption) move the state once and then
   re-broadcast it unchanged. *)
let is_transient = function
  | Drop _ | Flip _ | Forge _ -> true
  | Crash _ | Went_byzantine _ | Corrupt _ | Edge_added _ | Edge_removed _
  | Recover _ | Send _ | Verdict _ ->
      false

let metrics (t : t) =
  let m =
    ref
      {
        rounds = List.length t.rounds;
        detected_at = None;
        first_corruption = None;
        messages_sent = 0;
        messages_dropped = 0;
        messages_flipped = 0;
        messages_forged = 0;
        certs_corrupted = 0;
        crashed = 0;
        byzantine = 0;
        wire_bits = 0;
        rejecting_verdicts = 0;
        edges_added = 0;
        edges_removed = 0;
        certs_recovered = 0;
        last_fault = None;
      }
  in
  List.iter
    (fun r ->
      let acc = !m in
      let acc =
        if r.rejections <> [] && acc.detected_at = None then
          { acc with detected_at = Some r.round }
        else acc
      in
      let acc =
        if List.exists is_fault r.events then
          {
            acc with
            first_corruption =
              (if acc.first_corruption = None then Some r.round
               else acc.first_corruption);
            last_fault = Some r.round;
          }
        else acc
      in
      m :=
        List.fold_left
          (fun acc e ->
            match e with
            | Send _ -> acc
            | Drop _ -> { acc with messages_dropped = acc.messages_dropped + 1 }
            | Flip _ ->
                (* a flipped message is still delivered: count both *)
                {
                  acc with
                  messages_flipped = acc.messages_flipped + 1;
                }
            | Forge _ -> { acc with messages_forged = acc.messages_forged + 1 }
            | Corrupt _ ->
                { acc with certs_corrupted = acc.certs_corrupted + 1 }
            | Crash _ -> { acc with crashed = acc.crashed + 1 }
            | Went_byzantine _ -> { acc with byzantine = acc.byzantine + 1 }
            | Edge_added _ -> { acc with edges_added = acc.edges_added + 1 }
            | Edge_removed _ ->
                { acc with edges_removed = acc.edges_removed + 1 }
            | Recover _ ->
                { acc with certs_recovered = acc.certs_recovered + 1 }
            | Verdict _ -> acc)
          {
            acc with
            wire_bits = acc.wire_bits + r.wire_bits;
            messages_sent = acc.messages_sent + r.deliveries.sent;
            rejecting_verdicts =
              acc.rejecting_verdicts + List.length r.rejections;
          }
          r.events)
    t.rounds;
  !m

(* Rounds from first fault to first rejection, inclusive.  [None] when
   nothing was detected, nothing was corrupted, or the first rejection
   {e precedes} the first fault (e.g. certificates that were invalid
   from round 1 while the fault plan only fired later) — a
   "detection latency" of zero or less is not a latency.  Callers used
   to compute [d - c + 1] inline and could produce those non-positive
   values on such traces; aggregating here keeps the edge cases in one
   place.  On a zero-round trace both options are [None], so this is
   total. *)
let detection_latency (m : metrics) =
  match (m.detected_at, m.first_corruption) with
  | Some d, Some c when d >= c -> Some (d - c + 1)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Derived sends                                                       *)
(* ------------------------------------------------------------------ *)

(* The canonical list is pre-exchange events (recoveries, edits), then
   the sender-side events with the honest deliveries woven back in,
   then the verdicts.  The sender-side events are in ascending sender
   order and, per sender, state events before link events in neighbor
   order, so one cursor over them merges with the topology walk.
   Anything the walk cannot place (a hand-built, non-canonical list)
   is kept, after the walk.  The vertices that rendered a verdict are
   exactly the honest broadcasters ([payload_bits >= 0]): crashed and
   Byzantine vertices neither broadcast honestly nor verify. *)
let all_events r =
  let d = r.deliveries in
  let pre, net =
    List.partition
      (function Recover _ | Edge_added _ | Edge_removed _ -> true | _ -> false)
      r.events
  in
  let out = ref (List.rev pre) in
  let emit e = out := e :: !out in
  let net = ref net in
  let row_ptr, col = Graph.unsafe_csr d.topology in
  let n = Graph.n d.topology in
  for u = 0 to n - 1 do
    let rec state () =
      match !net with
      | ((Crash { vertex } | Went_byzantine { vertex } | Corrupt { vertex })
         as e)
        :: tl
        when vertex = u ->
          emit e;
          net := tl;
          state ()
      | _ -> ()
    in
    state ();
    let bits = d.payload_bits.(u) in
    for j = row_ptr.(u) to row_ptr.(u + 1) - 1 do
      let w = col.(j) in
      match !net with
      | ((Drop { src; dst } | Forge { src; dst; _ }) as e) :: tl
        when src = u && dst = w ->
          emit e;
          net := tl
      | (Flip { src; dst; _ } as e) :: tl when src = u && dst = w ->
          emit e;
          net := tl;
          emit (Send { src = u; dst = w; bits })
      | _ -> if bits >= 0 then emit (Send { src = u; dst = w; bits })
    done
  done;
  List.iter emit !net;
  let rejections = ref r.rejections in
  for v = 0 to n - 1 do
    if d.payload_bits.(v) >= 0 then
      match !rejections with
      | (w, reason) :: tl when w = v ->
          emit (Verdict { vertex = v; accepted = false; reason });
          rejections := tl
      | _ -> emit (Verdict { vertex = v; accepted = true; reason = "" })
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let event_json ev =
  let tagged ty fields = Json.Obj (("type", Json.Str ty) :: fields) in
  let at_vertex ty v = tagged ty [ ("vertex", Json.int v) ] in
  let link ty src dst rest =
    tagged ty ([ ("src", Json.int src); ("dst", Json.int dst) ] @ rest)
  in
  let edge ty u v = tagged ty [ ("u", Json.int u); ("v", Json.int v) ] in
  match ev with
  | Crash { vertex = v } -> at_vertex "crash" v
  | Went_byzantine { vertex = v } -> at_vertex "byzantine" v
  | Corrupt { vertex = v } -> at_vertex "corrupt" v
  | Send { src; dst; bits } -> link "send" src dst [ ("bits", Json.int bits) ]
  | Drop { src; dst } -> link "drop" src dst []
  | Flip { src; dst; bit } -> link "flip" src dst [ ("bit", Json.int bit) ]
  | Forge { src; dst; bits } -> link "forge" src dst [ ("bits", Json.int bits) ]
  | Edge_added { u; v } -> edge "edge_add" u v
  | Edge_removed { u; v } -> edge "edge_del" u v
  | Recover { vertex = v } -> at_vertex "recover" v
  | Verdict { vertex; accepted; reason } ->
      tagged "verdict"
        ([ ("vertex", Json.int vertex); ("accepted", Json.Bool accepted) ]
        @ if accepted then [] else [ ("reason", Json.Str reason) ])

let round_json r =
  Json.Obj
    [
      ("round", Json.int r.round);
      ("wire_bits", Json.int r.wire_bits);
      ("verdicts_rendered", Json.int r.verdicts_rendered);
      ( "rejections",
        Json.Arr
          (List.map
             (fun (v, reason) ->
               Json.Obj [ ("vertex", Json.int v); ("reason", Json.Str reason) ])
             r.rejections) );
      ("events", Json.Arr (List.map event_json (all_events r)));
    ]

let to_json t =
  Json.render
    (Json.Obj
       [
         ("scheme", Json.Str t.scheme);
         ("n", Json.int t.n);
         ("seed", Json.int t.seed);
         ("plan", Json.Str t.plan);
         ("rounds", Json.Arr (List.map round_json t.rounds));
       ])

(* ------------------------------------------------------------------ *)
(* Human-readable summary                                              *)
(* ------------------------------------------------------------------ *)

let pp_summary ppf t =
  Format.fprintf ppf "scheme %s, n=%d, seed=%d, plan=%s@." t.scheme t.n t.seed
    t.plan;
  List.iter
    (fun r ->
      let count f = List.length (List.filter f r.events) in
      let edge_edits =
        count (function Edge_added _ | Edge_removed _ -> true | _ -> false)
      in
      let recovered = count (function Recover _ -> true | _ -> false) in
      Format.fprintf ppf
        "round %2d: %4d sent (%d bits), %d dropped, %d flipped, %d forged, %d \
         corrupted, %d crashed; %d verdicts, %d rejecting"
        r.round r.deliveries.sent r.wire_bits
        (count (function Drop _ -> true | _ -> false))
        (count (function Flip _ -> true | _ -> false))
        (count (function Forge _ -> true | _ -> false))
        (count (function Corrupt _ -> true | _ -> false))
        (count (function Crash _ -> true | _ -> false))
        r.verdicts_rendered
        (List.length r.rejections);
      if edge_edits > 0 then
        Format.fprintf ppf "; %d edge edit%s" edge_edits
          (if edge_edits = 1 then "" else "s");
      if recovered > 0 then Format.fprintf ppf "; %d recovered" recovered;
      Format.fprintf ppf "@.")
    t.rounds;
  let m = metrics t in
  (match (m.detected_at, m.first_corruption) with
  | Some d, Some c -> (
      match detection_latency m with
      | Some l ->
          Format.fprintf ppf
            "detection: first rejection in round %d (first fault in round %d, \
             latency %d round%s)@."
            d c l
            (if l = 1 then "" else "s")
      | None ->
          Format.fprintf ppf
            "detection: first rejection in round %d, before the first fault \
             (round %d)@."
            d c)
  | Some d, None ->
      Format.fprintf ppf "detection: first rejection in round %d@." d
  | None, Some c ->
      Format.fprintf ppf
        "detection: none (first fault in round %d went undetected)@." c
  | None, None -> Format.fprintf ppf "detection: nothing to detect@.");
  Format.fprintf ppf
    "totals: %d rounds, %d bits on the wire, %d corrupted certs, %d crashed, \
     %d byzantine, %d edges added, %d edges removed, %d recovered certs, %d \
     rejecting verdicts@."
    m.rounds m.wire_bits m.certs_corrupted m.crashed m.byzantine m.edges_added
    m.edges_removed m.certs_recovered m.rejecting_verdicts
