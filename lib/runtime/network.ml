type t = {
  graph : Graph.t;
  row_ptr : int array;
  col : int array;
  twin : int array;  (* twin.(j): the slot of slot j's reverse edge *)
  slots : Bitstring.t array;  (* receiver-aligned payloads *)
}

(* Marks a slot that received nothing.  Compared physically, and never
   handed out, so no real payload — not even an empty one — is it. *)
let silent = Bitstring.of_bools []

(* Rows are sorted, so walking the senders u in ascending order visits
   the entries of each row w in ascending order too: the next unfilled
   entry of row w is always the one holding u. *)
let layout graph =
  let row_ptr, col = Graph.unsafe_csr graph in
  let n = Graph.n graph in
  let next = Array.sub row_ptr 0 n in
  let twin = Array.make (Array.length col) 0 in
  for u = 0 to n - 1 do
    for j = row_ptr.(u) to row_ptr.(u + 1) - 1 do
      let w = col.(j) in
      twin.(j) <- next.(w);
      next.(w) <- next.(w) + 1
    done
  done;
  { graph; row_ptr; col; twin; slots = Array.make (Array.length col) silent }

let graph t = t.graph

type round = {
  events : Trace.event list;
  deliveries : Trace.deliveries;
  wire_bits : int;
}

(* The Attack.corruptions-style persistent mutation: flip one bit or
   replace the certificate with fresh random bits of the same length.
   Empty certificates have no bits to corrupt and are left alone. *)
let mutate_cert stream cert =
  let len = Bitstring.length cert in
  if len = 0 then cert
  else if Rng.int stream 2 = 0 then Bitstring.flip cert (Rng.int stream len)
  else Rng.bits stream len

let push events e = events := e :: !events

(* One vertex's sender step.  Reads/writes only [node], its outgoing
   slots and [lens.(u)], and only draws from [stream]; see the .mli
   determinism contract.  Fault events go onto the chunk's reversed
   [events]; honest deliveries and delivered bits onto its counters.
   [active] is false past the plan's horizon: every random number is
   still drawn (the stream schedule is part of the trace contract) but
   no rate-based fault fires — Byzantine vertices keep forging, since
   their status is state, not a per-round draw. *)
let sender_step ~plan ~first_round ~active ~crash_mask ~plane ~lens
    ~(node : Node.t) ~stream ~events ~sent ~bits =
  let u = node.Node.vertex in
  if first_round then begin
    (match crash_mask with
    | Some mask when node.status = Node.Alive && mask.(u) ->
        node.status <- Node.Crashed;
        push events (Trace.Crash { vertex = u })
    | _ -> ());
    let byz = Rng.chance stream plan.Fault.byzantine in
    if active && node.status = Node.Alive && byz then begin
      node.status <- Node.Byzantine;
      push events (Trace.Went_byzantine { vertex = u })
    end
  end;
  let crash = Rng.chance stream plan.Fault.crash in
  if active && node.status <> Node.Crashed && crash then begin
    node.status <- Node.Crashed;
    push events (Trace.Crash { vertex = u })
  end;
  let corrupt = Rng.chance stream plan.Fault.corrupt in
  if active && node.status = Node.Alive && corrupt then begin
    node.cert <- mutate_cert stream node.cert;
    push events (Trace.Corrupt { vertex = u })
  end;
  let { row_ptr; col; twin; slots; _ } = plane in
  let lo = row_ptr.(u) and hi = row_ptr.(u + 1) in
  if node.status = Node.Crashed then begin
    lens.(u) <- -1;
    for j = lo to hi - 1 do
      slots.(twin.(j)) <- silent
    done
  end
  else begin
    let forged = node.status = Node.Byzantine in
    lens.(u) <- (if forged then -1 else Bitstring.length node.cert);
    for j = lo to hi - 1 do
      let w = col.(j) in
      let drop = Rng.chance stream plan.Fault.drop in
      let flip = Rng.chance stream plan.Fault.flip in
      let payload =
        if forged then
          Rng.bits stream (Rng.int stream (plan.Fault.byz_bits + 1))
        else node.cert
      in
      if active && drop then begin
        push events (Trace.Drop { src = u; dst = w });
        slots.(twin.(j)) <- silent
      end
      else begin
        let payload =
          if
            active
            && (not forged)
            && flip
            && Bitstring.length payload > 0
          then begin
            let bit = Rng.int stream (Bitstring.length payload) in
            push events (Trace.Flip { src = u; dst = w; bit });
            Bitstring.flip payload bit
          end
          else payload
        in
        let len = Bitstring.length payload in
        if forged then
          push events (Trace.Forge { src = u; dst = w; bits = len })
        else incr sent;
        bits := !bits + len;
        slots.(twin.(j)) <- payload
      end
    done
  end

let chunk_factor = 8

let exchange ~pool ~plan ~first_round ~active ~plane ~nodes ~streams =
  let n = Array.length nodes in
  (* The deterministic crash list becomes a bool mask once, instead of
     a List.mem per vertex (O(n·|crashed|) over the whole round).
     Runtime.execute has already range-checked the ids. *)
  let crash_mask =
    if first_round && plan.Fault.crashed <> [] then begin
      let mask = Array.make n false in
      List.iter (fun v -> mask.(v) <- true) plan.Fault.crashed;
      Some mask
    end
    else None
  in
  let lens = Array.make n (-1) in
  let chunks = max 1 (min n (Pool.size pool * chunk_factor)) in
  let per_chunk =
    Pool.map_chunks pool ~chunks (fun c ->
        let lo = c * n / chunks and hi = (c + 1) * n / chunks in
        let events = ref [] and sent = ref 0 and bits = ref 0 in
        for v = lo to hi - 1 do
          sender_step ~plan ~first_round ~active ~crash_mask ~plane ~lens
            ~node:nodes.(v) ~stream:streams.(v) ~events ~sent ~bits
        done;
        (List.rev !events, !sent, !bits))
  in
  let events = List.concat_map (fun (e, _, _) -> e) (Array.to_list per_chunk) in
  let sent = Array.fold_left (fun a (_, s, _) -> a + s) 0 per_chunk in
  let wire_bits = Array.fold_left (fun a (_, _, b) -> a + b) 0 per_chunk in
  {
    events;
    deliveries = { Trace.topology = plane.graph; payload_bits = lens; sent };
    wire_bits;
  }

let view plane (inst : Instance.t) nodes v =
  let node = nodes.(v) in
  (* Cons from the row's end: the list comes out in vertex order, which
     is id order whenever ids are monotone in the vertex index. *)
  let nbrs = ref [] and sorted = ref true and next_id = ref max_int in
  for j = plane.row_ptr.(v + 1) - 1 downto plane.row_ptr.(v) do
    let payload = plane.slots.(j) in
    if payload != silent then begin
      let id = nodes.(plane.col.(j)).Node.id in
      if id > !next_id then sorted := false;
      next_id := id;
      nbrs := (id, payload) :: !nbrs
    end
  done;
  {
    Scheme.me = node.Node.id;
    id_bits = inst.Instance.id_bits;
    label = inst.Instance.labels.(v);
    cert = node.cert;
    nbrs =
      (if !sorted then !nbrs
       else List.sort (fun (a, _) (b, _) -> Int.compare a b) !nbrs);
  }

(* The compiled row check reads row [v] of the plane as the lowering's
   slices.  An honest payload is the sender's stored certificate itself
   (sender_step writes [node.cert]), so its decoded value comes from a
   per-vertex (certificate, decoded) slot revalidated with [==]: a
   vertex's certificate is decoded once per value it stores, not once
   per round per neighbor.  Only a flipped or forged payload — a fresh
   bitstring no vertex stores — is decoded on the spot.  A slot holds
   an immutable pair, so domains that refresh it concurrently can only
   overwrite a valid pair with another valid one, and decode is pure,
   so whichever pair a reader sees gives the same verdict.  The row
   comes in vertex order and is re-sorted by id only when it is not
   already sorted, with a stable insertion sort: the order [view]'s
   stable [List.sort] yields. *)
let checker (scheme : Scheme.t) (inst : Instance.t) (nodes : Node.t array) =
  if not (Vcompile.is_enabled ()) then fun plane v ->
    Scheme.verify scheme (view plane inst nodes v)
  else
    let (Scheme.Compiled l) = scheme.Scheme.lowering in
    let id_bits = inst.Instance.id_bits in
    let decoded = Array.make (Array.length nodes) None in
    let decode_stored u c =
      match decoded.(u) with
      | Some (c', d) when c' == c -> d
      | _ ->
          let d = l.Scheme.decode ~id_bits c in
          decoded.(u) <- Some (c, d);
          d
    in
    fun plane v ->
      let node = nodes.(v) in
      let mine = decode_stored v node.Node.cert in
      let lo = plane.row_ptr.(v) and hi = plane.row_ptr.(v + 1) in
      let ids = Array.make (hi - lo) 0 and decs = Array.make (hi - lo) mine in
      let deg = ref 0 and sorted = ref true in
      for j = lo to hi - 1 do
        let payload = plane.slots.(j) in
        if payload != silent then begin
          let u = plane.col.(j) in
          let sender = nodes.(u) in
          let id = sender.Node.id and k = !deg in
          if k > 0 && ids.(k - 1) > id then sorted := false;
          ids.(k) <- id;
          decs.(k) <-
            (if payload == sender.Node.cert then decode_stored u payload
             else l.Scheme.decode ~id_bits payload);
          deg := k + 1
        end
      done;
      let deg = !deg in
      if not !sorted then
        for i = 1 to deg - 1 do
          let ki = ids.(i) and di = decs.(i) in
          let j = ref (i - 1) in
          while !j >= 0 && ids.(!j) > ki do
            ids.(!j + 1) <- ids.(!j);
            decs.(!j + 1) <- decs.(!j);
            decr j
          done;
          ids.(!j + 1) <- ki;
          decs.(!j + 1) <- di
        done;
      l.Scheme.check ~id_bits ~me:node.Node.id ~label:inst.Instance.labels.(v)
        mine ~ids ~src:(Scheme.identity_src deg) ~decs ~lo:0 ~hi:deg
