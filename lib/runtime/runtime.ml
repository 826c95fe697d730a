type result = {
  outcome : Scheme.outcome;
  per_round : Scheme.outcome array;
  detected_at : int option;
  quiesced_at : int option;
  trace : Trace.t;
  checked : int list array;
  reverified : int list array;
  adopted : int list array;
  final_graph : Graph.t;
  final_certs : Bitstring.t array;
}

let chunk_factor = 8

(* Contain scheme-level failures as rejections — a vertex whose whole
   neighborhood crashed or whose certificate was mangled must never
   take the simulator down — but let fatal/programming-error
   exceptions (OOM, stack overflow, tripped assertions) escape: those
   mean the process is broken, not that a fault was detected.  [check]
   is the execution's Network.checker, compiled or interpreted; both
   run the same lowering and raise the same exception, so the
   rejection text is the same either way. *)
let run_verifier check plane v =
  match check plane v with
  | verdict -> verdict
  | exception e when not (Fatal.is_fatal e) ->
      Scheme.Reject ("verifier raised: " ^ Printexc.to_string e)

(* Full-sweep verification: every alive honest vertex checks its row
   of the message plane.  Verdicts come back in ascending vertex order
   (per-chunk downto + cons, chunks ascending), matching Scheme.run's
   rejection order. *)
let verify_round ~pool ~nodes ~plane check =
  let n = Array.length nodes in
  let chunks = max 1 (min n (Pool.size pool * chunk_factor)) in
  let per_chunk =
    Pool.map_chunks pool ~chunks (fun c ->
        let lo = c * n / chunks and hi = (c + 1) * n / chunks in
        let out = ref [] in
        for v = hi - 1 downto lo do
          if nodes.(v).Node.status = Node.Alive then
            out := (v, run_verifier check plane v) :: !out
        done;
        !out)
  in
  List.concat (Array.to_list per_chunk)

(* Incremental verification: the dirty-set propagator (Vcache) names
   the candidates whose view may have changed; every alive one runs the
   verifier.  Everything else reuses its cached verdict, so the
   rejections and the verdict count — and hence outcome and trace — are
   identical to the full sweep's, per-round and byte for byte.  Scopes
   of this round's events (topology edits included) are closed over the
   plane's topology, the post-edit one. *)
let verify_round_incremental ~pool ~nodes ~plane ~cache ~first_round ~events
    check =
  let graph = Network.graph plane in
  let cands =
    Array.of_list (Vcache.candidates cache ~graph ~first_round events)
  in
  let k = Array.length cands in
  if k > 0 then begin
    let chunks = max 1 (min k (Pool.size pool * chunk_factor)) in
    ignore
      (Pool.map_chunks pool ~chunks (fun c ->
           let lo = c * k / chunks and hi = (c + 1) * k / chunks in
           for i = lo to hi - 1 do
             let v = cands.(i) in
             if nodes.(v).Node.status <> Node.Alive then Vcache.skip cache v
             else Vcache.store cache v (run_verifier check plane v)
           done));
  end;
  let rejections = ref [] and rendered = ref 0 in
  for v = Array.length nodes - 1 downto 0 do
    if nodes.(v).Node.status = Node.Alive then begin
      incr rendered;
      match Vcache.verdict cache v with
      | Some (Scheme.Reject reason) -> rejections := (v, reason) :: !rejections
      | Some Scheme.Accept -> ()
      | None -> assert false (* alive ⇒ verified in round 1 *)
    end
  done;
  Vcache.update_carry cache ~graph events;
  let cands = Array.to_list cands in
  let reverified =
    List.filter (fun v -> nodes.(v).Node.status = Node.Alive) cands
  in
  (!rejections, !rendered, cands, reverified)

(* Everything the runtime records is deterministic given the seed: the
   fault plan draws from Rng streams keyed by (round, vertex) — plus
   one dedicated per-round topology stream, consumed sequentially —
   so event lists, and hence these counts, including the incremental
   layer's candidate and re-verification counts, are identical across
   job counts.  [fault_kind] indexes the per-kind fault counters. *)
let fault_counters =
  [|
    "runtime.fault.crash";
    "runtime.fault.byzantine";
    "runtime.fault.corrupt";
    "runtime.fault.drop";
    "runtime.fault.flip";
    "runtime.fault.forge";
    "runtime.churn.edge_added";
    "runtime.churn.edge_removed";
  |]

let fault_kind = function
  | Trace.Crash _ -> 0
  | Trace.Went_byzantine _ -> 1
  | Trace.Corrupt _ -> 2
  | Trace.Drop _ -> 3
  | Trace.Flip _ -> 4
  | Trace.Forge _ -> 5
  | Trace.Edge_added _ -> 6
  | Trace.Edge_removed _ -> 7
  | Trace.Send _ | Trace.Verdict _ | Trace.Recover _ -> -1

(* The instruments, resolved once: registration takes the registry
   mutex and a table lookup, which used to be paid per trace event. *)
type instruments = {
  rounds_c : Metrics.counter;
  wire_h : Metrics.histogram;
  rejections_c : Metrics.counter;
  reverified_c : Metrics.counter;
  cached_c : Metrics.counter;
  sent_c : Metrics.counter;
  recovered_c : Metrics.counter;
  faults_c : Metrics.counter array;
  latency_h : unit -> Metrics.histogram;
      (* registered on the first detection, so a snapshot of runs that
         never detect has no latency histogram *)
}

(* Detection latency in rounds, small and linear-ish: simulations run
   single-digit round counts, where power-of-two buckets would lump
   everything into two cells. *)
let latency_bounds = [| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 |]

let instruments =
  Once.make (fun () ->
    {
      rounds_c = Metrics.counter "runtime.rounds";
      wire_h = Metrics.histogram "runtime.round_wire_bits";
      rejections_c = Metrics.counter "runtime.rejections";
      reverified_c = Metrics.counter "runtime.vertices_reverified";
      cached_c = Metrics.counter "runtime.verdicts_cached";
      sent_c = Metrics.counter "runtime.messages_sent";
      recovered_c = Metrics.counter "runtime.certs_recovered";
      faults_c = Array.map (fun name -> Metrics.counter name) fault_counters;
      latency_h =
        Once.make (fun () ->
            Metrics.histogram ~bounds:latency_bounds
              "runtime.detection_latency_rounds");
    })

(* [events] are the round's heap events; honest deliveries arrive as
   one count. *)
let record_round ~wire_bits ~sent ~events ~rejections ~reverified ~cached =
  if Metrics.is_enabled () then begin
    let m = instruments () in
    Metrics.incr m.rounds_c;
    Metrics.observe m.wire_h wire_bits;
    Metrics.add m.rejections_c (List.length rejections);
    Metrics.add m.reverified_c reverified;
    Metrics.add m.cached_c cached;
    Metrics.add m.sent_c sent;
    List.iter
      (fun e ->
        match e with
        | Trace.Recover _ -> Metrics.incr m.recovered_c
        | _ ->
            let k = fault_kind e in
            if k >= 0 then Metrics.incr m.faults_c.(k))
      events
  end

let record_trace trace =
  if Metrics.is_enabled () then
    match Trace.detection_latency (Trace.metrics trace) with
    | Some l -> Metrics.observe ((instruments ()).latency_h ()) l
    | None -> ()

let validate_plan ~n (plan : Fault.t) =
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf
             "Runtime.execute: crashed vertex %d out of [0,%d) for this \
              instance"
             v n))
    plan.Fault.crashed;
  List.iter
    (fun (e : Fault.edit) ->
      if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n then
        invalid_arg
          (Printf.sprintf
             "Runtime.execute: edit %d-%d out of [0,%d) for this instance" e.u
             e.v n))
    plan.Fault.edits

(* Traces render the seed as a JSON number, a double: past 2^53 it
   would name a different run. *)
let max_seed = 1 lsl 53

let t_execute = Metrics.timer "runtime.execute"

let execute ?pool ?jobs ?(plan = Fault.none) ?(rounds = 1) ?(seed = 0)
    ?(incremental = true) ?(recover = false) scheme inst certs =
  if rounds < 1 then invalid_arg "Runtime.execute: rounds must be >= 1";
  if seed > max_seed || seed < -max_seed then
    invalid_arg "Runtime.execute: seed must be within [-2^53, 2^53]";
  if Array.length certs <> Instance.n inst then
    invalid_arg "Runtime.execute: certificate count does not match the instance";
  validate_plan ~n:(Instance.n inst) plan;
  Pool.with_pool ?pool ?jobs (fun pool ->
      Tracer.with_slice t_execute @@ fun () ->
      (* Scheme.intern dedupes a boxed lowering's certificates, so
         equal labels are one value and neighbour-agreement checks on
         them are pointer-fast, and passes a plane lowering's per-vertex
         certificates through.  Wire-bit accounting only reads
         lengths, so it is unaffected. *)
      let nodes = Node.boot inst (Scheme.intern scheme certs) in
      (* Compiled row checks, or the interpreted oracle with
         compilation globally off (Vcompile.set_enabled); verdicts are
         identical either way. *)
      let check = Network.checker scheme inst nodes in
      let n = Array.length nodes in
      let cache = if incremental then Some (Vcache.create n) else None in
      let rng = Rng.make seed in
      let round_streams = Rng.split rng rounds in
      let delta = Graph.Delta.create inst.Instance.graph in
      (* Committed-CSR cache: every round's message plane, recovery and
         the final state need a clean CSR; rebuild only when edits
         happened since the last commit. *)
      let edit_ops = ref 0 in
      let committed = ref inst.Instance.graph in
      let committed_ops = ref 0 in
      let commit_current () =
        if !committed_ops <> !edit_ops then begin
          committed := Graph.Delta.commit delta;
          committed_ops := !edit_ops
        end;
        !committed
      in
      (* The message plane, re-laid out only when the committed
         topology changed. *)
      let plane = ref (Network.layout inst.Instance.graph) in
      (* Self-healing state.  [pending_dirty] accumulates suspect seeds
         (edit endpoints, rejecting vertices) since the last recovery;
         a recovery is attempted when the previous round rejected and
         something actually happened since the last attempt (otherwise
         re-proving would produce the same certificates again — e.g.
         rejections that persist because their cause is a crashed
         neighbor no prover can heal). *)
      let pending_dirty = ref [] in
      let need_recovery = ref false in
      let fault_events_total = ref 0 in
      let attempted_at = ref (-1) in
      let logs = ref [] in
      let outcomes = ref [] in
      let checked = Array.make rounds [] in
      let reverified = Array.make rounds [] in
      let adopted = Array.make rounds [] in
      for r = 1 to rounds do
        let active = r <= plan.Fault.horizon in
        let streams = Rng.split round_streams.(r - 1) (n + 1) in
        (* 1. Recovery: respond to the previous round's detection on
           the topology as committed at the start of this round. *)
        let recover_events =
          if recover && !need_recovery && !fault_events_total > !attempted_at
          then begin
            attempted_at := !fault_events_total;
            need_recovery := false;
            let g = commit_current () in
            let inst_now =
              Instance.make ~labels:inst.Instance.labels
                ~ids:inst.Instance.ids ~id_bits:inst.Instance.id_bits g
            in
            let old = Array.map (fun nd -> nd.Node.cert) nodes in
            let seeds = List.sort_uniq Int.compare !pending_dirty in
            match Recert.recertify scheme inst_now ~dirty:seeds ~old with
            | Some o ->
                pending_dirty := [];
                let adopters =
                  List.filter
                    (fun v -> nodes.(v).Node.status = Node.Alive)
                    o.Recert.changed
                in
                List.iter
                  (fun v -> nodes.(v).Node.cert <- o.Recert.certs.(v))
                  adopters;
                adopted.(r - 1) <- adopters;
                if Tracer.is_enabled () && adopters <> [] then
                  Tracer.instant
                    ~args:
                      [
                        ("round", r);
                        ("adopted", List.length adopters);
                        ("scoped", Bool.to_int o.Recert.scoped);
                      ]
                    "runtime.recovery";
                List.map (fun v -> Trace.Recover { vertex = v }) adopters
            | None ->
                (* no-instance: nothing to adopt, and pointless to
                   retry until the topology changes again *)
                []
          end
          else begin
            need_recovery := false;
            []
          end
        in
        (* 2. Topology edits: the deterministic schedule, then random
           churn, drawn sequentially from the round's dedicated
           topology stream (jobs-invariant by construction). *)
        let topo_events = ref [] in
        let apply_edit ~add u v =
          let changed =
            if add then Graph.Delta.add_edge delta u v
            else Graph.Delta.remove_edge delta u v
          in
          if changed then begin
            incr edit_ops;
            let lo = min u v and hi = max u v in
            pending_dirty := lo :: hi :: !pending_dirty;
            topo_events :=
              (if add then Trace.Edge_added { u = lo; v = hi }
               else Trace.Edge_removed { u = lo; v = hi })
              :: !topo_events
          end
        in
        List.iter
          (fun (e : Fault.edit) ->
            if e.round = r then apply_edit ~add:e.add e.u e.v)
          plan.Fault.edits;
        if active && (plan.Fault.deledge > 0. || plan.Fault.addedge > 0.)
        then begin
          let tstream = streams.(n) in
          for v = 0 to n - 1 do
            if
              plan.Fault.deledge > 0. && Rng.chance tstream plan.Fault.deledge
            then begin
              let d = Graph.Delta.degree delta v in
              if d > 0 then begin
                let target = Rng.int tstream d in
                let w = ref (-1) in
                let i = ref 0 in
                Graph.Delta.iter_neighbors delta v (fun x ->
                    if !i = target then w := x;
                    incr i);
                apply_edit ~add:false v !w
              end
            end;
            if
              plan.Fault.addedge > 0. && n > 1
              && Rng.chance tstream plan.Fault.addedge
            then begin
              (* bounded retries: near-clique vertices may fail to
                 find a non-neighbor, and that is fine *)
              let rec attempt k =
                if k > 0 then begin
                  let w = Rng.int tstream (n - 1) in
                  let w = if w >= v then w + 1 else w in
                  if Graph.Delta.mem_edge delta v w then attempt (k - 1)
                  else apply_edit ~add:true v w
                end
              in
              attempt 8
            end
          done
        end;
        let pre_events = recover_events @ List.rev !topo_events in
        (* 3. Exchange on the committed topology; 4. verify. *)
        let g = commit_current () in
        if g != Network.graph !plane then plane := Network.layout g;
        let plane = !plane in
        let net =
          Network.exchange ~pool ~plan ~first_round:(r = 1) ~active ~plane
            ~nodes ~streams
        in
        let events = pre_events @ net.Network.events in
        let rejections, verdicts_rendered, round_checked, round_reverified =
          match cache with
          | Some cache ->
              verify_round_incremental ~pool ~nodes ~plane ~cache
                ~first_round:(r = 1) ~events check
          | None ->
              let verdicts = verify_round ~pool ~nodes ~plane check in
              let alive = List.map fst verdicts in
              let rejections =
                List.filter_map
                  (function v, Scheme.Reject why -> Some (v, why) | _ -> None)
                  verdicts
              in
              (rejections, List.length verdicts, alive, alive)
        in
        checked.(r - 1) <- round_checked;
        reverified.(r - 1) <- round_reverified;
        let max_bits = ref 0 in
        Array.iter
          (fun (nd : Node.t) ->
            let len = Bitstring.length nd.Node.cert in
            if len > !max_bits then max_bits := len)
          nodes;
        let max_bits = !max_bits in
        let wire_bits = net.Network.wire_bits in
        let round_faults =
          List.length (List.filter (fun e -> fault_kind e >= 0) events)
        in
        fault_events_total := !fault_events_total + round_faults;
        if rejections <> [] then begin
          need_recovery := true;
          List.iter
            (fun (v, _) -> pending_dirty := v :: !pending_dirty)
            rejections
        end;
        record_round ~wire_bits ~sent:net.Network.deliveries.Trace.sent ~events
          ~rejections
          ~reverified:(List.length round_reverified)
          ~cached:(verdicts_rendered - List.length round_reverified);
        if Tracer.is_enabled () then begin
          Tracer.instant
            ~args:
              [
                ("round", r);
                ("wire_bits", wire_bits);
                ("rejections", List.length rejections);
              ]
            "runtime.round";
          if round_faults > 0 then
            Tracer.instant
              ~args:[ ("round", r); ("count", round_faults) ]
              "runtime.fault"
        end;
        logs :=
          {
            Trace.round = r;
            events;
            deliveries = net.Network.deliveries;
            wire_bits;
            rejections;
            verdicts_rendered;
          }
          :: !logs;
        (* Vacuous acceptance is not acceptance: a round in which no
           vertex rendered a verdict (everyone crashed or Byzantine)
           did not certify anything. *)
        outcomes :=
          {
            Scheme.accepted = rejections = [] && verdicts_rendered > 0;
            rejections;
            max_bits;
          }
          :: !outcomes
      done;
      let per_round = Array.of_list (List.rev !outcomes) in
      let round_logs = List.rev !logs in
      (* Detection is an explicit rejecting verdict — a zero-verdict
         round is neither acceptance nor detection. *)
      let detected_at =
        let found = ref None in
        Array.iteri
          (fun i (o : Scheme.outcome) ->
            if !found = None && o.Scheme.rejections <> [] then
              found := Some (i + 1))
          per_round;
        !found
      in
      let quiesced_at =
        let last_fault =
          List.fold_left
            (fun acc (log : Trace.round_log) ->
              if List.exists Trace.is_fault log.Trace.events then
                Some log.Trace.round
              else acc)
            None round_logs
        in
        let lo = match last_fault with None -> 1 | Some l -> l + 1 in
        let first_stable = ref (rounds + 1) in
        (try
           for i = rounds - 1 downto 0 do
             if per_round.(i).Scheme.accepted then first_stable := i + 1
             else raise Exit
           done
         with Exit -> ());
        let q = max lo !first_stable in
        if q <= rounds then Some q else None
      in
      let trace =
        {
          Trace.scheme = scheme.Scheme.name;
          n;
          seed;
          plan = Fault.to_string plan;
          rounds = round_logs;
        }
      in
      record_trace trace;
      (match detected_at with
      | Some r when Tracer.is_enabled () ->
          Tracer.instant ~args:[ ("round", r) ] "runtime.detected"
      | _ -> ());
      (match quiesced_at with
      | Some r when Tracer.is_enabled () ->
          Tracer.instant ~args:[ ("round", r) ] "runtime.quiesced"
      | _ -> ());
      Logger.debug
        ~fields:
          [
            ("scheme", scheme.Scheme.name);
            ("rounds", string_of_int rounds);
            ("incremental", string_of_bool incremental);
            ("recover", string_of_bool recover);
            ( "detected_at",
              match detected_at with
              | None -> "never"
              | Some r -> string_of_int r );
            ( "quiesced_at",
              match quiesced_at with
              | None -> "never"
              | Some r -> string_of_int r );
          ]
        "runtime execute done";
      {
        outcome = per_round.(rounds - 1);
        per_round;
        detected_at;
        quiesced_at;
        trace;
        checked;
        reverified;
        adopted;
        final_graph = commit_current ();
        final_certs = Array.map (fun nd -> nd.Node.cert) nodes;
      })
