(* Region-scoped re-certification for the self-healing runtime
   (DESIGN §5.9).

   After churn or corruption, the runtime knows a seed set of suspect
   vertices (rejecting verifiers, edit endpoints).  Correct
   certificates for most schemes are global objects (spanning-tree
   distances, elimination-forest ancestries), but they only need to be
   {e recomputed} where the topology or damage actually reaches: the
   union of connected components containing a seed.  When that region
   is a strict subset of the graph, the prover runs on the induced
   sub-instance — with the original ids, labels and the parent's
   id-encoding width, so the certificates are bit-compatible — and the
   spliced assignment is checked by one early-exit [Scheme.run] on the
   full instance.  Any failure of the scoped path (prover declines or
   raises, or the splice does not verify — e.g. a model-based prover
   that cannot be restricted to a sub-instance) falls back to one full
   prover run.  [None] only when the full prover itself declines: the
   current topology is a no-instance and no certificate assignment can
   heal it. *)

type outcome = {
  certs : Bitstring.t array;  (** full assignment, [n] entries *)
  changed : int list;  (** vertices whose certificate differs, ascending *)
  scoped : bool;  (** true if the region prover sufficed *)
}

(* Union of components containing a seed, as a mask — multi-source
   BFS over a flat int queue, same shape as Graph.bfs_tree. *)
let region_mask graph seeds =
  let n = Graph.n graph in
  let reached = Array.make n false in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  List.iter
    (fun s ->
      if not reached.(s) then begin
        reached.(s) <- true;
        queue.(!tail) <- s;
        incr tail
      end)
    seeds;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Graph.iter_neighbors graph u (fun v ->
        if not reached.(v) then begin
          reached.(v) <- true;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  (reached, !tail)

let prove_contained scheme inst =
  match scheme.Scheme.prover inst with
  | certs -> certs
  | exception e when not (Fatal.is_fatal e) -> None

let recertify (scheme : Scheme.t) inst ~dirty ~old =
  let n = Instance.n inst in
  let graph = inst.Instance.graph in
  if Array.length old <> n then
    invalid_arg "Recert.recertify: certificate count does not match";
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Recert.recertify: seed vertex %d out of [0,%d)" v n))
    dirty;
  let full () =
    Option.map
      (fun certs -> (Scheme.intern scheme certs, false))
      (prove_contained scheme inst)
  in
  let attempt =
    if dirty = [] then Some (Array.copy old, true)
    else begin
      let reached, count = region_mask graph dirty in
      if count >= n then full ()
      else begin
        let region = ref [] in
        for v = n - 1 downto 0 do
          if reached.(v) then region := v :: !region
        done;
        let sub, back = Graph.induced graph !region in
        let scoped =
          match
            Instance.make
              ~labels:(Array.map (fun v -> inst.Instance.labels.(v)) back)
              ~ids:(Array.map (fun v -> inst.Instance.ids.(v)) back)
              ~id_bits:inst.Instance.id_bits sub
          with
          | sub_inst -> (
              match prove_contained scheme sub_inst with
              | Some sub_certs
                when Array.length sub_certs = Array.length back ->
                  let sub_certs = Scheme.intern scheme sub_certs in
                  let certs = Array.copy old in
                  Array.iteri (fun i v -> certs.(v) <- sub_certs.(i)) back;
                  (* The region prover never saw the rest of the graph;
                     accept its certificates only if the whole spliced
                     assignment verifies.  Schemes whose certificates
                     encode genuinely global structure fail here and
                     take the full-prover path. *)
                  if (Scheme.run ~early_exit:true scheme inst certs).accepted
                  then Some (certs, true)
                  else None
              | _ -> None)
          | exception e when not (Fatal.is_fatal e) -> None
        in
        match scoped with Some _ -> scoped | None -> full ()
      end
    end
  in
  match attempt with
  | None -> None
  | Some (certs, scoped) ->
      let changed = ref [] in
      for v = n - 1 downto 0 do
        if not (Bitstring.equal certs.(v) old.(v)) then changed := v :: !changed
      done;
      Some { certs; changed = !changed; scoped }
