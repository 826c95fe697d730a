(* Differential tests for topology churn and self-healing recovery.

   Four contracts from runtime.mli / graph.mli §Delta:

   - the {!Graph.Delta} overlay is indistinguishable from the clean
     CSR it commits to, under arbitrary interleaved edit sequences;
   - {e final-state equivalence}: for plans without message faults or
     crash/Byzantine kinds, the churned execution's last round renders
     exactly the verdicts a from-scratch [Scheme.run] renders on the
     committed final topology with the final stored certificates;
   - incremental verification stays {e drop-in exact} when the
     topology is being edited out from under it (trace bytes,
     quiescence, adoption lists);
   - churn + recovery is deterministic in the seed, never the job
     count. *)

let check = Alcotest.(check bool)

let pool1 = Pool.create ~jobs:1 ()
let pool8 = Pool.create ~jobs:8 ()
let () = at_exit (fun () -> List.iter Pool.shutdown [ pool1; pool8 ])

let outcome_equal = Test_engine.outcome_equal

let seed_arbitrary = QCheck.(int_bound 1_000_000)

(* ------------------------------------------------------------------ *)
(* Graph.Delta ≡ committed CSR on random edit sequences                 *)
(* ------------------------------------------------------------------ *)

(* Mirror every edit into a dense adjacency matrix and demand that the
   overlay's [degree], [mem_edge], [iter_neighbors] (ascending, no
   duplicates) and [commit] agree with it at every step boundary. *)
let qcheck_delta_matches_committed =
  QCheck.Test.make ~name:"Graph.Delta ≡ committed CSR under random edits"
    ~count:100 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let n = 2 + Rng.int rng 30 in
      let g = Gen.random_tree (Rng.make (seed + 1)) n in
      let d = Graph.Delta.create g in
      let adj = Array.make_matrix n n false in
      Graph.iter_edges g (fun u v ->
          adj.(u).(v) <- true;
          adj.(v).(u) <- true);
      let ok = ref true in
      let steps = Rng.int rng 60 in
      for _ = 1 to steps do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then
          if Rng.bool rng then begin
            let changed = Graph.Delta.add_edge d u v in
            if changed = adj.(u).(v) then ok := false;
            adj.(u).(v) <- true;
            adj.(v).(u) <- true
          end
          else begin
            let changed = Graph.Delta.remove_edge d u v in
            if changed <> adj.(u).(v) then ok := false;
            adj.(u).(v) <- false;
            adj.(v).(u) <- false
          end
      done;
      for u = 0 to n - 1 do
        let deg = ref 0 in
        for v = 0 to n - 1 do
          if adj.(u).(v) then incr deg;
          if Graph.Delta.mem_edge d u v <> adj.(u).(v) then ok := false
        done;
        if Graph.Delta.degree d u <> !deg then ok := false;
        let seen = ref [] in
        Graph.Delta.iter_neighbors d u (fun w -> seen := w :: !seen);
        let expect =
          List.filter (fun v -> adj.(u).(v)) (List.init n Fun.id)
        in
        if List.rev !seen <> expect then ok := false
      done;
      let committed = Graph.Delta.commit d in
      let fresh =
        Graph.of_iter ~n (fun f ->
            for u = 0 to n - 1 do
              for v = u + 1 to n - 1 do
                if adj.(u).(v) then f u v
              done
            done)
      in
      !ok && Graph.equal committed fresh)

(* ------------------------------------------------------------------ *)
(* Shared churn fixtures                                                *)
(* ------------------------------------------------------------------ *)

let mis_scheme () =
  Lcl.scheme_of_search Lcl.maximal_independent_set ~solve:(fun g ->
      Some (Lcl.greedy_mis g))

(* Schemes whose prover works on any churned topology, paired with the
   instance the run starts from. *)
let churn_families rng =
  let n = 8 + Rng.int rng 40 in
  let g = Gen.random_connected rng ~n ~extra_edges:(Rng.int rng n) in
  let inst = Instance.make g in
  [ (mis_scheme (), inst); (Spanning_tree.scheme (), inst) ]

(* Random plan from the final-state-equivalence fragment: corruption,
   rate churn, scheduled edits and a horizon — no message faults, no
   crashes, no Byzantine vertices. *)
let churn_plan_of rng n =
  let comps = ref [ Fault.corruption (Rng.float rng 0.1) ] in
  if Rng.bool rng then
    comps := Fault.edge_additions (Rng.float rng 0.08) :: !comps;
  if Rng.bool rng then
    comps := Fault.edge_deletions (Rng.float rng 0.08) :: !comps;
  for _ = 1 to Rng.int rng 4 do
    let u = Rng.int rng n in
    let v = (u + 1 + Rng.int rng (n - 1)) mod n in
    if u <> v then
      comps :=
        Fault.edit ~round:(1 + Rng.int rng 4) ~add:(Rng.bool rng) u v
        :: !comps
  done;
  if Rng.bool rng then comps := Fault.until (1 + Rng.int rng 4) :: !comps;
  List.fold_left Fault.union Fault.none !comps

(* ------------------------------------------------------------------ *)
(* Final-state equivalence                                              *)
(* ------------------------------------------------------------------ *)

let qcheck_final_state_equivalence =
  QCheck.Test.make
    ~name:"churned final round ≡ Scheme.run on committed final topology"
    ~count:40 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      List.for_all
        (fun (scheme, inst) ->
          let n = Instance.n inst in
          let plan = churn_plan_of rng n in
          let certs = Option.get (scheme.Scheme.prover inst) in
          let recover = Rng.bool rng in
          let r =
            Runtime.execute ~pool:pool8 ~plan ~rounds:(2 + Rng.int rng 4)
              ~seed ~recover scheme inst certs
          in
          let final_inst =
            Instance.make ~labels:inst.Instance.labels ~ids:inst.Instance.ids
              ~id_bits:inst.Instance.id_bits r.Runtime.final_graph
          in
          let fresh = Scheme.run scheme final_inst r.Runtime.final_certs in
          outcome_equal r.Runtime.outcome fresh)
        (churn_families rng))

(* ------------------------------------------------------------------ *)
(* Incremental ≡ full sweep under churn + recovery                      *)
(* ------------------------------------------------------------------ *)

let qcheck_incremental_exact_under_churn =
  QCheck.Test.make
    ~name:"incremental ≡ full sweep under churn + recovery (trace bytes)"
    ~count:40 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      List.for_all
        (fun (scheme, inst) ->
          let plan = churn_plan_of rng (Instance.n inst) in
          let certs = Option.get (scheme.Scheme.prover inst) in
          let run incremental =
            Runtime.execute ~pool:pool8 ~plan ~rounds:5 ~seed ~incremental
              ~recover:true scheme inst certs
          in
          let inc = run true and full = run false in
          Trace.to_json inc.Runtime.trace = Trace.to_json full.Runtime.trace
          && inc.Runtime.detected_at = full.Runtime.detected_at
          && inc.Runtime.quiesced_at = full.Runtime.quiesced_at
          && inc.Runtime.adopted = full.Runtime.adopted
          && Array.for_all2 outcome_equal inc.Runtime.per_round
               full.Runtime.per_round
          && Graph.equal inc.Runtime.final_graph full.Runtime.final_graph)
        (churn_families rng))

(* ------------------------------------------------------------------ *)
(* Jobs determinism under churn + recovery                              *)
(* ------------------------------------------------------------------ *)

let qcheck_jobs_determinism_under_churn =
  QCheck.Test.make
    ~name:"churn + recovery: trace byte-identical across --jobs 1 and 8"
    ~count:30 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      List.for_all
        (fun (scheme, inst) ->
          let plan = churn_plan_of rng (Instance.n inst) in
          let certs = Option.get (scheme.Scheme.prover inst) in
          let run pool =
            Runtime.execute ~pool ~plan ~rounds:4 ~seed ~recover:true scheme
              inst certs
          in
          let a = run pool1 and b = run pool8 in
          Trace.to_json a.Runtime.trace = Trace.to_json b.Runtime.trace
          && a.Runtime.quiesced_at = b.Runtime.quiesced_at
          && a.Runtime.adopted = b.Runtime.adopted
          && a.Runtime.checked = b.Runtime.checked
          && a.Runtime.reverified = b.Runtime.reverified)
        (churn_families rng))

(* ------------------------------------------------------------------ *)
(* End-to-end: a seeded churn storm detects, recovers and quiesces      *)
(* ------------------------------------------------------------------ *)

let test_recovery_reaches_quiescence () =
  let rng = Rng.make 11 in
  let inst =
    Instance.make (Gen.random_connected rng ~n:64 ~extra_edges:32)
  in
  let scheme = mis_scheme () in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let plan =
    List.fold_left Fault.union
      (Fault.edge_deletions 0.05)
      [ Fault.edge_additions 0.05; Fault.corruption 0.05; Fault.until 3 ]
  in
  let r =
    Runtime.execute ~pool:pool8 ~plan ~rounds:8 ~seed:7 ~recover:true scheme
      inst certs
  in
  let m = Trace.metrics r.Runtime.trace in
  check "churn actually happened" true
    (m.Trace.edges_added + m.Trace.edges_removed > 0);
  check "a fault was detected" true (r.Runtime.detected_at <> None);
  check "certificates were re-adopted" true
    (Array.exists (fun l -> l <> []) r.Runtime.adopted);
  (match r.Runtime.quiesced_at with
  | Some q ->
      check "quiesced after the horizon" true (q >= 1 && q <= 8);
      (* every round from quiescence on accepted with real verdicts *)
      List.iter
        (fun (log : Trace.round_log) ->
          if log.Trace.round >= q then begin
            check "no rejections past quiescence" true
              (log.Trace.rejections = []);
            check "verdicts rendered past quiescence" true
              (log.Trace.verdicts_rendered > 0)
          end)
        r.Runtime.trace.Trace.rounds
  | None -> Alcotest.fail "expected the execution to quiesce");
  (* and without recovery the same storm never settles *)
  let bare =
    Runtime.execute ~pool:pool8 ~plan ~rounds:8 ~seed:7 scheme inst certs
  in
  check "without recovery the damage persists" true
    (bare.Runtime.quiesced_at = None)

let suite =
  [
    ( "runtime-churn",
      [
        QCheck_alcotest.to_alcotest qcheck_delta_matches_committed;
        QCheck_alcotest.to_alcotest qcheck_final_state_equivalence;
        QCheck_alcotest.to_alcotest qcheck_incremental_exact_under_churn;
        QCheck_alcotest.to_alcotest qcheck_jobs_determinism_under_churn;
        Alcotest.test_case "churn storm: detect, recover, quiesce" `Quick
          test_recovery_reaches_quiescence;
      ] );
  ]
