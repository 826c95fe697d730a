(* Differential tests for the round-based distributed runtime.

   The simulator's two contracts (see runtime.mli) are checked as
   cross-executions: fault-free single-round [Runtime.execute] must be
   outcome-identical to the sequential reference [Scheme.run] on every
   registered scheme, and a faulty execution — outcome *and* trace,
   byte for byte — must depend on the seed only, never on the job
   count.  The fault machinery itself gets targeted unit tests
   (crash-isolation safety, plan parsing) and the attack near-miss
   surfacing is pinned here too, since the runtime CLI reuses it. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let pool1 = Pool.create ~jobs:1 ()
let pool8 = Pool.create ~jobs:8 ()
let () = at_exit (fun () -> List.iter Pool.shutdown [ pool1; pool8 ])

let outcome_equal = Test_engine.outcome_equal

let seed_arbitrary = QCheck.(int_bound 1_000_000)

(* Half prover certificates (covering the all-accept path), half random
   garbage (covering dense rejection). *)
let certs_of = Test_engine.certs_of

(* ------------------------------------------------------------------ *)
(* Fault-free runtime ≡ Scheme.run, for every registered scheme         *)
(* ------------------------------------------------------------------ *)

(* Each qcheck case runs the differential once per registry entry, so
   count 60 exercises 600 (scheme, instance, certs) triples. *)
let qcheck_fault_free_equals_run =
  QCheck.Test.make
    ~name:"fault-free execute ≡ Scheme.run (every registered scheme)"
    ~count:60 seed_arbitrary (fun seed ->
      List.for_all
        (fun e ->
          let rng = Rng.split (Rng.make seed) 2 in
          let inst = e.Registry.instance rng.(0) in
          let certs = certs_of rng.(1) e.Registry.scheme inst in
          let reference = Scheme.run e.Registry.scheme inst certs in
          let r = Runtime.execute ~pool:pool8 e.Registry.scheme inst certs in
          outcome_equal reference r.Runtime.outcome
          && Array.length r.Runtime.per_round = 1
          && r.Runtime.detected_at
             = (if reference.Scheme.accepted then None else Some 1))
        Registry.all)

(* Multi-round fault-free executions are stationary: nothing mutates
   state, so every round's outcome is the round-1 outcome. *)
let qcheck_fault_free_stationary =
  QCheck.Test.make ~name:"fault-free multi-round execution is stationary"
    ~count:60 seed_arbitrary (fun seed ->
      let e = List.nth Registry.all (seed mod List.length Registry.all) in
      let rng = Rng.split (Rng.make seed) 2 in
      let inst = e.Registry.instance rng.(0) in
      let certs = certs_of rng.(1) e.Registry.scheme inst in
      let reference = Scheme.run e.Registry.scheme inst certs in
      let r =
        Runtime.execute ~pool:pool8 ~rounds:4 e.Registry.scheme inst certs
      in
      Array.length r.Runtime.per_round = 4
      && Array.for_all (outcome_equal reference) r.Runtime.per_round)

(* ------------------------------------------------------------------ *)
(* Seed determinism: trace bytes are a function of the seed, not jobs   *)
(* ------------------------------------------------------------------ *)

let stress_plan =
  List.fold_left Fault.union (Fault.drops 0.15)
    [
      Fault.flips 0.15;
      Fault.corruption 0.1;
      Fault.crashes 0.05;
      Fault.byzantine ~bits:6 0.1;
    ]

let qcheck_jobs_determinism =
  QCheck.Test.make
    ~name:"faulty execution: trace byte-identical across --jobs 1 and 8"
    ~count:40 seed_arbitrary (fun seed ->
      let e = List.nth Registry.all (seed mod List.length Registry.all) in
      let rng = Rng.split (Rng.make seed) 2 in
      let inst = e.Registry.instance rng.(0) in
      let certs = certs_of rng.(1) e.Registry.scheme inst in
      let run pool =
        Runtime.execute ~pool ~plan:stress_plan ~rounds:3 ~seed
          e.Registry.scheme inst certs
      in
      let a = run pool1 and b = run pool8 in
      Trace.to_json a.Runtime.trace = Trace.to_json b.Runtime.trace
      && outcome_equal a.Runtime.outcome b.Runtime.outcome
      && a.Runtime.detected_at = b.Runtime.detected_at)

(* And across repeated executions at the same job count: same seed in,
   same bytes out. *)
let qcheck_seed_reproducibility =
  QCheck.Test.make ~name:"same seed twice gives the same trace" ~count:40
    seed_arbitrary (fun seed ->
      let e = List.nth Registry.all (seed mod List.length Registry.all) in
      let rng = Rng.split (Rng.make seed) 2 in
      let inst = e.Registry.instance rng.(0) in
      let certs = certs_of rng.(1) e.Registry.scheme inst in
      let run () =
        Runtime.execute ~pool:pool8 ~plan:stress_plan ~rounds:3 ~seed
          e.Registry.scheme inst certs
      in
      Trace.to_json (run ()).Runtime.trace
      = Trace.to_json (run ()).Runtime.trace)

(* ------------------------------------------------------------------ *)
(* Runtime counters agree with the trace                                *)
(* ------------------------------------------------------------------ *)

(* The runtime.* counters are resolved once and bumped from the round's
   fault events and delivery count; for a plan that fires every fault
   kind (and recovers), each must equal the trace's own figure. *)
let test_counters_match_trace () =
  let scheme =
    Lcl.scheme_of_search Lcl.maximal_independent_set ~solve:(fun g ->
        Some (Lcl.greedy_mis g))
  in
  let inst = Instance.make (Gen.random_tree (Rng.make 4) 64) in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let plan =
    Result.get_ok
      (Fault.of_spec
         "drop:0.05,flip:0.05,byz:0.05,crash:0.02,crashed:3,corrupt:0.05,\
          addedge:0.05,deledge:0.05,until:4")
  in
  Metrics.reset ();
  let r =
    Metrics.with_enabled true (fun () ->
        Runtime.execute ~pool:pool1 ~plan ~rounds:6 ~seed:9 ~recover:true
          scheme inst certs)
  in
  let m = Trace.metrics r.Runtime.trace in
  List.iter
    (fun (name, expected) ->
      check (name ^ " fired") true (expected > 0);
      check_int name expected (Metrics.value (Metrics.counter name)))
    [
      ("runtime.fault.crash", m.Trace.crashed);
      ("runtime.fault.byzantine", m.Trace.byzantine);
      ("runtime.fault.corrupt", m.Trace.certs_corrupted);
      ("runtime.fault.drop", m.Trace.messages_dropped);
      ("runtime.fault.flip", m.Trace.messages_flipped);
      ("runtime.fault.forge", m.Trace.messages_forged);
      ("runtime.churn.edge_added", m.Trace.edges_added);
      ("runtime.churn.edge_removed", m.Trace.edges_removed);
      ("runtime.messages_sent", m.Trace.messages_sent);
      ("runtime.certs_recovered", m.Trace.certs_recovered);
    ];
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* The exchange allocates per draw, not per message                     *)
(* ------------------------------------------------------------------ *)

(* One warm fault-free exchange on a one-job pool (all allocation lands
   on the calling domain).  Messages live in the plane's slots and the
   Rng draws update their stream in place and return immediates, so
   nothing is allocated per directed edge: what is left is per chunk
   (its event list and result tuple) and per round.  The list exchange
   built a Send event, an inbox entry and their conses per message, 59
   words per directed edge on this graph, and a boxed Int64 state plus
   a boxed float per draw still cost 21; any per-message heap object
   (three words at least) or a boxed draw pushes the figure past the
   bound of one word. *)
let test_exchange_allocation () =
  let g = Gen.random_connected (Rng.make 3) ~n:4096 ~extra_edges:2048 in
  let inst = Instance.make g in
  let scheme = Spanning_tree.scheme () in
  let nodes = Node.boot inst (Option.get (scheme.Scheme.prover inst)) in
  let n = Graph.n g in
  let plane = Network.layout g in
  let exchange streams =
    Network.exchange ~pool:pool1 ~plan:Fault.none ~first_round:false
      ~active:true ~plane ~nodes ~streams
  in
  ignore (exchange (Rng.split (Rng.make 1) (n + 1)));
  let streams = Rng.split (Rng.make 2) (n + 1) in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (exchange streams));
  let words = Gc.minor_words () -. before in
  let per_edge = words /. float_of_int (2 * Graph.m g) in
  if per_edge > 1. then
    Alcotest.failf "exchange allocated %.1f minor words per directed edge"
      per_edge

(* ------------------------------------------------------------------ *)
(* Crash isolation: a vertex with no alive neighbor must not crash us   *)
(* ------------------------------------------------------------------ *)

(* Star graph, crash the center: every leaf's only neighbor is gone, so
   all seven leaves receive zero messages for 5 rounds.  The simulator
   must survive and keep rendering leaf verdicts; the spanning-tree
   verifier rejects each starved view ("parent is not a neighbor")
   rather than raising out of the run. *)
let test_all_neighbors_crashed () =
  let inst = Instance.make (Gen.star 8) in
  let scheme = Spanning_tree.scheme () in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let r =
    Runtime.execute ~pool:pool8 ~plan:(Fault.crash_vertices [ 0 ]) ~rounds:5
      scheme inst certs
  in
  check "execution rejected" false r.Runtime.outcome.Scheme.accepted;
  check_int "detected in round 1" 1 (Option.get r.Runtime.detected_at);
  (* the crashed center renders no verdict: all 7 leaves reject *)
  Alcotest.(check (list int))
    "every leaf rejects" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.map fst r.Runtime.outcome.Scheme.rejections);
  let m = Trace.metrics r.Runtime.trace in
  check_int "exactly the center crashed" 1 m.Trace.crashed;
  check_int "5 rejecting verdicts per leaf" 35 m.Trace.rejecting_verdicts

(* A verifier that raises must be folded into a rejection, not escape,
   with the same text on the compiled and the interpreted path. *)
let test_raising_verifier_contained () =
  let raising =
    Scheme.trivial ~name:"raises" (fun ~degree:_ -> failwith "boom")
  in
  let inst = Instance.make (Gen.path 5) in
  let certs = Option.get (raising.Scheme.prover inst) in
  List.iter
    (fun compiled ->
      let r =
        Test_vcompile.with_compilation compiled (fun () ->
            Runtime.execute ~pool:pool1 raising inst certs)
      in
      check "rejected" false r.Runtime.outcome.Scheme.accepted;
      List.iter
        (fun (_, reason) ->
          Alcotest.(check string)
            "reason names the raise" "verifier raised: Failure(\"boom\")"
            reason)
        r.Runtime.outcome.Scheme.rejections)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Plan validation (bugfix regression)                                  *)
(* ------------------------------------------------------------------ *)

(* Out-of-range vertex ids in a plan used to be silent no-ops: the
   crash never happened and the run looked healthy.  They must be
   rejected loudly now. *)
let test_out_of_range_plan_rejected () =
  let inst = Instance.make (Gen.path 4) in
  let scheme = Spanning_tree.scheme () in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let raises plan =
    match Runtime.execute ~pool:pool1 ~plan scheme inst certs with
    | (_ : Runtime.result) -> false
    | exception Invalid_argument _ -> true
  in
  check "crashed:99 rejected" true (raises (Fault.crash_vertices [ 99 ]));
  check "edit endpoint 99 rejected" true
    (raises (Fault.edit ~round:1 ~add:true 0 99));
  check "in-range crash list accepted" false
    (raises (Fault.crash_vertices [ 3 ]))

(* A trace renders its seed as a JSON number, a double: a seed past
   2^53 used to be written rounded ("seed":1.2345678901234568e+18) and
   named a different run.  Such seeds are rejected; the extremes that
   remain render exactly. *)
let test_seed_range () =
  let inst = Instance.make (Gen.path 4) in
  let scheme = Spanning_tree.scheme () in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let run seed = Runtime.execute ~pool:pool1 ~seed scheme inst certs in
  List.iter
    (fun seed ->
      match run seed with
      | (_ : Runtime.result) -> Alcotest.failf "seed %d accepted" seed
      | exception Invalid_argument _ -> ())
    [ 1234567890123456789; (1 lsl 53) + 1; -(1 lsl 53) - 1; max_int ];
  List.iter
    (fun seed ->
      let json = Json.parse_exn (Trace.to_json (run seed).Runtime.trace) in
      let fields = Json.as_obj "trace" json in
      check_int "seed survives the trace" seed
        (Json.as_int "seed" (Json.field fields "seed")))
    [ 1 lsl 53; -(1 lsl 53); 1234567890123456 ]

(* Vacuous acceptance (bugfix regression): a round in which every
   vertex crashed renders zero verdicts.  That round must not read as
   accepted — a dead network certifies nothing — and it is not a
   detection either, so the execution neither accepts nor quiesces. *)
let test_all_crashed_round_not_accepted () =
  let inst = Instance.make (Gen.path 3) in
  let scheme = Spanning_tree.scheme () in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let r =
    Runtime.execute ~pool:pool1
      ~plan:(Fault.crash_vertices [ 0; 1; 2 ])
      ~rounds:3 scheme inst certs
  in
  check "not accepted" false r.Runtime.outcome.Scheme.accepted;
  check "not a detection" true (r.Runtime.detected_at = None);
  check "never quiesces" true (r.Runtime.quiesced_at = None);
  List.iter
    (fun (log : Trace.round_log) ->
      check_int "zero verdicts rendered" 0 log.Trace.verdicts_rendered;
      check "no rejections" true (log.Trace.rejections = []))
    r.Runtime.trace.Trace.rounds;
  Array.iter
    (fun (o : Scheme.outcome) -> check "per-round not accepted" false o.Scheme.accepted)
    r.Runtime.per_round

(* ------------------------------------------------------------------ *)
(* Fault plan parsing                                                   *)
(* ------------------------------------------------------------------ *)

let test_of_spec () =
  (match Fault.of_spec "none" with
  | Ok p -> check "none parses to the empty plan" true (Fault.is_none p)
  | Error e -> Alcotest.failf "none rejected: %s" e);
  (match Fault.of_spec "drop:0.1,corrupt:0.05,byz:0.2" with
  | Ok p ->
      check "drop rate" true (p.Fault.drop = 0.1);
      check "corrupt rate" true (p.Fault.corrupt = 0.05);
      check "byz rate" true (p.Fault.byzantine = 0.2);
      check "no crash" true (p.Fault.crash = 0.0 && p.Fault.crashed = []);
      check_string "spec survives as name" "drop:0.1,corrupt:0.05,byz:0.2"
        (Fault.to_string p)
  | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  (match Fault.of_spec "crashed:1+4+2" with
  | Ok p ->
      check "crash list parsed" true
        (List.sort compare p.Fault.crashed = [ 1; 2; 4 ])
  | Error e -> Alcotest.failf "crashed spec rejected: %s" e);
  List.iter
    (fun bad ->
      match Fault.of_spec bad with
      | Ok _ -> Alcotest.failf "bad spec %S accepted" bad
      | Error _ -> ())
    [ "drop"; "drop:2.0"; "frob:0.1"; "drop:x" ];
  match Fault.of_spec "" with
  | Ok p -> check "empty spec is the fault-free plan" true (Fault.is_none p)
  | Error e -> Alcotest.failf "empty spec rejected: %s" e

let test_union () =
  let u = Fault.union (Fault.drops 0.3) (Fault.crash_vertices [ 2 ]) in
  check "drop kept" true (u.Fault.drop = 0.3);
  check "crash list kept" true (u.Fault.crashed = [ 2 ]);
  check "union of none is none" true
    (Fault.is_none (Fault.union Fault.none Fault.none))

(* [to_string] renders the canonical name re-derived from the fields,
   so parsing it back must reproduce the plan exactly — including
   plans assembled by unioning many kinds, where the old name-keeping
   logic used to drop everything but the first component. *)
let qcheck_spec_round_trip =
  QCheck.Test.make
    ~name:"of_spec (to_string p) = Ok p on random union-built plans"
    ~count:300 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let components =
        [|
          (fun () -> Fault.drops (Rng.float rng 1.0));
          (fun () -> Fault.flips (Rng.float rng 1.0));
          (fun () -> Fault.corruption (Rng.float rng 1.0));
          (fun () -> Fault.crashes (Rng.float rng 1.0));
          (fun () ->
            Fault.crash_vertices
              (List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng 50)));
          (fun () ->
            Fault.byzantine ~bits:(Rng.int rng 32) (Rng.float rng 1.0));
          (fun () -> Fault.edge_additions (Rng.float rng 1.0));
          (fun () -> Fault.edge_deletions (Rng.float rng 1.0));
          (fun () ->
            let u = Rng.int rng 20 in
            let v = u + 1 + Rng.int rng 20 in
            Fault.edit ~round:(1 + Rng.int rng 6) ~add:(Rng.bool rng) u v);
          (fun () -> Fault.until (Rng.int rng 6));
        |]
      in
      let p = ref Fault.none in
      for _ = 1 to Rng.int rng 7 do
        let make = components.(Rng.int rng (Array.length components)) in
        p := Fault.union !p (make ())
      done;
      match Fault.of_spec (Fault.to_string !p) with
      | Ok q -> q = !p
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Attack near-miss surfacing (satellite)                               *)
(* ------------------------------------------------------------------ *)

(* Acyclicity on a cycle is a no-instance: every random assignment is
   rejected, so the report must carry a near-miss and no fooling. *)
let test_near_miss_on_no_instance () =
  let inst = Instance.make (Gen.cycle 6) in
  let r =
    Attack.random_assignments (Rng.make 3) Spanning_tree.acyclicity inst
      ~trials:50 ~max_bits:4
  in
  check "no fooling assignment" true (r.Attack.fooled = None);
  match r.Attack.near_miss with
  | None -> Alcotest.fail "expected a near-miss on a rejected trial"
  | Some (v, reason) ->
      check "vertex in range" true (v >= 0 && v < 6);
      check "reason non-empty" true (reason <> "")

(* When the adversary wins, the near-miss reflects the last *failed*
   trial before the win — and a fooled report on an accepting scheme
   keeps near_miss coherent (here: first trial wins, so no near-miss). *)
let test_near_miss_absent_when_first_trial_wins () =
  let accept_all =
    Scheme.trivial ~name:"accept-all" (fun ~degree:_ -> Scheme.Accept)
  in
  let inst = Instance.make (Gen.path 4) in
  let r =
    Attack.random_assignments (Rng.make 0) accept_all inst ~trials:10
      ~max_bits:2
  in
  check "fooled" true (r.Attack.fooled <> None);
  check_int "won on the first trial" 1 r.Attack.trials;
  check "no failed trial, no near-miss" true (r.Attack.near_miss = None)

let suite =
  [
    ( "runtime",
      [
        QCheck_alcotest.to_alcotest qcheck_fault_free_equals_run;
        QCheck_alcotest.to_alcotest qcheck_fault_free_stationary;
        QCheck_alcotest.to_alcotest qcheck_jobs_determinism;
        QCheck_alcotest.to_alcotest qcheck_seed_reproducibility;
        Alcotest.test_case "all neighbors crashed: simulator survives" `Quick
          test_all_neighbors_crashed;
        Alcotest.test_case "raising verifier becomes a rejection" `Quick
          test_raising_verifier_contained;
        Alcotest.test_case "out-of-range plan ids rejected loudly" `Quick
          test_out_of_range_plan_rejected;
        Alcotest.test_case "seeds past 2^53 rejected" `Quick test_seed_range;
        Alcotest.test_case "runtime counters match the trace" `Quick
          test_counters_match_trace;
        Alcotest.test_case "exchange allocates no per-message objects" `Quick
          test_exchange_allocation;
        Alcotest.test_case "all-crashed round is not accepted" `Quick
          test_all_crashed_round_not_accepted;
        Alcotest.test_case "Fault.of_spec" `Quick test_of_spec;
        Alcotest.test_case "Fault.union" `Quick test_union;
        QCheck_alcotest.to_alcotest qcheck_spec_round_trip;
        Alcotest.test_case "attack near-miss on a no-instance" `Quick
          test_near_miss_on_no_instance;
        Alcotest.test_case "attack near-miss absent on instant fooling" `Quick
          test_near_miss_absent_when_first_trial_wins;
      ] );
  ]
