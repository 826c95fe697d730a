(* Differential tests for the incremental verification layer.

   The incremental mode's contract (runtime.mli, DESIGN §5.4) is
   drop-in exactness: same outcomes, same detection round, byte-for-
   byte the same trace as the full per-round sweep — the only
   observable difference is how many verifier calls it took.  These
   tests pin that contract across the whole scheme registry under a
   stress fault plan, pin the jobs-determinism of the dirty-set
   accounting, check the soundness invariant (the checked set contains
   the distance-1 closure of the round's fault events), and verify the
   headline saving: on a sparse fault plan over a large instance the
   incremental runtime performs several times fewer verifier calls. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pool1 = Pool.create ~jobs:1 ()
let pool8 = Pool.create ~jobs:8 ()
let () = at_exit (fun () -> List.iter Pool.shutdown [ pool1; pool8 ])

let outcome_equal = Test_engine.outcome_equal

let seed_arbitrary = QCheck.(int_bound 1_000_000)

(* Half prover certificates (covering the all-accept path), half random
   garbage (covering dense rejection). *)
let certs_of = Test_engine.certs_of

let stress_plan =
  List.fold_left Fault.union (Fault.drops 0.15)
    [
      Fault.flips 0.15;
      Fault.corruption 0.1;
      Fault.crashes 0.05;
      Fault.byzantine ~bits:6 0.1;
    ]

(* ------------------------------------------------------------------ *)
(* Drop-in exactness: incremental ≡ full sweep, byte for byte           *)
(* ------------------------------------------------------------------ *)

let qcheck_incremental_exact =
  QCheck.Test.make
    ~name:"incremental ≡ full sweep (outcomes, detection, trace bytes)"
    ~count:40 seed_arbitrary (fun seed ->
      let e = List.nth Registry.all (seed mod List.length Registry.all) in
      let rng = Rng.split (Rng.make seed) 2 in
      let inst = e.Registry.instance rng.(0) in
      let certs = certs_of rng.(1) e.Registry.scheme inst in
      let rounds = 1 + (seed mod 4) in
      let run incremental =
        Runtime.execute ~pool:pool8 ~plan:stress_plan ~rounds ~seed
          ~incremental e.Registry.scheme inst certs
      in
      let inc = run true and full = run false in
      Array.for_all2 outcome_equal inc.Runtime.per_round full.Runtime.per_round
      && inc.Runtime.detected_at = full.Runtime.detected_at
      && outcome_equal inc.Runtime.outcome full.Runtime.outcome
      && Trace.to_json inc.Runtime.trace = Trace.to_json full.Runtime.trace)

(* ------------------------------------------------------------------ *)
(* Jobs determinism, including the dirty-set accounting                 *)
(* ------------------------------------------------------------------ *)

(* The candidate set is computed sequentially from the canonical event
   list, so [checked] and [reverified] — not just the trace — must be
   identical at every job count. *)
let qcheck_incremental_jobs_determinism =
  QCheck.Test.make
    ~name:"incremental: trace and reverified sets identical across jobs"
    ~count:30 seed_arbitrary (fun seed ->
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
      && a.Runtime.checked = b.Runtime.checked
      && a.Runtime.reverified = b.Runtime.reverified)

(* ------------------------------------------------------------------ *)
(* Soundness invariant: checked ⊇ distance-1 closure of fault events    *)
(* ------------------------------------------------------------------ *)

(* Recompute each round's scope closure from the trace and assert it is
   contained in the checked set the runtime reports.  (The converse
   containment is deliberately false: the carry re-checks transient
   scopes one round after the event.) *)
let qcheck_checked_contains_closure =
  QCheck.Test.make
    ~name:"checked set contains the scope closure of the round's events"
    ~count:30 seed_arbitrary (fun seed ->
      let e = List.nth Registry.all (seed mod List.length Registry.all) in
      let rng = Rng.split (Rng.make seed) 2 in
      let inst = e.Registry.instance rng.(0) in
      let certs = certs_of rng.(1) e.Registry.scheme inst in
      let r =
        Runtime.execute ~pool:pool8 ~plan:stress_plan ~rounds:4 ~seed
          e.Registry.scheme inst certs
      in
      let graph = inst.Instance.graph in
      List.for_all
        (fun (log : Trace.round_log) ->
          let closure = Hashtbl.create 16 in
          List.iter
            (fun ev ->
              match Trace.scope ev with
              | Trace.Self_and_neighbors v ->
                  Hashtbl.replace closure v ();
                  Array.iter
                    (fun w -> Hashtbl.replace closure w ())
                    (Graph.neighbors graph v)
              | Trace.Inbox v -> Hashtbl.replace closure v ()
              | Trace.Endpoints (u, v) ->
                  (* stress_plan has no churn, so the static graph is
                     the post-edit topology *)
                  List.iter
                    (fun x ->
                      Hashtbl.replace closure x ();
                      Array.iter
                        (fun w -> Hashtbl.replace closure w ())
                        (Graph.neighbors graph x))
                    [ u; v ]
              | Trace.Pure -> ())
            log.Trace.events;
          let checked = r.Runtime.checked.(log.Trace.round - 1) in
          Hashtbl.fold
            (fun v () acc -> acc && List.mem v checked)
            closure true)
        r.Runtime.trace.Trace.rounds)

(* ------------------------------------------------------------------ *)
(* Fault-free executions converge to an empty dirty set                 *)
(* ------------------------------------------------------------------ *)

let qcheck_fault_free_converges =
  QCheck.Test.make
    ~name:"fault-free: nothing is re-verified after round 1" ~count:30
    seed_arbitrary (fun seed ->
      let e = List.nth Registry.all (seed mod List.length Registry.all) in
      let rng = Rng.split (Rng.make seed) 2 in
      let inst = e.Registry.instance rng.(0) in
      let certs = certs_of rng.(1) e.Registry.scheme inst in
      let r =
        Runtime.execute ~pool:pool8 ~rounds:4 e.Registry.scheme inst certs
      in
      (* round 1 is the cold-cache full pass... *)
      List.length r.Runtime.checked.(0) = Instance.n inst
      (* ...and with no events every later round reuses every
         verdict *)
      && Array.for_all (fun l -> l = []) (Array.sub r.Runtime.checked 1 3)
      && Array.for_all (fun l -> l = []) (Array.sub r.Runtime.reverified 1 3))

(* ------------------------------------------------------------------ *)
(* The headline saving, and its metrics accounting                      *)
(* ------------------------------------------------------------------ *)

(* Sparse plan over a large instance: ~0.5% of vertices corrupted per
   round on n=4096 for 8 rounds.  The acceptance bar from the issue:
   incremental performs at least 5x fewer verifier calls than the full
   sweep, with a byte-identical trace.  Verifier-call counts are read
   both from [result.reverified] and from the deterministic
   [runtime.vertices_reverified] counter, which must agree. *)
let test_sparse_speedup () =
  let inst = Instance.make (Gen.random_tree (Rng.make 1) 4096) in
  let scheme = Spanning_tree.scheme () in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let plan = Fault.corruption 0.005 in
  let run incremental =
    Metrics.reset ();
    let r =
      Runtime.execute ~pool:pool8 ~plan ~rounds:8 ~seed:42 ~incremental scheme
        inst certs
    in
    let counted = Metrics.value (Metrics.counter "runtime.vertices_reverified") in
    let cached = Metrics.value (Metrics.counter "runtime.verdicts_cached") in
    (r, counted, cached)
  in
  Metrics.with_enabled true @@ fun () ->
  let inc, inc_calls, inc_cached = run true in
  let full, full_calls, full_cached = run false in
  let sum a = Array.fold_left (fun acc l -> acc + List.length l) 0 a in
  check_int "counter agrees with result.reverified (incremental)"
    (sum inc.Runtime.reverified) inc_calls;
  check_int "counter agrees with result.reverified (full)"
    (sum full.Runtime.reverified) full_calls;
  check_int "full sweep caches nothing" 0 full_cached;
  check "incremental serves verdicts from cache" true (inc_cached > 0);
  check "some faults actually fired" true
    ((Trace.metrics inc.Runtime.trace).Trace.certs_corrupted > 0);
  check "traces byte-identical" true
    (Trace.to_json inc.Runtime.trace = Trace.to_json full.Runtime.trace);
  check "at least 5x fewer verifier calls" true
    (inc_calls * 5 <= full_calls)

(* ------------------------------------------------------------------ *)
(* Exception containment boundary (bugfix regression)                   *)
(* ------------------------------------------------------------------ *)

(* Scheme-level failures become rejections; fatal/programming-error
   exceptions must escape.  The old runtime swallowed Assert_failure
   into a Reject, silently masking broken verifier logic. *)
let test_fatal_exception_propagates () =
  let broken =
    Scheme.trivial ~name:"asserts" (fun ~degree:_ -> assert false)
  in
  let inst = Instance.make (Gen.path 5) in
  let certs = Option.get (broken.Scheme.prover inst) in
  let escaped =
    match Runtime.execute ~pool:pool1 broken inst certs with
    | (_ : Runtime.result) -> false
    | exception Assert_failure _ -> true
  in
  check "Assert_failure escapes Runtime.execute" true escaped

let test_scheme_failure_still_contained () =
  let raising =
    Scheme.trivial ~name:"raises" (fun ~degree:_ -> failwith "boom")
  in
  let inst = Instance.make (Gen.path 5) in
  let certs = Option.get (raising.Scheme.prover inst) in
  List.iter
    (fun incremental ->
      let r = Runtime.execute ~pool:pool1 ~incremental raising inst certs in
      check "rejected, not raised" false r.Runtime.outcome.Scheme.accepted)
    [ true; false ]

let suite =
  [
    ( "runtime-incremental",
      [
        QCheck_alcotest.to_alcotest qcheck_incremental_exact;
        QCheck_alcotest.to_alcotest qcheck_incremental_jobs_determinism;
        QCheck_alcotest.to_alcotest qcheck_checked_contains_closure;
        QCheck_alcotest.to_alcotest qcheck_fault_free_converges;
        Alcotest.test_case "sparse plan: ≥5x fewer verifier calls" `Quick
          test_sparse_speedup;
        Alcotest.test_case "fatal exception propagates" `Quick
          test_fatal_exception_propagates;
        Alcotest.test_case "scheme-level failure stays contained" `Quick
          test_scheme_failure_still_contained;
      ] );
  ]
