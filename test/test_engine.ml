(* Differential tests for the parallel execution engine.

   The engine's contract is equivalence with the sequential reference:
   [Engine.run_par] (early exit off) must return exactly the outcome of
   [Scheme.run] — same acceptance, same max_bits, same rejection list,
   reasons included — over arbitrary instances, schemes and certificate
   assignments; and [Engine.attack_par] must be a function of the seed
   alone, never of the job count.  Every property here is a cross-check
   of two executions, not a test of a single one. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Shared pools, spawned once; alcotest runs suites in-process so the
   domains are reused across all cases and released at exit. *)
let pool4 = Pool.create ~jobs:4 ()
let pool1 = Pool.create ~jobs:1 ()
let pool8 = Pool.create ~jobs:8 ()
let () = at_exit (fun () -> List.iter Pool.shutdown [ pool4; pool1; pool8 ])

(* ------------------------------------------------------------------ *)
(* Generators: graphs, schemes, certificate assignments                 *)
(* ------------------------------------------------------------------ *)

let graph_of rng =
  let n = 1 + Rng.int rng 12 in
  match Rng.int rng 6 with
  | 0 -> Gen.path n
  | 1 -> Gen.cycle (max 3 n)
  | 2 -> Gen.star n
  | 3 -> Gen.random_tree rng (max 2 n)
  | 4 -> Gen.random_connected rng ~n:(max 2 n) ~extra_edges:(Rng.int rng 4)
  | _ -> Gen.caterpillar ~spine:(1 + Rng.int rng 3) ~legs:(1 + Rng.int rng 3)

let instance_of rng =
  let inst = Instance.make (graph_of rng) in
  if Rng.bool rng then Instance.with_random_ids rng inst else inst

(* A scheme that accepts iff every certificate has ≥ d bits: decidedly
   not sound for anything, which is the point — it gives the attack
   differentials cases where foolings exist and must be found by both
   sides. *)
let length_scheme d =
  Scheme.of_lowering
    ~name:(Printf.sprintf "len>=%d" d)
    ~prover:(fun inst ->
      Some (Array.make (Instance.n inst) (Rng.bits (Rng.make d) d)))
    {
      Scheme.decode = (fun ~id_bits:_ c -> Bitstring.length c);
      check =
        (fun ~id_bits:_ ~me:_ ~label:_ len ~ids:_ ~src:_ ~decs:_ ~lo:_ ~hi:_ ->
          if len >= d then Scheme.Accept
          else Scheme.Reject "certificate too short");
      flat = None;
    }

let even_count =
  Spanning_tree.vertex_count ~expected:(fun n -> n mod 2 = 0) "even"

(* Composed lowerings; the vcompile differential holds them to
   [Scheme.verify] too. *)
let composed =
  [
    Scheme.conjoin ~name:"acyclic-and-even" Spanning_tree.acyclicity even_count;
    Scheme.disjoin ~name:"acyclic-or-even" Spanning_tree.acyclicity even_count;
  ]

let schemes =
  Array.of_list
    ([ Spanning_tree.acyclicity; even_count ]
    @ composed
    @ [
        Tree_mso.make Library.has_perfect_matching.Library.auto;
        Treedepth_cert.make ~t:4 ();
        length_scheme 1;
      ])

let scheme_of rng = schemes.(Rng.int rng (Array.length schemes))

let random_certs rng ~max_bits inst =
  Array.init (Instance.n inst) (fun _ ->
      Rng.bits rng (Rng.int rng (max_bits + 1)))

(* Half the time try the scheme's own prover, so the differential also
   covers the all-accept path with structured certificates; fall back to
   random (mostly-rejecting) assignments. *)
let certs_of rng scheme inst =
  let forged () = random_certs rng ~max_bits:8 inst in
  if Rng.bool rng then forged ()
  else match scheme.Scheme.prover inst with Some c -> c | None -> forged ()

let outcome_equal (a : Scheme.outcome) (b : Scheme.outcome) =
  a.Scheme.accepted = b.Scheme.accepted
  && a.Scheme.max_bits = b.Scheme.max_bits
  && a.Scheme.rejections = b.Scheme.rejections

let seed_arbitrary = QCheck.(int_bound 1_000_000)

(* ------------------------------------------------------------------ *)
(* run_par ≡ run                                                        *)
(* ------------------------------------------------------------------ *)

let qcheck_run_par_equals_run =
  QCheck.Test.make ~name:"run_par ≡ run (outcome equality, early exit off)"
    ~count:1000 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme = scheme_of rng in
      let inst = instance_of rng in
      let certs = certs_of rng scheme inst in
      let seq = Scheme.run scheme inst certs in
      let par = Engine.run_par ~pool:pool4 scheme inst certs in
      outcome_equal seq par)

let qcheck_run_par_early_exit_accepted =
  QCheck.Test.make
    ~name:"run_par ~early_exit:true agrees on acceptance, rejections ⊆ full"
    ~count:1000 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme = scheme_of rng in
      let inst = instance_of rng in
      let certs = certs_of rng scheme inst in
      let full = Scheme.run scheme inst certs in
      let fast = Engine.run_par ~pool:pool4 ~early_exit:true scheme inst certs in
      fast.Scheme.accepted = full.Scheme.accepted
      && fast.Scheme.max_bits = full.Scheme.max_bits
      && ((not fast.Scheme.accepted) || fast.Scheme.rejections = [])
      && List.for_all
           (fun r -> List.mem r full.Scheme.rejections)
           fast.Scheme.rejections)

(* Satellite: the sequential path's optional short-circuit.  Pin that
   the default (and explicit [~early_exit:false]) rejection reasons are
   unchanged, and that [~early_exit:true] reports a genuine rejection. *)
let qcheck_run_early_exit_flag =
  QCheck.Test.make
    ~name:"Scheme.run ?early_exit: false is the reference, true is a member"
    ~count:1000 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme = scheme_of rng in
      let inst = instance_of rng in
      let certs = certs_of rng scheme inst in
      let reference = Scheme.run scheme inst certs in
      let explicit = Scheme.run ~early_exit:false scheme inst certs in
      let fast = Scheme.run ~early_exit:true scheme inst certs in
      outcome_equal reference explicit
      && fast.Scheme.accepted = reference.Scheme.accepted
      &&
      match fast.Scheme.rejections with
      | [] -> reference.Scheme.accepted
      | [ r ] -> List.mem r reference.Scheme.rejections
      | _ :: _ :: _ -> false)

(* ------------------------------------------------------------------ *)
(* attack_par: determinism and cross-checks                             *)
(* ------------------------------------------------------------------ *)

let report_equal (a : Attack.report) (b : Attack.report) =
  a.Attack.trials = b.Attack.trials
  &&
  match (a.Attack.fooled, b.Attack.fooled) with
  | None, None -> true
  | Some ca, Some cb ->
      Array.length ca = Array.length cb
      && Array.for_all2 Bitstring.equal ca cb
  | _ -> false

let qcheck_attack_par_jobs_deterministic =
  QCheck.Test.make
    ~name:"attack_par: --jobs 1 ≡ --jobs 8 (same seed, same report)"
    ~count:1000 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme =
        (* bias toward foolable schemes so the witness path is exercised *)
        if Rng.bool rng then length_scheme (Rng.int rng 3) else scheme_of rng
      in
      let inst = instance_of rng in
      let trials = 1 + Rng.int rng 80 in
      let max_bits = Rng.int rng 3 in
      let r1 =
        Engine.attack_par ~pool:pool1 (Rng.make seed) scheme inst ~trials
          ~max_bits
      in
      let r8 =
        Engine.attack_par ~pool:pool8 (Rng.make seed) scheme inst ~trials
          ~max_bits
      in
      report_equal r1 r8)

(* Satellite: Attack differential.  On tiny budgets the exhaustive
   sweep is the ground truth; the randomized prober must never exhibit
   a fooling assignment on an instance where exhaustion finds none. *)
let tiny_instance_of rng =
  let n = 1 + Rng.int rng 4 in
  let g =
    match Rng.int rng 3 with
    | 0 -> Gen.path n
    | 1 -> Gen.cycle (max 3 (min 4 (n + 2)))
    | _ -> Gen.clique (max 2 n)
  in
  Instance.make g

let qcheck_attack_random_vs_exhaustive =
  QCheck.Test.make
    ~name:"Attack: random_assignments fooling ⇒ exhaustive fooling (tiny)"
    ~count:1000 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme =
        if Rng.bool rng then length_scheme (Rng.int rng 3) else scheme_of rng
      in
      let inst = tiny_instance_of rng in
      let max_bits = Rng.int rng 3 in
      let random =
        Attack.random_assignments (Rng.make seed) scheme inst ~trials:40
          ~max_bits
      in
      match random.Attack.fooled with
      | None -> true
      | Some _ ->
          (Attack.exhaustive scheme inst ~max_bits).Attack.fooled <> None)

let qcheck_attack_par_vs_exhaustive =
  QCheck.Test.make
    ~name:"attack_par fooling ⇒ exhaustive fooling (tiny)" ~count:1000
    seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme =
        if Rng.bool rng then length_scheme (Rng.int rng 3) else scheme_of rng
      in
      let inst = tiny_instance_of rng in
      let max_bits = Rng.int rng 3 in
      let par =
        Engine.attack_par ~pool:pool4 (Rng.make seed) scheme inst ~trials:40
          ~max_bits
      in
      match par.Attack.fooled with
      | None -> true
      | Some certs ->
          (* the witness itself must be a genuine fooling... *)
          Scheme.accepts_with scheme inst certs
          (* ...and exhaustion must know about some fooling too *)
          && (Attack.exhaustive scheme inst ~max_bits).Attack.fooled <> None)

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let qcheck_pool_map_chunks =
  QCheck.Test.make ~name:"Pool.map_chunks ≡ Array.init" ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 100))
    (fun (salt, chunks) ->
      let f i = (i * 31) + salt in
      Pool.map_chunks pool4 ~chunks f = Array.init chunks f)

let pool_exception_propagates () =
  (match
     Pool.map_chunks pool4 ~chunks:40 (fun i ->
         if i = 17 then failwith "boom" else i)
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> check "message" true (msg = "boom"));
  (* the pool survives a failed region *)
  check_int "still works" 10
    (Array.length (Pool.map_chunks pool4 ~chunks:10 Fun.id))

let pool_shutdown_semantics () =
  let p = Pool.create ~jobs:3 () in
  check_int "size" 3 (Pool.size p);
  check_int "map" 4 (Pool.map_chunks p ~chunks:5 Fun.id).(4);
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  match Pool.map_chunks p ~chunks:2 Fun.id with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

let run_par_large_instance () =
  (* chunked ranges (several vertices per chunk) on a real scheme *)
  let n = 3000 in
  let inst = Instance.make (Gen.random_tree (Rng.make 5) n) in
  let scheme = Spanning_tree.scheme () in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let seq = Scheme.run scheme inst certs in
  let par = Engine.run_par ~pool:pool4 scheme inst certs in
  check "accepted" true (seq.Scheme.accepted && par.Scheme.accepted);
  check "outcomes equal" true (outcome_equal seq par);
  (* now corrupt a certificate and require identical rejection reports *)
  let bad = Array.copy certs in
  bad.(n / 2) <- Bitstring.empty;
  let seq = Scheme.run scheme inst bad in
  let par = Engine.run_par ~pool:pool4 scheme inst bad in
  check "rejects" true (not seq.Scheme.accepted);
  check "rejection reports equal" true (outcome_equal seq par)

let attack_par_sound_scheme () =
  (* C12 is a no-instance for acyclicity; nothing may fool it, at any
     job count, and the trial count must be the full budget *)
  let inst = Instance.make (Gen.cycle 12) in
  List.iter
    (fun pool ->
      let r =
        Engine.attack_par ~pool (Rng.make 3) Spanning_tree.acyclicity inst
          ~trials:300 ~max_bits:6
      in
      check "no fooling" true (r.Attack.fooled = None);
      check_int "full budget" 300 r.Attack.trials)
    [ pool1; pool4 ]

(* ------------------------------------------------------------------ *)
(* A raising lowering                                                   *)
(* ------------------------------------------------------------------ *)

(* A lowering that raises at one vertex: in its check, or in decoding
   that vertex's certificate (the only non-empty one).  Lowerings are
   total by contract, so this can only happen through a bug, and no
   engine masks it: the exception propagates from [Engine.run_par]
   exactly as from [Scheme.run].  The runtime's containment
   ([Runtime.run_verifier]) is tested in test_runtime/test_incremental. *)
let booby_trapped ~target ~in_decode exn =
  Scheme.of_lowering ~name:"booby-trapped"
    ~prover:(fun _ -> None)
    {
      Scheme.decode =
        (fun ~id_bits:_ c ->
          if in_decode && Bitstring.length c > 0 then raise exn);
      check =
        (fun ~id_bits:_ ~me ~label:_ () ~ids:_ ~src:_ ~decs:_ ~lo:_ ~hi:_ ->
          if (not in_decode) && me = target then raise exn
          else Scheme.Accept);
      flat = None;
    }

let trap_instance n =
  let inst = Instance.make (Gen.random_tree (Rng.make 9) n) in
  (* ids are v+1 under Instance.make; trap a mid-chunk vertex *)
  let target = n / 2 in
  let certs =
    Array.init n (fun v ->
        if v = target then Bitstring.of_bools [ true ] else Bitstring.empty)
  in
  (inst, target + 1, certs)

let raised f =
  match f () with (_ : Scheme.outcome) -> None | exception e -> Some e

let lowering_raise_propagates () =
  let inst, target, certs = trap_instance 400 in
  List.iter
    (fun in_decode ->
      let scheme = booby_trapped ~target ~in_decode (Failure "boom") in
      let reference = raised (fun () -> Scheme.run scheme inst certs) in
      check "Scheme.run raises" true (reference = Some (Failure "boom"));
      List.iter
        (fun pool ->
          check "run_par raises as Scheme.run does" true
            (raised (fun () -> Engine.run_par ~pool scheme inst certs)
            = reference))
        [ pool1; pool4; pool8 ])
    [ false; true ];
  check_int "pool still works" 10
    (Array.length (Pool.map_chunks pool4 ~chunks:10 Fun.id))

let lowering_fatal_propagates () =
  let inst, target, certs = trap_instance 400 in
  let scheme =
    booby_trapped ~target ~in_decode:false (Assert_failure ("trap", 1, 1))
  in
  match Engine.run_par ~pool:pool4 scheme inst certs with
  | _ -> Alcotest.fail "expected Assert_failure to propagate"
  | exception Assert_failure _ ->
      (* the pool survives the failed region *)
      check_int "pool still works" 10
        (Array.length (Pool.map_chunks pool4 ~chunks:10 Fun.id))

(* ------------------------------------------------------------------ *)
(* The jobs ladder                                                      *)
(* ------------------------------------------------------------------ *)

(* Verify time once grew along the jobs ladder (DESIGN §5.5), from two
   causes, and each has a deterministic guard here rather than a
   timing threshold.  First, the sweep allocated per vertex, and every
   minor collection is a stop-the-world rendezvous across domains: a
   warm compiled sweep must allocate the same minor words at every n.
   Second, the pool spawned a domain per job whatever the core count,
   so descheduled domains stalled each rendezvous: a pool must never
   run on more domains than the hardware recommends. *)

let spanning_fixture n =
  let scheme = Spanning_tree.scheme () in
  let inst = Instance.make (Gen.random_tree (Rng.make 1) n) in
  (scheme, inst, Option.get (scheme.Scheme.prover inst))

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Minor words of one [Engine.sweep] of the n-vertex fixture's kernel,
   compiled once beforehand, on a one-job pool (so all allocation lands
   on the calling domain), once per wrapper in [arounds] (e.g. one that
   enables the tracer).  Each wrapper first runs a sweep unmeasured,
   which creates any per-domain state. *)
let warm_sweep_words n arounds =
  let scheme, inst, certs = spanning_fixture n in
  let kernel = Vcompile.compile scheme inst certs in
  Pool.with_pool ~jobs:1 (fun pool ->
      let sweep () = Engine.sweep ~pool kernel scheme inst certs in
      List.iter (fun around -> ignore (around sweep)) arounds;
      List.map (fun around -> minor_words (fun () -> around sweep)) arounds)

let sweep_sizes = (4096, 262_144)
let plain f = f ()

(* Telemetry on, too: the engine's instruments are resolved once, so
   a metrics-on sweep adds a fixed number of words, never one per
   vertex. *)
let sweep_allocation_flat () =
  let small, large = sweep_sizes in
  let arounds = [ plain; Metrics.with_enabled true ] in
  let words n =
    let w = warm_sweep_words n arounds in
    Metrics.with_enabled true Metrics.reset;
    w
  in
  List.iter2
    (fun what (a, b) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s minor words at n=%d and n=%d" what small large)
        a b)
    [ "metrics off:"; "metrics on:" ]
    (List.combine (words small) (words large))

(* Each chunk spins a little so that, without the clamp, the extra
   worker domains get to claim chunks before the caller drains them. *)
let pool_domains_clamped () =
  let spin () =
    let acc = ref 0 in
    for i = 1 to 20_000 do
      acc := !acc + i
    done;
    Sys.opaque_identity !acc
  in
  let ids =
    Pool.map_chunks pool8 ~chunks:4096 (fun _ ->
        ignore (spin ());
        (Domain.self () :> int))
  in
  let distinct = List.length (List.sort_uniq compare (Array.to_list ids)) in
  if distinct > Domain.recommended_domain_count () then
    Alcotest.failf "jobs:8 pool ran on %d domains, hardware recommends %d"
      distinct (Domain.recommended_domain_count ())

let suite =
  [
    ( "engine:differential",
      [
        QCheck_alcotest.to_alcotest qcheck_run_par_equals_run;
        QCheck_alcotest.to_alcotest qcheck_run_par_early_exit_accepted;
        QCheck_alcotest.to_alcotest qcheck_run_early_exit_flag;
        Alcotest.test_case "run_par at n=3000" `Quick run_par_large_instance;
      ] );
    ( "engine:attack",
      [
        QCheck_alcotest.to_alcotest qcheck_attack_par_jobs_deterministic;
        QCheck_alcotest.to_alcotest qcheck_attack_random_vs_exhaustive;
        QCheck_alcotest.to_alcotest qcheck_attack_par_vs_exhaustive;
        Alcotest.test_case "sound scheme unfoolable" `Quick
          attack_par_sound_scheme;
      ] );
    ( "engine:containment",
      [
        Alcotest.test_case "non-fatal lowering raise propagates" `Quick
          lowering_raise_propagates;
        Alcotest.test_case "fatal lowering raise propagates" `Quick
          lowering_fatal_propagates;
      ] );
    ( "engine:pool",
      [
        QCheck_alcotest.to_alcotest qcheck_pool_map_chunks;
        Alcotest.test_case "exceptions propagate" `Quick
          pool_exception_propagates;
        Alcotest.test_case "shutdown" `Quick pool_shutdown_semantics;
      ] );
    ( "engine:jobs-ladder",
      [
        Alcotest.test_case "warm sweep allocation independent of n" `Quick
          sweep_allocation_flat;
        Alcotest.test_case "domains clamped to the hardware" `Quick
          pool_domains_clamped;
      ] );
  ]
