(* Differential tests for the ahead-of-time verifier compiler.

   The compiled path's contract is per-vertex verdict equality with the
   interpreted verifier — reason strings included — for every
   registered scheme, over arbitrary instances and certificate
   assignments (honest, corrupted and random).  That equality is
   structural in the implementation (both paths end in the same lowered
   check function), and these tests pin it observationally: against
   [Scheme.view_of] vertex by vertex, through [Engine.run_par] at
   several pool sizes, and through [Runtime.execute]'s trace. *)

let check = Alcotest.(check bool)

(* Shared pools, spawned once (see test_engine.ml). *)
let pool1 = Pool.create ~jobs:1 ()
let pool4 = Pool.create ~jobs:4 ()
let pool8 = Pool.create ~jobs:8 ()
let () = at_exit (fun () -> List.iter Pool.shutdown [ pool1; pool4; pool8 ])
let pools = [ pool1; pool4; pool8 ]
let seed_arbitrary = QCheck.(int_bound 1_000_000)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let registry = Array.of_list Registry.all
let entry_of rng = registry.(Rng.int rng (Array.length registry))

(* Per-vertex differential inputs: every registry family, plus the
   engine suite's composed (conjoin/disjoin) lowerings on its instances. *)
let case_of rng =
  let r = Array.length registry in
  let k = Rng.int rng (r + List.length Test_engine.composed) in
  if k < r then
    (registry.(k).Registry.scheme, registry.(k).Registry.instance rng)
  else (List.nth Test_engine.composed (k - r), Test_engine.instance_of rng)

(* Corrupt a few vertices: replacement with noise, truncation to empty,
   or a single bit flip — the latter exercises "almost well-formed"
   certificates, where decode succeeds but check must reject. *)
let corrupt rng certs =
  let certs = Array.copy certs in
  let n = Array.length certs in
  let hits = 1 + Rng.int rng 3 in
  for _ = 1 to hits do
    let v = Rng.int rng n in
    certs.(v) <-
      (match Rng.int rng 3 with
      | 0 -> Bitstring.empty
      | 1 -> Rng.bits rng (Rng.int rng 12)
      | _ ->
          let c = certs.(v) in
          let len = Bitstring.length c in
          if len = 0 then Rng.bits rng 4 else Bitstring.flip c (Rng.int rng len))
  done;
  certs

(* Honest prover output, a corruption of it, or pure noise. *)
let certs_of rng scheme inst =
  let noise () =
    Array.init (Instance.n inst) (fun _ -> Rng.bits rng (Rng.int rng 9))
  in
  match scheme.Scheme.prover inst with
  | None -> noise ()
  | Some c -> (
      match Rng.int rng 3 with
      | 0 -> c
      | 1 -> corrupt rng c
      | _ -> noise ())

let outcome_equal (a : Scheme.outcome) (b : Scheme.outcome) =
  a.Scheme.accepted = b.Scheme.accepted
  && a.Scheme.max_bits = b.Scheme.max_bits
  && a.Scheme.rejections = b.Scheme.rejections

(* ------------------------------------------------------------------ *)
(* Per-vertex differential: kernel ≡ interpreted verifier              *)
(* ------------------------------------------------------------------ *)

let qcheck_kernel_per_vertex =
  QCheck.Test.make
    ~name:"compile: kernel verdict ≡ interpreted verdict at every vertex"
    ~count:600 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme, inst = case_of rng in
      let certs = certs_of rng scheme inst in
      let kernel = Option.get (Vcompile.compile scheme inst certs) in
      let n = Instance.n inst in
      let ok = ref true in
      for v = 0 to n - 1 do
        if kernel v <> Scheme.verify scheme (Scheme.view_of inst certs v) then
          ok := false
      done;
      !ok)

let qcheck_view_checker_per_vertex =
  QCheck.Test.make
    ~name:"view_checker ≡ interpreted verifier on the same views" ~count:600
    seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme, inst = case_of rng in
      let certs = certs_of rng scheme inst in
      let fast = Option.get (Vcompile.view_checker scheme) in
      let n = Instance.n inst in
      let ok = ref true in
      for v = 0 to n - 1 do
        let view = Scheme.view_of inst certs v in
        if fast view <> Scheme.verify scheme view then ok := false
      done;
      !ok)

(* Every registry family, composed ones included, compiles — decode is
   total even on all-empty certificates — and its kernel agrees with
   the interpreted oracle there. *)
let lowered_coverage () =
  List.iter
    (fun e ->
      let scheme = e.Registry.scheme in
      let inst = e.Registry.instance (Rng.make 1) in
      let certs = Array.make (Instance.n inst) Bitstring.empty in
      let kernel = Option.get (Vcompile.compile scheme inst certs) in
      check (e.Registry.name ^ " compiles") true
        (List.for_all
           (fun v ->
             kernel v = Scheme.verify scheme (Scheme.view_of inst certs v))
           (Graph.vertices inst.Instance.graph)))
    Registry.all

(* ------------------------------------------------------------------ *)
(* End-to-end: engine and runtime                                      *)
(* ------------------------------------------------------------------ *)

let qcheck_engine_jobs_ladder =
  QCheck.Test.make
    ~name:"run_par ≡ Scheme.run at jobs 1/4/8 (compiled on)" ~count:400
    seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let entry = entry_of rng in
      let scheme = entry.Registry.scheme in
      let inst = entry.Registry.instance rng in
      let certs = certs_of rng scheme inst in
      let seq = Scheme.run scheme inst certs in
      List.for_all
        (fun pool ->
          outcome_equal seq (Engine.run_par ~pool scheme inst certs))
        pools)

let trace_equal (a : Trace.t) (b : Trace.t) = a = b

(* Run [f] with the global compile switch set to [b], then restore it. *)
let with_compilation b f =
  let prev = Vcompile.is_enabled () in
  Vcompile.set_enabled b;
  Fun.protect ~finally:(fun () -> Vcompile.set_enabled prev) f

let qcheck_runtime_compiled_flag =
  QCheck.Test.make
    ~name:"Runtime.execute: compilation on ≡ off (trace included)"
    ~count:250 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let entry = entry_of rng in
      let scheme = entry.Registry.scheme in
      let inst = entry.Registry.instance rng in
      let certs = certs_of rng scheme inst in
      let rounds = 1 + Rng.int rng 2 in
      let pool = List.nth pools (Rng.int rng 3) in
      let execute compiled =
        with_compilation compiled (fun () ->
            Runtime.execute ~pool ~rounds ~seed scheme inst certs)
      in
      let fast = execute true and slow = execute false in
      outcome_equal fast.Runtime.outcome slow.Runtime.outcome
      && fast.Runtime.detected_at = slow.Runtime.detected_at
      && trace_equal fast.Runtime.trace slow.Runtime.trace
      && fast.Runtime.checked = slow.Runtime.checked
      && fast.Runtime.reverified = slow.Runtime.reverified)

(* ------------------------------------------------------------------ *)
(* The global toggle and the hit counter                               *)
(* ------------------------------------------------------------------ *)

let disabled_compilation_is_equivalent () =
  let scheme = Spanning_tree.scheme () in
  let inst = Instance.make (Gen.random_tree (Rng.make 7) 200) in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let on = Engine.run_par ~pool:pool4 scheme inst certs in
  with_compilation false (fun () ->
      check "compile yields None when disabled" true
        (Vcompile.compile scheme inst certs = None);
      check "view_checker yields None when disabled" true
        (match Vcompile.view_checker scheme with None -> true | Some _ -> false);
      let off = Engine.run_par ~pool:pool4 scheme inst certs in
      check "outcomes identical with compilation off" true
        (outcome_equal on off));
  check "toggle restored" true (Vcompile.is_enabled ())

let compiled_hits_counted () =
  let scheme = Spanning_tree.scheme () in
  let n = 300 in
  let inst = Instance.make (Gen.random_tree (Rng.make 11) n) in
  let certs = Option.get (scheme.Scheme.prover inst) in
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      ignore (Engine.run_par ~pool:pool4 scheme inst certs);
      check "every vertex went through the compiled kernel" true
        (Metrics.value (Metrics.counter "engine.compiled_hits") = n);
      Metrics.reset ();
      with_compilation false (fun () ->
          ignore (Engine.run_par ~pool:pool4 scheme inst certs));
      check "no compiled hits when disabled" true
        (Metrics.value (Metrics.counter "engine.compiled_hits") = 0);
      Metrics.reset ())

(* Two schemes alternating on one instance both keep their kernels;
   past four keys the oldest is evicted, and a changed certificate
   array is a new key. *)
let kernel_cache_alternation () =
  let inst = Instance.make (Gen.random_tree (Rng.make 5) 120) in
  let a = Spanning_tree.scheme () and b = Spanning_tree.acyclicity in
  let ca = Option.get (a.Scheme.prover inst) in
  let cb = Option.get (b.Scheme.prover inst) in
  let reuse () =
    Metrics.value (Metrics.counter ~approx:true "vcompile.kernel_reuse")
  in
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      let ka = Option.get (Vcompile.compile a inst ca) in
      let kb = Option.get (Vcompile.compile b inst cb) in
      check "first scheme still cached" true
        (Option.get (Vcompile.compile a inst ca) == ka);
      check "second scheme still cached" true
        (Option.get (Vcompile.compile b inst cb) == kb);
      check "both hits counted" true (reuse () = 2);
      let flips =
        List.init 4 (fun v ->
            let c = Array.copy ca in
            c.(v) <- Bitstring.flip c.(v) 0;
            c)
      in
      List.iter (fun c -> ignore (Vcompile.compile a inst c)) flips;
      check "oldest key evicted after four newer ones" true
        (Option.get (Vcompile.compile b inst cb) != kb);
      let kf = Option.get (Vcompile.compile a inst (List.nth flips 3)) in
      check "changed certificates get their own kernel" true
        (kf != ka
        && kf 3 = Scheme.verify a (Scheme.view_of inst (List.nth flips 3) 3));
      Metrics.reset ())

let suite =
  [
    ( "vcompile:differential",
      [
        QCheck_alcotest.to_alcotest qcheck_kernel_per_vertex;
        QCheck_alcotest.to_alcotest qcheck_view_checker_per_vertex;
        Alcotest.test_case "every family compiles" `Quick lowered_coverage;
      ] );
    ( "vcompile:end-to-end",
      [
        QCheck_alcotest.to_alcotest qcheck_engine_jobs_ladder;
        QCheck_alcotest.to_alcotest qcheck_runtime_compiled_flag;
        Alcotest.test_case "disabled compilation is equivalent" `Quick
          disabled_compilation_is_equivalent;
        Alcotest.test_case "engine.compiled_hits counts kernel verdicts" `Quick
          compiled_hits_counted;
        Alcotest.test_case "kernel cache keeps alternating schemes" `Quick
          kernel_cache_alternation;
      ] );
  ]
