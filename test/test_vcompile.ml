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
      let kernel = (Option.get (Vcompile.compile scheme inst certs)).Vcompile.check in
      let n = Instance.n inst in
      let ok = ref true in
      for v = 0 to n - 1 do
        if kernel v <> Scheme.verify scheme (Scheme.view_of inst certs v) then
          ok := false
      done;
      !ok)

(* [swap v c] is a check of the certificates with v's replaced by c:
   at every vertex (v, its neighbours and the rest), for every family,
   on replacements that flip one bit, empty the certificate or draw
   noise, and on v a hub as often as a random vertex.  Swept across
   four jobs it rejects where [Scheme.run] on the swapped array does
   ([max_bits] stays the compiled array's). *)
let qcheck_swap_per_vertex =
  QCheck.Test.make
    ~name:"compile: swapped verdict ≡ interpreted verdict on the swapped array"
    ~count:400 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme, inst = case_of rng in
      let certs = certs_of rng scheme inst in
      let kernel = Option.get (Vcompile.compile scheme inst certs) in
      let n = Instance.n inst in
      let g = inst.Instance.graph in
      n = 0
      ||
      let v =
        if Rng.bool rng then Rng.int rng n
        else
          List.fold_left
            (fun a u -> if Graph.degree g u > Graph.degree g a then u else a)
            0 (Graph.vertices g)
      in
      let swapped = Array.copy certs in
      swapped.(v) <- (corrupt rng [| certs.(v) |]).(0);
      let check = kernel.Vcompile.swap v swapped.(v) in
      let swept =
        Engine.sweep ~pool:pool4 (Some { kernel with check }) scheme inst certs
      in
      swept.Scheme.rejections = (Scheme.run scheme inst swapped).Scheme.rejections
      && List.for_all
           (fun u ->
             check u = Scheme.verify scheme (Scheme.view_of inst swapped u))
           (Graph.vertices g))

(* One fault kind per case, so every kind meets the oracle on its own:
   dropped and crashed senders leave silent slots, flips and forgeries
   put payloads on the wire that no vertex stores, corruption and
   recovery change what a vertex stores.  Churn cases recover on some
   draws. *)
let faulted_plan rng =
  match Rng.int rng 6 with
  | 0 -> (Fault.drops 0.2, false)
  | 1 -> (Fault.flips 0.2, false)
  | 2 -> (Fault.corruption 0.15, false)
  | 3 -> (Fault.crashes 0.1, false)
  | 4 -> (Fault.byzantine ~bits:8 0.15, false)
  | _ ->
      ( Fault.union (Fault.edge_additions 0.05) (Fault.edge_deletions 0.05),
        Rng.bool rng )

(* [s] with a check that raises its rejection reason instead of
   returning it: the row check must raise exactly what the oracle
   raises. *)
let raising (s : Scheme.t) =
  let (Scheme.Compiled l) = s.Scheme.lowering in
  Scheme.of_lowering ~name:(s.Scheme.name ^ "-raising")
    ~prover:s.Scheme.prover
    {
      l with
      Scheme.check =
        (fun ~id_bits ~me ~label mine ~ids ~src ~decs ~lo ~hi ->
          match
            l.Scheme.check ~id_bits ~me ~label mine ~ids ~src ~decs ~lo ~hi
          with
          | Scheme.Accept -> Scheme.Accept
          | Scheme.Reject why -> failwith why);
      flat = None;
    }

let verdict_or_raise f =
  match f () with
  | (v : Scheme.verdict) -> Ok v
  | exception e -> Error (Printexc.to_string e)

(* The runtime's row check against the interpreted oracle, vertex by
   vertex, on planes with silent, flipped and forged slots.  Two
   exchanges share one checker, so a certificate that changes between
   rounds (corruption) must refresh its decoded value. *)
let qcheck_row_check_per_vertex =
  QCheck.Test.make
    ~name:"row check ≡ interpreted verifier on a faulted plane" ~count:600
    seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let scheme, inst = case_of rng in
      let scheme = if Rng.bool rng then raising scheme else scheme in
      let certs = certs_of rng scheme inst in
      let plan, _ = faulted_plan rng in
      let nodes = Node.boot inst certs in
      let n = Array.length nodes in
      let plane = Network.layout inst.Instance.graph in
      let check = Network.checker scheme inst nodes in
      let ok = ref true in
      for round = 1 to 2 do
        ignore
          (Network.exchange ~pool:pool1 ~plan ~first_round:(round = 1)
             ~active:true ~plane ~nodes
             ~streams:(Rng.split (Rng.make (seed + round)) (n + 1)));
        for v = 0 to n - 1 do
          if nodes.(v).Node.status = Node.Alive then begin
            let fast = verdict_or_raise (fun () -> check plane v) in
            let slow =
              verdict_or_raise (fun () ->
                  Scheme.verify scheme (Network.view plane inst nodes v))
            in
            if fast <> slow then ok := false
          end
        done
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
      let kernel = (Option.get (Vcompile.compile scheme inst certs)).Vcompile.check in
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
      let plan, recover = faulted_plan rng in
      let execute compiled =
        with_compilation compiled (fun () ->
            Runtime.execute ~pool ~plan ~recover ~rounds ~seed scheme inst
              certs)
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
      let off = Engine.run_par ~pool:pool4 scheme inst certs in
      check "outcomes identical with compilation off" true
        (outcome_equal on off));
  check "toggle restored" true (Vcompile.is_enabled ())

(* Each execute builds its own row checker and decode table; nothing
   of it may outlive the execute, or a long-running churn process grows
   by a table per execute. *)
let execute_leaves_nothing () =
  let scheme = Spanning_tree.scheme () in
  let inst = Instance.make (Gen.random_tree (Rng.make 3) 64) in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let plan = Fault.union (Fault.flips 0.1) (Fault.corruption 0.05) in
  let run () =
    ignore
      (Runtime.execute ~pool:pool1 ~plan ~rounds:3 ~seed:5 scheme inst certs)
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  run ();
  let before = live () in
  for _ = 1 to 600 do
    run ()
  done;
  let grown = live () - before in
  check
    (Printf.sprintf "live words grew by %d over 600 executes" grown)
    true
    (grown < 16_000)

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

(* A kernel lives with the certificates it checks: a served prepared
   entry compiles on its first sweep and never again.  Two VERIFYs each
   of two schemes on one graph, interleaved, compile twice in all.  A
   SIMULATE prepares a key without compiling, an ATTACK after it
   compiles nothing either, the first VERIFY of that key then compiles
   once, and flipped VERIFYs of it compile nothing more. *)
let kernel_per_prepared_entry () =
  let graph = "random-tree:120:5" in
  let compiles () =
    List.fold_left
      (fun acc (t : Metrics.timing) ->
        if String.starts_with ~prefix:"vcompile." t.Metrics.name then
          acc + t.Metrics.count
        else acc)
      0 (Metrics.timings ())
  in
  let handle h req what ok =
    if not (ok (Handlers.handle h req)) then
      Alcotest.failf "%s: wrong answer" what
  in
  let verify h scheme =
    handle h
      (Protocol.Verify { scheme; graph; flip = None })
      ("verify " ^ scheme)
      (function Protocol.Verdict { accepted; _ } -> accepted | _ -> false)
  in
  Metrics.with_enabled true @@ fun () ->
  Metrics.reset ();
  Fun.protect ~finally:Metrics.reset @@ fun () ->
  let h = Handlers.create ~pool:pool1 () in
  List.iter (verify h) [ "spanning"; "acyclic"; "spanning"; "acyclic" ];
  Alcotest.(check int) "one compile per prepared entry" 2 (compiles ());
  let h = Handlers.create ~pool:pool1 () in
  Metrics.reset ();
  handle h
    (Protocol.Simulate
       { scheme = "spanning"; graph; plan = "corrupt:0.2"; rounds = 3; seed = 1 })
    "simulate"
    (function Protocol.Sim _ -> true | _ -> false);
  handle h
    (Protocol.Attack
       { scheme = "spanning"; graph; trials = 64; max_bits = 8; seed = 1 })
    "attack"
    (function Protocol.Attacked _ -> true | _ -> false);
  Alcotest.(check int) "SIMULATE and ATTACK compile nothing" 0 (compiles ());
  verify h "spanning";
  Alcotest.(check int) "the prepared key compiles on its first VERIFY" 1
    (compiles ());
  List.iter
    (fun fl ->
      handle h
        (Protocol.Verify { scheme = "spanning"; graph; flip = Some fl })
        "flipped verify"
        (function Protocol.Verdict _ -> true | _ -> false))
    [ (3, 1); (3, 1); (70, 2) ];
  Alcotest.(check int) "flipped VERIFYs sweep the entry's kernel" 1
    (compiles ())

(* A sweep's [max_bits] comes from the compiled kernel, whether
   [Engine.run_par] compiles it or a caller keeps it for
   [Engine.sweep], and from [Scheme.max_cert_bits] with compilation
   off.  Each must equal a plain fold over the certificates, for a
   plane-backed lowering (spanning) and a boxed one (lcl:mis), on
   all-empty, mixed-length and honest arrays.  After one element is
   replaced in place by a longer certificate, [max_bits] must follow
   it. *)
let max_bits_on_every_path () =
  let reference certs =
    Array.fold_left (fun acc c -> max acc (Bitstring.length c)) 0 certs
  in
  let inst = Instance.make (Gen.random_tree (Rng.make 17) 150) in
  let n = Instance.n inst in
  let rng = Rng.make 23 in
  let mis = (Option.get (Registry.find "lcl:mis")).Registry.scheme in
  List.iter
    (fun scheme ->
      let arrays =
        [
          ("empty", Array.make n Bitstring.empty);
          ( "mixed",
            Array.init n (fun v ->
                if v mod 5 = 0 then Bitstring.empty
                else Rng.bits rng (Rng.int rng 40)) );
          ("honest", Option.get (scheme.Scheme.prover inst));
        ]
      in
      List.iter
        (fun (kind, certs) ->
          let check_max what want (o : Scheme.outcome) =
            Alcotest.(check int)
              (Printf.sprintf "%s, %s certificates, %s" scheme.Scheme.name kind
                 what)
              want o.Scheme.max_bits
          in
          let run_par what want =
            check_max what want (Engine.run_par ~pool:pool4 scheme inst certs)
          in
          let want = reference certs in
          run_par "run_par" want;
          let kernel = Vcompile.compile scheme inst certs in
          check_max "kept kernel" want
            (Engine.sweep ~pool:pool4 kernel scheme inst certs);
          with_compilation false (fun () -> run_par "compilation off" want);
          certs.(n / 2) <- Bitstring.of_string (String.make (want + 3) '1');
          run_par "longer certificate in place" (reference certs))
        arrays)
    [ Spanning_tree.scheme (); mis ]

(* ------------------------------------------------------------------ *)
(* Work counts and the large-n plane path                              *)
(* ------------------------------------------------------------------ *)

(* A plane-backed compile decodes each vertex's certificate exactly
   once — no per-slot and no per-distinct-certificate pass.  A boxed
   lowering decodes once per distinct certificate. *)
let decode_work_counts () =
  let calls = ref 0 in
  let decode ~id_bits:_ c =
    incr calls;
    Bitstring.length c
  in
  let flat =
    Scheme.flat_lowering
      {
        Scheme.width = 1;
        read = (fun ~id_bits c plane base -> plane.(base) <- decode ~id_bits c);
        check_flat =
          (fun ~id_bits:_ ~me:_ ~label:_ ~mine ~mbase ~ids:_ ~plane ~lo ~hi ->
            let ok = ref true in
            for i = lo to hi - 1 do
              if plane.(i) <> mine.(mbase) then ok := false
            done;
            if !ok then Accept else Reject "lengths differ");
      }
  in
  let boxed =
    {
      Scheme.decode;
      check =
        (fun ~id_bits:_ ~me:_ ~label:_ _ ~ids:_ ~src:_ ~decs:_ ~lo:_ ~hi:_ ->
          Accept);
      flat = None;
    }
  in
  let prover _ = None in
  let n = 1000 in
  let inst =
    Instance.with_random_ids (Rng.make 3)
      (Instance.make (Gen.random_tree (Rng.make 3) n))
  in
  let certs =
    Array.init n (fun v -> Bitstring.of_string (String.make (v mod 7) '1'))
  in
  let s = Scheme.of_lowering ~name:"count-flat" ~prover flat in
  calls := 0;
  let kernel = Option.get (Vcompile.compile s inst certs) in
  Alcotest.(check int) "plane compile decodes n certificates" n !calls;
  Alcotest.(check int) "plane compile takes max_bits" 6 kernel.Vcompile.max_bits;
  check "kernel agrees" true
    (List.for_all
       (fun v ->
         kernel.Vcompile.check v = Scheme.verify s (Scheme.view_of inst certs v))
       (Graph.vertices inst.Instance.graph));
  let b = Scheme.of_lowering ~name:"count-boxed" ~prover boxed in
  calls := 0;
  let kb = Option.get (Vcompile.compile b inst certs) in
  Alcotest.(check int) "boxed compile decodes each distinct certificate" 7
    !calls;
  Alcotest.(check int) "boxed compile takes max_bits" 6 kb.Vcompile.max_bits

(* A boxed compile keeps one decoded value per vertex: rows hold
   neighbor ids and vertex indices, never a per-slot copy of a
   neighbor's value.  Arrays past the minor heap's size limit go
   straight to the major heap, so the direct major words
   ([major_words - promoted_words]) of one compile count its large
   arrays exactly.  The bound is the layout: the 2m-slot [nbr_ids],
   the vertex-indexed values and the decode table's buckets (2n), and
   4096 words for the small structures; a 2m-entry copy of the values,
   or an n-entry copy of the certificate array, exceeds it.
   [Gc.counters] reads the calling domain's counters ([Gc.quick_stat]
   would fold in the idle pool domains' at whatever point they were
   last published). *)
let boxed_compile_words () =
  let g = Result.get_ok (Spec.parse "random-tree:65536:8") in
  let n = Graph.n g and m = Graph.m g in
  let scheme = (Option.get (Registry.find "lcl:mis")).Registry.scheme in
  let inst = Instance.make g in
  let certs = Scheme.intern scheme (Option.get (scheme.Scheme.prover inst)) in
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct () in
  ignore (Option.get (Vcompile.compile scheme inst certs));
  let words = direct () -. before in
  let bound = (2 * n) + (2 * m) + 4096 in
  if words > float bound then
    Alcotest.failf "lcl:mis: one compile allocates %.0f direct major words (bound %d)"
      words bound

(* A spanning compile decodes each certificate straight into its
   plane row: one [Bitbuf.Reader] (3 words) per vertex, and no decoded
   record, option or decode closure.  The planes and the rows are past
   the minor heap's size limit, so the minor words of one compile are
   its per-vertex garbage plus a constant.
   [Gc.minor_words] reads the calling domain's count exactly; the
   minor figure of [Gc.counters] counts only part of the minor heap
   not yet collected. *)
let plane_compile_minor_words () =
  let g = Result.get_ok (Spec.parse "random-tree:65536:1") in
  let n = Graph.n g in
  let scheme = (Option.get (Registry.find "spanning")).Registry.scheme in
  let inst = Instance.make g in
  let certs = Scheme.intern scheme (Option.get (scheme.Scheme.prover inst)) in
  let before = Gc.minor_words () in
  ignore (Option.get (Vcompile.compile scheme inst certs));
  let per_vertex = (Gc.minor_words () -. before) /. float n in
  if per_vertex > 4. then
    Alcotest.failf "spanning: one compile allocates %.2f minor words per vertex (bound 4)"
      per_vertex

(* The plane path at arena scale: at least 2¹⁶ vertices, so
   [Cert_store.intern_all] hands the kernel byte-offset views into
   shared chunks, and random ids, so CSR rows arrive out of id order
   and take the row sort.  A star with random ids adds one long
   unsorted hub row; rooting the tree at a leaf makes the hub's parent
   one of its row's slots, so a slot whose id and fields come from
   different vertices changes a verdict.  Every vertex's kernel
   verdict must equal the interpreted one, reason strings included, on
   honest and corrupted certificates. *)
let large_plane_differential () =
  let rng = Rng.make 2024 in
  let n = (1 lsl 16) + 123 in
  let tree =
    Instance.with_random_ids rng (Instance.make (Gen.random_tree rng n))
  in
  let star = Instance.with_random_ids rng (Instance.make (Gen.star 300)) in
  let unsorted (inst : Instance.t) =
    let g = inst.Instance.graph in
    List.exists
      (fun v ->
        let row = Array.map (Instance.id_of inst) (Graph.neighbors g v) in
        let sorted = Array.copy row in
        Array.sort Int.compare sorted;
        row <> sorted)
      (Graph.vertices g)
  in
  check "random ids leave rows unsorted" true (unsorted tree && unsorted star);
  (* the count scheme's prover declines the 300-vertex star; the
     labels of a count that accepts any total make its root reject *)
  let any_count = Spanning_tree.vertex_count ~expected:(fun _ -> true) "any" in
  let rejected = ref 0 in
  List.iter
    (fun (scheme : Scheme.t) ->
      List.iter
        (fun inst ->
          let honest =
            match scheme.Scheme.prover inst with
            | Some c -> c
            | None -> Option.get (any_count.Scheme.prover inst)
          in
          let packs = (Cert_store.stats ()).Cert_store.arena_packs in
          let interned = Cert_store.intern_all honest in
          if Instance.n inst >= 1 lsl 16 then
            check "certificates are arena-packed" true
              ((Cert_store.stats ()).Cert_store.arena_packs = packs + 1);
          List.iter
            (fun certs ->
              let kernel =
                (Option.get (Vcompile.compile scheme inst certs)).Vcompile.check
              in
              for v = 0 to Instance.n inst - 1 do
                let want = Scheme.verify scheme (Scheme.view_of inst certs v) in
                if want <> Accept then incr rejected;
                if kernel v <> want then
                  Alcotest.failf "%s: vertex %d disagrees" scheme.Scheme.name v
              done)
            [ interned; corrupt rng interned; corrupt rng interned ])
        [ tree; star ])
    [
      Spanning_tree.scheme ~root:1 ();
      Spanning_tree.acyclicity;
      Spanning_tree.vertex_count ~root:1
        ~expected:(fun k -> k > 1000)
        "over 1000";
    ];
  check "corruptions are rejected somewhere" true (!rejected > 0)

let suite =
  [
    ( "vcompile:differential",
      [
        QCheck_alcotest.to_alcotest qcheck_kernel_per_vertex;
        QCheck_alcotest.to_alcotest qcheck_swap_per_vertex;
        QCheck_alcotest.to_alcotest qcheck_row_check_per_vertex;
        Alcotest.test_case "every family compiles" `Quick lowered_coverage;
        Alcotest.test_case "decode work counts" `Quick decode_work_counts;
        Alcotest.test_case "one decoded value per vertex" `Quick
          boxed_compile_words;
        Alcotest.test_case "plane rows read without garbage" `Quick
          plane_compile_minor_words;
        Alcotest.test_case "large-n plane differential" `Quick
          large_plane_differential;
      ] );
    ( "vcompile:end-to-end",
      [
        QCheck_alcotest.to_alcotest qcheck_engine_jobs_ladder;
        QCheck_alcotest.to_alcotest qcheck_runtime_compiled_flag;
        Alcotest.test_case "disabled compilation is equivalent" `Quick
          disabled_compilation_is_equivalent;
        Alcotest.test_case "an execute leaves nothing behind" `Quick
          execute_leaves_nothing;
        Alcotest.test_case "engine.compiled_hits counts kernel verdicts" `Quick
          compiled_hits_counted;
        Alcotest.test_case "a kernel is compiled once per prepared entry"
          `Quick kernel_per_prepared_entry;
        Alcotest.test_case "max_bits on every path" `Quick
          max_bits_on_every_path;
      ] );
  ]
