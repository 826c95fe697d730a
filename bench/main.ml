(* Benchmark executable: first regenerate every experiment section
   (E1–E12, the paper's "tables and figures"), then run Bechamel timing
   benches for the provers and verifiers of the main schemes.

   `dune exec bench/main.exe` runs both; pass `--experiments` or
   `--timings` to run only one part.  The exit status is 1 when any E12
   completeness or soundness audit fails.  The repository's oracle-checked,
   layer-attributed benchmark is perfbench/run.py, not this executable. *)

let ols =
  Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true
    ~predictors:[| Bechamel.Measure.run |]

let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ]

let benchmark tests =
  let cfg =
    Bechamel.Benchmark.cfg ~limit:1000 ~stabilize:true
      ~quota:(Bechamel.Time.second 0.25) ()
  in
  Bechamel.Benchmark.all cfg instances tests

let report name raw =
  Printf.printf "\n-- %s (ns/run, OLS on monotonic clock) --\n" name;
  let results =
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold
      (fun key ols_result acc ->
        let est =
          match Bechamel.Analyze.OLS.estimates ols_result with
          | Some (v :: _) -> v
          | _ -> nan
        in
        (key, est) :: acc)
      results []
  in
  List.iter
    (fun (key, est) -> Printf.printf "  %-52s %14.0f\n" key est)
    (List.sort compare rows)

(* Prepared inputs: all allocation outside the staged closures. *)

let staged = Bechamel.Staged.stage

let timing_tests pool =
  let open Bechamel in
  (* E1 timing: spanning-tree + count prover/verifier at n = 256 *)
  let g256 = Gen.random_tree (Rng.make 1) 256 in
  let i256 = Instance.make g256 in
  let count_scheme =
    Spanning_tree.vertex_count ~expected:(fun n -> n = 256) "n=256"
  in
  let count_certs = Option.get (count_scheme.Scheme.prover i256) in
  (* E2 timing: tree-MSO prover/verifier on an even path (which is
     guaranteed to have a perfect matching) *)
  let ipath256 = Instance.make (Gen.path 256) in
  let pm_scheme = Tree_mso.make Library.has_perfect_matching.Library.auto in
  let pm_certs = Option.get (pm_scheme.Scheme.prover ipath256) in
  (* E4 timing: treedepth certification on P255 *)
  let p255 = Gen.path 255 in
  let ip255 = Instance.make p255 in
  let td_scheme = Treedepth_cert.make_with_model ~t:8 (Elimination.of_path 255) in
  let td_certs = Option.get (td_scheme.Scheme.prover ip255) in
  (* E7 timing: kernel-MSO on a caterpillar *)
  let cat = Gen.caterpillar ~spine:3 ~legs:16 in
  let icat = Instance.make cat in
  let tri_free =
    Parser.parse_exn "forall x. forall y. forall z. ~(x -- y & y -- z & x -- z)"
  in
  let cat_model =
    Elimination.coherentize (Elimination.of_caterpillar ~spine:3 ~legs:16) cat
  in
  let km_scheme = Kernel_mso.make_with_model ~t:4 cat_model tri_free in
  let km_certs = Option.get (km_scheme.Scheme.prover icat) in
  (* engine: sequential vs domain-parallel verification at large n; the
     parallel case sweeps a kernel compiled here, outside the timing *)
  let ipath4096 = Instance.make (Gen.path 4096) in
  let pm4096_certs = Option.get (pm_scheme.Scheme.prover ipath4096) in
  let pm4096_kernel = Vcompile.compile pm_scheme ipath4096 pm4096_certs in
  (* treedepth substrate *)
  let gadget_eq =
    (Treedepth_gadget.build_from_permutations ~m:2 [| 0; 1 |] [| 0; 1 |])
      .Instance.graph
  in
  Test.make_grouped ~name:"localcert" ~fmt:"%s/%s"
    [
      Test.make_grouped ~name:"prover" ~fmt:"%s/%s"
        [
          Test.make ~name:"spanning-count-n256"
            (staged (fun () -> count_scheme.Scheme.prover i256));
          Test.make ~name:"tree-mso-pm-n256"
            (staged (fun () -> pm_scheme.Scheme.prover ipath256));
          Test.make ~name:"treedepth-P255"
            (staged (fun () -> td_scheme.Scheme.prover ip255));
          Test.make ~name:"kernel-mso-caterpillar51"
            (staged (fun () -> km_scheme.Scheme.prover icat));
        ];
      Test.make_grouped ~name:"verifier" ~fmt:"%s/%s"
        [
          Test.make ~name:"spanning-count-n256"
            (staged (fun () -> Scheme.run count_scheme i256 count_certs));
          Test.make ~name:"tree-mso-pm-n256"
            (staged (fun () -> Scheme.run pm_scheme ipath256 pm_certs));
          Test.make ~name:"treedepth-P255"
            (staged (fun () -> Scheme.run td_scheme ip255 td_certs));
          Test.make ~name:"kernel-mso-caterpillar51"
            (staged (fun () -> Scheme.run km_scheme icat km_certs));
        ];
      Test.make_grouped ~name:"engine" ~fmt:"%s/%s"
        [
          Test.make ~name:"run-seq/tree-mso-pm-n4096"
            (staged (fun () -> Scheme.run pm_scheme ipath4096 pm4096_certs));
          Test.make
            ~name:(Printf.sprintf "run-par%d/tree-mso-pm-n4096" (Pool.size pool))
            (staged (fun () ->
                 Engine.sweep ~pool pm4096_kernel ipath4096));
        ];
      Test.make_grouped ~name:"substrate" ~fmt:"%s/%s"
        [
          Test.make ~name:"exact-treedepth-gadget-m2"
            (staged (fun () -> Exact.treedepth gadget_eq));
          Test.make ~name:"cops-robber-C8"
            (staged (fun () -> Cops_robber.cop_number (Gen.cycle 8)));
          Test.make ~name:"ef-equiv2-P6-P7"
            (staged (fun () -> Ef.equiv 2 (Gen.path 6) (Gen.path 7)));
        ];
    ]

(* Wall-clock seq-vs-par comparison on the largest E-series instances.
   Bechamel's OLS is great for ns-scale closures but the engine story is
   a milliseconds-scale one; a direct measurement (1 warmup, then the
   mean of [reps]) reads better and prints the speedup explicitly.  The
   parallel column times [Engine.sweep] of a kernel compiled once before
   the loop, so it measures the sweep, not the compile. *)

let wall ~reps f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let engine_comparison pool =
  let jobs = Pool.size pool in
  (* E1: spanning-tree + vertex count at n = 16384 *)
  let n1 = 16384 in
  let i1 = Instance.make (Gen.random_tree (Rng.make 1) n1) in
  let s1 =
    Spanning_tree.vertex_count ~expected:(fun n -> n = n1) "n=16384"
  in
  let c1 = Option.get (s1.Scheme.prover i1) in
  (* E2: tree-MSO perfect matching on P4096 *)
  let n2 = 4096 in
  let i2 = Instance.make (Gen.path n2) in
  let s2 = Tree_mso.make Library.has_perfect_matching.Library.auto in
  let c2 = Option.get (s2.Scheme.prover i2) in
  (* E4: treedepth certification on P2047 *)
  let n3 = 2047 in
  let i3 = Instance.make (Gen.path n3) in
  let s3 = Treedepth_cert.make_with_model ~t:11 (Elimination.of_path n3) in
  let c3 = Option.get (s3.Scheme.prover i3) in
  (* E7: kernel-MSO triangle-freeness on a wide caterpillar *)
  let spine = 3 and legs = 64 in
  let g4 = Gen.caterpillar ~spine ~legs in
  let i4 = Instance.make g4 in
  let tri_free =
    Parser.parse_exn
      "forall x. forall y. forall z. ~(x -- y & y -- z & x -- z)"
  in
  let model4 =
    Elimination.coherentize (Elimination.of_caterpillar ~spine ~legs) g4
  in
  let s4 = Kernel_mso.make_with_model ~t:4 model4 tri_free in
  let c4 = Option.get (s4.Scheme.prover i4) in
  Printf.printf
    "\n-- engine: Scheme.run vs Engine.sweep, --jobs %d (ms/run, mean) --\n"
    jobs;
  Printf.printf "  %-28s %7s %10s %10s %9s\n" "scheme" "n" "seq" "par" "speedup";
  List.iter
    (fun (name, scheme, inst, certs, reps) ->
      let seq = wall ~reps (fun () -> Scheme.run scheme inst certs) in
      let kernel = Vcompile.compile scheme inst certs in
      let par =
        wall ~reps (fun () -> Engine.sweep ~pool kernel inst)
      in
      Printf.printf "  %-28s %7d %9.2f %9.2f %8.2fx\n" name
        (Instance.n inst) (seq *. 1e3) (par *. 1e3) (seq /. par))
    [
      ("spanning-count", s1, i1, c1, 20);
      ("tree-mso-pm", s2, i2, c2, 20);
      ("treedepth", s3, i3, c3, 20);
      ("kernel-mso-caterpillar", s4, i4, c4, 10);
    ];
  (* parallel adversarial probing, same seed at every job count *)
  let attack_trials = 2000 in
  let seq_attack =
    wall ~reps:3 (fun () ->
        Engine.attack_par ~jobs:1 (Rng.make 7) s2 i2 ~trials:attack_trials
          ~max_bits:8)
  in
  let par_attack =
    wall ~reps:3 (fun () ->
        Engine.attack_par ~pool (Rng.make 7) s2 i2 ~trials:attack_trials
          ~max_bits:8)
  in
  Printf.printf "  %-28s %7d %9.2f %9.2f %8.2fx\n"
    (Printf.sprintf "attack-par (%d trials)" attack_trials)
    (Instance.n i2) (seq_attack *. 1e3) (par_attack *. 1e3)
    (seq_attack /. par_attack)

let jobs_of_argv argv =
  let rec go = function
    | "--jobs" :: v :: _ -> int_of_string v
    | arg :: rest ->
        (match String.length arg > 7 && String.sub arg 0 7 = "--jobs=" with
        | true -> int_of_string (String.sub arg 7 (String.length arg - 7))
        | false -> go rest)
    | [] -> Domain.recommended_domain_count ()
  in
  go argv

(* `--metrics FILE` turns telemetry on for the whole bench run and
   writes the final snapshot.  The timing numbers then include the
   (one-branch) telemetry overhead, so timing runs whose figures get
   quoted should not pass it. *)
let metrics_of_argv argv =
  let rec go = function
    | "--metrics" :: v :: _ -> Some v
    | arg :: rest ->
        if String.length arg > 10 && String.sub arg 0 10 = "--metrics=" then
          Some (String.sub arg 10 (String.length arg - 10))
        else go rest
    | [] -> None
  in
  go argv

let () =
  let argv = Array.to_list Sys.argv in
  let experiments = List.mem "--experiments" argv in
  let timings = List.mem "--timings" argv in
  let all = (not experiments) && not timings in
  let metrics_out = metrics_of_argv argv in
  if metrics_out <> None then Metrics.set_enabled true;
  let audit_failures =
    if experiments || all then Experiments.run_all () else 0
  in
  if timings || all then begin
    Printf.printf "\n================================================================\n";
    Printf.printf "Timing benches (Bechamel)\n";
    Printf.printf "================================================================\n";
    Pool.with_pool ~jobs:(jobs_of_argv argv) (fun pool ->
        engine_comparison pool;
        report "all schemes" (benchmark (timing_tests pool)))
  end;
  (match metrics_out with
  | None -> ()
  | Some path ->
      Export.write_file path (Export.snapshot ());
      Printf.printf "\nmetrics written to %s\n" path);
  if audit_failures > 0 then begin
    Printf.eprintf "E12: %d scheme audit(s) failed\n" audit_failures;
    exit 1
  end
