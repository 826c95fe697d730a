(* localcert — command-line front end.

   Subcommands:
     eval       evaluate an FO/MSO sentence on a graph
     treedepth  exact treedepth and an optimal elimination tree
     certify    run a certification scheme end-to-end (sizes, attacks)
     attack     adversarial soundness probes (corruptions, transplant, ...)
     simulate   round-based distributed execution with fault injection
     serve      certification server (binary protocol, batching, admission)
     loadgen    open-loop latency load generator for the server
     gadget     build the Section-7 lower-bound gadgets
     stats      telemetry snapshots (demo, validate, remote, percentiles)
     trace-merge merge/validate Chrome trace-event files from --trace
     experiments (pointer to bench/main.exe)

   Graph specifications (for --graph): the pure Spec grammar
     path:N cycle:N star:N clique:N cbt:H caterpillar:S:L spider:L:LEN
     grid:R:C random-tree:N:SEED random-btd:N:DEPTH:SEED
     g6:... edges:0-1,1-2,...
   plus the CLI-only file:PATH (edge list or graph6, sniffed).        *)

open Cmdliner

(* A user error found after argument parsing: a scheme that needs a
   flag it was not given, a prover that declines the instance a
   command needs certified, a fault plan that does not fit the graph,
   an input file that does not parse.  [usage_errors] reports it the
   way cmdliner reports a bad argument (one line, the CLI-error
   status), not as an uncaught exception. *)
exception Usage of string

let usage msg = raise (Usage msg)
let usage_errors f = try Ok (f ()) with Usage msg -> Error (`Msg msg)

(* ------------------------------------------------------------------ *)
(* Graph specification parsing                                         *)
(* ------------------------------------------------------------------ *)

(* Pure spec forms (path:N, random-tree:N:SEED, ...) live in
   Graph.Spec, shared with the wire protocol so a server request names
   the same graphs --graph does.  Only file:PATH stays here: specs
   arriving over the network must never touch the filesystem. *)
let parse_graph spec =
  let fail msg = Error (`Msg msg) in
  match String.split_on_char ':' spec with
  | [ "file"; path ] -> (
      (* sniff the first line only: an edge-list header is "n m",
         separated by any whitespace the scanner takes; otherwise
         graph6.  Edge lists stream through [Io.of_edge_list_file]
         (two counting passes over the file, CSR built directly), so a
         multi-million-edge input never needs to fit in memory. *)
      match
        let ic = open_in path in
        let first_line = try input_line ic with End_of_file -> "" in
        close_in ic;
        first_line
      with
      | first_line ->
          if Io.is_edge_list_header first_line then
            Result.map_error (fun e -> `Msg e) (Io.of_edge_list_file path)
          else (
            match
              let ic = open_in path in
              let len = in_channel_length ic in
              let content = really_input_string ic len in
              close_in ic;
              content
            with
            | content -> Result.map_error (fun e -> `Msg e) (Io.of_graph6 content)
            | exception Sys_error e -> fail e)
      | exception Sys_error e -> fail e)
  | _ -> Result.map_error (fun e -> `Msg e) (Spec.parse spec)

let graph_conv =
  Arg.conv
    ( (fun s -> parse_graph s),
      fun ppf _ -> Format.pp_print_string ppf "<graph>" )

let formula_conv =
  Arg.conv
    ( (fun s ->
        match Parser.parse s with
        | Ok f -> Ok f
        | Error e -> Error (`Msg ("formula: " ^ e))),
      fun ppf f -> Formula.pp ppf f )

let graph_arg =
  Arg.(
    required
    & opt (some graph_conv) None
    & info [ "g"; "graph" ] ~docv:"SPEC" ~doc:"Graph specification.")

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

let eval_cmd =
  let run g phi =
    if Graph.n g > 20 && not (Formula.is_fo phi) then
      Printf.eprintf "warning: MSO evaluation is exponential; this may be slow\n";
    Printf.printf "n=%d m=%d  rank=%d  fo=%b\n" (Graph.n g) (Graph.m g)
      (Formula.quantifier_rank phi) (Formula.is_fo phi);
    Printf.printf "G |= phi : %b\n" (Eval.sentence g phi)
  in
  let formula_arg =
    Arg.(
      required
      & opt (some formula_conv) None
      & info [ "f"; "formula" ] ~docv:"FORMULA" ~doc:"FO/MSO sentence.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate an FO/MSO sentence on a graph")
    Term.(const run $ graph_arg $ formula_arg)

(* ------------------------------------------------------------------ *)
(* treedepth                                                           *)
(* ------------------------------------------------------------------ *)

let treedepth_cmd =
  let run g show_model cops =
    if Graph.n g > 22 then
      Printf.eprintf "warning: exact treedepth is exponential; n=%d is large\n"
        (Graph.n g);
    let td = Exact.treedepth g in
    Printf.printf "treedepth = %d (levels; K1 has treedepth 1)\n" td;
    if show_model then begin
      let model = Exact.optimal_model g in
      Format.printf "%a@." Elimination.pp model;
      Printf.printf "coherent: %b\n" (Elimination.is_coherent model g)
    end;
    if cops then begin
      Printf.printf "cops-and-robber game value: %d\n" (Cops_robber.cop_number g);
      let strat = Cops_robber.optimal_strategy g in
      let robber options = List.fold_left max (List.hd options) options in
      Printf.printf "optimal cop play vs fleeing robber: %s\n"
        (String.concat " -> "
           (List.map string_of_int (Cops_robber.play g strat ~robber)))
    end
  in
  let model_flag =
    Arg.(value & flag & info [ "model" ] ~doc:"Print an optimal elimination tree.")
  in
  let cops_flag =
    Arg.(value & flag & info [ "cops" ] ~doc:"Also play the cops-and-robber game.")
  in
  Cmd.v
    (Cmd.info "treedepth" ~doc:"Exact treedepth of a graph")
    Term.(const run $ graph_arg $ model_flag $ cops_flag)

(* ------------------------------------------------------------------ *)
(* certify                                                             *)
(* ------------------------------------------------------------------ *)

let scheme_of_name name ~t ~formula =
  let need_formula what =
    match formula with
    | Some f -> f
    | None -> usage (what ^ " needs --formula")
  in
  match name with
  | "spanning" -> Spanning_tree.scheme ()
  | "acyclic" -> Spanning_tree.acyclicity
  | "treedepth" -> Treedepth_cert.make ~t ()
  | "kernel-mso" -> Kernel_mso.make ~t (need_formula "kernel-mso")
  | "existential" -> Existential_fo.make (need_formula "existential")
  | "universal" -> Universal.of_formula (need_formula "universal")
  | "path-minor-free" -> Minor_free.path_minor_free ~t
  | _ -> (
      (* tree-mso:<library automaton name>, or depth2:<primitive> *)
      match String.index_opt name ':' with
      | Some i -> (
          let kind = String.sub name 0 i in
          let arg = String.sub name (i + 1) (String.length name - i - 1) in
          match kind with
          | "tree-mso" -> (
              match List.assoc_opt arg Library.all_named with
              | Some e -> Tree_mso.make e.Library.auto
              | None -> usage ("unknown automaton " ^ arg))
          | "tree-mso-table" -> (
              match List.assoc_opt arg Localcert_automata.Uop.all_named with
              | Some table -> Tree_mso.make_table table
              | None -> usage ("unknown UOP table " ^ arg))
          | "lcl" -> (
              match arg with
              | "mis" ->
                  Lcl.scheme_of_search Lcl.maximal_independent_set
                    ~solve:(fun g -> Some (Lcl.greedy_mis g))
              | "weak2" ->
                  Lcl.scheme_of_search Lcl.weak_2_coloring
                    ~solve:(fun g -> Some (Lcl.bfs_parity_coloring g))
              | _ -> (
                  match int_of_string_opt arg with
                  | Some c ->
                      Lcl.scheme_of_search (Lcl.proper_coloring ~colors:c)
                        ~solve:(Lcl.greedy_coloring ~colors:c)
                  | None -> usage "lcl:<mis|weak2|COLORS>"))
          | "depth2" -> (
              match List.assoc_opt arg Depth2_fo.primitives with
              | Some s -> s
              | None -> usage ("unknown depth-2 primitive " ^ arg))
          | _ -> usage ("unknown scheme " ^ name))
      | None -> usage ("unknown scheme " ^ name))

(* Arguments shared by certify, attack and simulate. *)

let name_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "scheme" ] ~docv:"NAME"
        ~doc:
          "Scheme: spanning, acyclic, treedepth, kernel-mso, existential, \
           universal, path-minor-free, tree-mso:PROP, \
           tree-mso-table:TABLE, lcl:(mis|weak2|COLORS), depth2:PRIM.")

let t_arg =
  Arg.(
    value & opt int 4
    & info [ "t" ] ~doc:"Treedepth bound for treedepth/kernel schemes.")

let formula_arg =
  Arg.(
    value
    & opt (some formula_conv) None
    & info [ "f"; "formula" ] ~docv:"FORMULA" ~doc:"Sentence, where required.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Random seed; every run is reproducible from it.")

let jobs_conv =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some j when j >= 1 && j <= 128 -> Ok j
        | Some _ | None ->
            Error (`Msg "expected a job count between 1 and 128")),
      Format.pp_print_int )

(* Counts that must be at least 1: cmdliner rejects anything else
   before the command runs. *)
let positive_conv =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some k when k >= 1 -> Ok k
        | Some _ | None -> Error (`Msg "expected a positive integer")),
      Format.pp_print_int )

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run on $(docv) domains in parallel (default: the number of \
           cores).  Results are identical at every job count: verification \
           outcomes are exact, and all randomness is keyed to trial or \
           (round, vertex) positions, not domains.")

(* Shared by certify and simulate: both verify through the engine's
   compiled fast path unless --no-compiled is given. *)
let compiled_arg =
  let no_compiled =
    Arg.(
      value & flag
      & info [ "no-compiled" ]
          ~doc:
            "Force the interpreted verifier everywhere.  Verdicts are \
             identical to the compiled path; useful for differential \
             checks and perf comparisons.")
  in
  Term.(const not $ no_compiled)

(* ------------------------------------------------------------------ *)
(* Telemetry flags (shared by certify and simulate)                    *)
(* ------------------------------------------------------------------ *)

let log_conv =
  Arg.conv
    ( (fun s ->
        match Logger.level_of_string s with
        | Ok l -> Ok l
        | Error e -> Error (`Msg e)),
      fun ppf l ->
        Format.pp_print_string ppf
          (match l with None -> "off" | Some l -> Logger.level_to_string l) )

let log_arg =
  Arg.(
    value
    & opt (some log_conv) None
    & info [ "log" ] ~docv:"LEVEL"
        ~doc:
          "Log level: off, error, warn, info or debug (logfmt lines on \
           stderr).  Overrides the LOCALCERT_LOG environment variable.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write a JSON metrics snapshot to $(docv) on \
           exit.  The deterministic section (counters, gauges, histograms) is \
           identical across same-seed runs at any job count; timings and \
           approximate metrics live in a separate section.")

(* Applied around a subcommand body: --log sets the level first,
   --metrics switches recording on so the snapshot written afterwards
   has data in it, and --trace switches the event tracer on.  Without
   them, telemetry stays off and every instrument update is a single
   load-and-branch.

   The snapshot and trace flushes are registered as Shutdown cleanups
   rather than written inline: an interrupted run (SIGINT mid-sweep,
   SIGTERM from a supervisor — exactly how CI stops `serve`) still
   flushes valid artifacts before exiting 130/143.  Cleanups are
   one-shot, so the normal-exit flush and a racing signal never write
   twice. *)
let with_telemetry ?trace ?(trace_process = "localcert") log metrics f =
  (match log with None -> () | Some l -> Logger.set_level l);
  (match metrics with
  | None -> ()
  | Some path ->
      Metrics.set_enabled true;
      Shutdown.add_cleanup (fun () ->
          Export.write_file path (Export.snapshot ());
          Printf.printf "metrics written to %s\n%!" path);
      Shutdown.install ());
  (match trace with
  | None -> ()
  | Some path ->
      Tracer.set_enabled true;
      Shutdown.add_cleanup (fun () ->
          Tracer.write_file ~process_name:trace_process path;
          Printf.printf "trace written to %s\n%!" path);
      Shutdown.install ());
  (* [~finally] rather than run-on-return: an exception exit (a [Usage]
     error, a prover blowing up) must still flush the
     snapshot — that is the whole point of registering it. *)
  Fun.protect ~finally:Shutdown.run_cleanups f

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable request-scoped event tracing and write a Chrome \
           trace-event JSON document to $(docv) on exit (open it at \
           ui.perfetto.dev).  Without this flag every trace emitter is a \
           single load-and-branch.")

let trace_rate_conv =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some r when r >= 0. && r <= 1. -> Ok r
        | Some _ | None ->
            Error (`Msg "expected a sampling rate between 0 and 1")),
      Format.pp_print_float )

let certify_cmd =
  let run g name t formula attack seed jobs compiled log metrics trace =
    usage_errors @@ fun () ->
    with_telemetry ?trace ~trace_process:"localcert-certify" log metrics
    @@ fun () ->
    Vcompile.set_enabled compiled;
    let scheme = scheme_of_name name ~t ~formula in
    let instance = Instance.make g in
    Printf.printf "scheme: %s\ninstance: n=%d m=%d, %d-bit ids\n"
      scheme.Scheme.name (Graph.n g) (Graph.m g) instance.Instance.id_bits;
    Pool.with_pool ?jobs (fun pool ->
        if Pool.size pool > 1 then
          Printf.printf "engine: %d domains\n" (Pool.size pool);
        (* always the engine sweep (inline when the pool has one
           domain): that is where the compiled fast path lives, and
           with compilation off it matches Scheme.run exactly. *)
        let verify certs = Engine.run_par ~pool scheme instance certs in
        match
          Tracer.with_slice Scheme.prover_timer (fun () ->
              scheme.Scheme.prover instance)
        with
        | Some certs ->
            let certs = Scheme.intern scheme certs in
            Scheme.record_cert_sizes scheme certs;
            let outcome =
              Tracer.with_slice Scheme.verify_timer (fun () -> verify certs)
            in
            Logger.debug
              ~fields:
                [
                  ("scheme", scheme.Scheme.name);
                  ("accepted", string_of_bool outcome.Scheme.accepted);
                  ("max_bits", string_of_int outcome.Scheme.max_bits);
                ]
              "certify done";
            Printf.printf "prover: certificates assigned (max %d bits)\n"
              outcome.Scheme.max_bits;
            Printf.printf "verifier: all nodes accept = %b\n"
              outcome.Scheme.accepted;
            List.iter
              (fun (v, r) -> Printf.printf "  node %d rejects: %s\n" v r)
              outcome.Scheme.rejections;
            if attack > 0 then begin
              let r =
                Attack.corruptions (Rng.make seed) scheme instance ~base:certs
                  ~trials:attack
              in
              Printf.printf
                "attack: %d corruptions of the valid certificates tried; some \
                 corruption kept everyone accepting: %b (harmless if the \
                 property still holds)\n"
                r.Attack.trials
                (r.Attack.fooled <> None);
              match r.Attack.near_miss with
              | Some (v, reason) ->
                  Printf.printf "  last near-miss stopped at node %d: %s\n" v
                    reason
              | None -> ()
            end
        | None -> (
            Printf.printf "prover: declined (no-instance or unsupported size)\n";
            if attack > 0 then
              let r =
                Engine.attack_par ~pool (Rng.make seed) scheme instance
                  ~trials:attack ~max_bits:32
              in
              match r.Attack.fooled with
              | None ->
                  Printf.printf
                    "attack: %d forged certificate assignments all rejected\n"
                    r.Attack.trials
              | Some _ ->
                  Printf.printf
                    "attack: SOUNDNESS VIOLATION — a forgery was accepted\n"))
  in
  let attack_arg =
    Arg.(value & opt int 0 & info [ "attack" ] ~doc:"Also try N adversarial assignments.")
  in
  Cmd.v
    (Cmd.info "certify" ~doc:"Run a certification scheme on a graph")
    Term.(
      term_result
        (const run $ graph_arg $ name_arg $ t_arg $ formula_arg $ attack_arg
       $ seed_arg $ jobs_arg $ compiled_arg $ log_arg $ metrics_arg
       $ trace_file_arg))

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

let attack_cmd =
  let run g name t formula mode trials max_bits seed from jobs =
    usage_errors @@ fun () ->
    let scheme = scheme_of_name name ~t ~formula in
    let instance = Instance.make g in
    Printf.printf "scheme: %s\ninstance: n=%d m=%d\nmode: %s, seed %d\n"
      scheme.Scheme.name (Graph.n g) (Graph.m g) mode seed;
    let report =
      match mode with
      | "corruptions" -> (
          match scheme.Scheme.prover instance with
          | None ->
              usage
                "corruptions needs a valid base certification, but the \
                 prover declined on this instance"
          | Some base ->
              Attack.corruptions (Rng.make seed) scheme instance ~base ~trials)
      | "random" ->
          Engine.attack_par ?jobs (Rng.make seed) scheme instance ~trials
            ~max_bits
      | "exhaustive" ->
          if Instance.n instance * (max_bits + 1) > 24 then
            Printf.eprintf
              "warning: exhaustive enumerates (2^(max-bits+1)-1)^n \
               assignments; this may never finish\n";
          Attack.exhaustive scheme instance ~max_bits
      | "transplant" -> (
          match from with
          | None -> usage "transplant needs --from YES-INSTANCE"
          | Some g' ->
              Attack.transplant scheme ~from_instance:(Instance.make g')
                ~to_instance:instance)
      | m ->
          usage
            (Printf.sprintf
               "unknown mode %s (expected corruptions, random, exhaustive or \
                transplant)"
               m)
    in
    Printf.printf "trials: %d\n" report.Attack.trials;
    (match report.Attack.near_miss with
    | Some (v, reason) ->
        Printf.printf "last near-miss stopped at node %d: %s\n" v reason
    | None -> ());
    match report.Attack.fooled with
    | None -> Printf.printf "verdict: every assignment was rejected\n"
    | Some certs ->
        Printf.printf
          "verdict: FOOLED — an assignment was accepted everywhere (max %d \
           bits); a soundness violation if this is a no-instance\n"
          (Scheme.max_cert_bits certs)
  in
  let mode_arg =
    Arg.(
      value
      & opt string "random"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Probe: $(b,random) (uniform assignments on the --jobs \
             domains, drawn from streams split off --seed, so the report \
             is the same at every --jobs), $(b,corruptions) (mutations of \
             a valid certification), $(b,exhaustive) (every assignment up \
             to --max-bits), $(b,transplant) (replay a valid certification \
             of --from).")
  in
  let trials_arg =
    Arg.(
      value & opt int 1000
      & info [ "trials" ] ~docv:"N" ~doc:"Trial budget (random/corruptions).")
  in
  let max_bits_arg =
    Arg.(
      value & opt int 8
      & info [ "max-bits" ] ~docv:"B"
          ~doc:"Max certificate bits per vertex (random/exhaustive).")
  in
  let from_arg =
    Arg.(
      value
      & opt (some graph_conv) None
      & info [ "from" ] ~docv:"SPEC"
          ~doc:"Yes-instance whose certification transplant replays.")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Probe a scheme's soundness with adversarial certificates")
    Term.(
      term_result
        (const run $ graph_arg $ name_arg $ t_arg $ formula_arg $ mode_arg
       $ trials_arg $ max_bits_arg $ seed_arg $ from_arg $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let run g name t formula plan rounds seed trace_out sweep no_incremental jobs
      compiled recover log metrics trace_perfetto =
    usage_errors @@ fun () ->
    with_telemetry ?trace:trace_perfetto ~trace_process:"localcert-simulate"
      log metrics
    @@ fun () ->
    Vcompile.set_enabled compiled;
    let scheme = scheme_of_name name ~t ~formula in
    let instance = Instance.make g in
    let incremental = not no_incremental in
    let certs =
      match scheme.Scheme.prover instance with
      | Some certs -> certs
      | None ->
          usage
            "the prover declined on this instance; simulate needs an \
             initial certification (pick a yes-instance)"
    in
    Pool.with_pool ?jobs (fun pool ->
        (* A plan that does not fit this instance (out-of-range
           crashed: or edit: ids) or an out-of-range seed is
           rejected by Runtime.execute with Invalid_argument. *)
        let result =
          try
            Runtime.execute ~pool ~plan ~rounds ~seed ~incremental
              ~recover scheme instance certs
          with Invalid_argument msg -> usage msg
        in
        Format.printf "%a" Trace.pp_summary result.Runtime.trace;
        (match result.Runtime.quiesced_at with
        | Some q -> Printf.printf "quiesced_at: round %d\n" q
        | None -> Printf.printf "quiesced_at: never\n");
        if recover then begin
          let adopted =
            Array.fold_left
              (fun acc l -> acc + List.length l)
              0 result.Runtime.adopted
          in
          Printf.printf "recovery: %d certificate%s re-adopted\n" adopted
            (if adopted = 1 then "" else "s")
        end;
        (match trace_out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc (Trace.to_json result.Runtime.trace);
            output_char oc '\n';
            close_out oc;
            Printf.printf "trace written to %s\n" path);
        if sweep then begin
          Printf.printf
            "\ncorruption-rate sweep (%d rounds per run, 5 seeds per rate):\n"
            rounds;
          Printf.printf "%8s %10s %10s %12s\n" "rate" "corrupted" "detected"
            "latency";
          List.iter
            (fun rate ->
              let corrupted = ref 0 and detected = ref 0 in
              let latencies = ref [] in
              for s = 0 to 4 do
                let r =
                  Runtime.execute ~pool ~plan:(Fault.corruption rate) ~rounds
                    ~seed:((seed * 5) + s) ~incremental scheme instance
                    certs
                in
                let m = Trace.metrics r.Runtime.trace in
                if m.Trace.certs_corrupted > 0 then incr corrupted;
                if r.Runtime.detected_at <> None && m.Trace.first_corruption <> None
                then incr detected;
                match Trace.detection_latency m with
                | Some l -> latencies := l :: !latencies
                | None -> ()
              done;
              let mean_latency =
                match !latencies with
                | [] -> nan
                | ls ->
                    float_of_int (List.fold_left ( + ) 0 ls)
                    /. float_of_int (List.length ls)
              in
              Printf.printf "%8.2f %10d %10d %12.1f\n" rate !corrupted
                !detected mean_latency)
            [ 0.02; 0.05; 0.1; 0.2; 0.4 ]
        end)
  in
  let plan_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Fault.of_spec s)),
        fun ppf p -> Format.pp_print_string ppf (Fault.to_string p) )
  in
  let plan_arg =
    Arg.(
      value
      & opt plan_conv Fault.none
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: $(b,none) or comma-separated kind:value with kinds \
             drop, flip, corrupt, crash, byz (rates, byz optionally \
             byz:RATE:BITS), crashed (vertex list, e.g. crashed:0+3), \
             topology churn rates addedge and deledge, scheduled edits \
             edit:ROUND:+U-V / edit:ROUND:-U-V, and until:R to stop \
             rate-based faults after round R.")
  in
  let rounds_conv =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some r when r >= 1 -> Ok r
          | _ -> Error (`Msg "rounds must be a positive integer")),
        Format.pp_print_int )
  in
  let rounds_arg =
    Arg.(
      value & opt rounds_conv 1
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Re-verification rounds (self-stabilization mode when > 1).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the full execution trace (rounds, faults, verdicts) as \
             JSON to $(docv).  This is the runtime's semantic trace; for a \
             Perfetto timeline use --trace-perfetto.")
  in
  let trace_perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-perfetto" ] ~docv:"FILE"
          ~doc:
            "Enable request-scoped event tracing and write a Chrome \
             trace-event JSON timeline (per-round instants, fault and \
             detection marks) to $(docv).")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Also sweep corruption rates and report detection statistics.")
  in
  let no_incremental_arg =
    Arg.(
      value & flag
      & info [ "no-incremental" ]
          ~doc:
            "Disable the incremental verdict cache and re-verify every \
             vertex every round.  Results are identical either way; this is \
             an escape hatch for benchmarking and differential testing.")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Self-healing mode: after a detection, re-run the prover on the \
             edit-affected region and let vertices re-adopt the corrected \
             certificates.  The summary reports the quiescence round and \
             how many certificates were re-adopted.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute a scheme as a round-based distributed protocol")
    Term.(
      term_result
        (const run $ graph_arg $ name_arg $ t_arg $ formula_arg $ plan_arg
       $ rounds_arg $ seed_arg $ trace_arg $ sweep_arg $ no_incremental_arg
       $ jobs_arg $ compiled_arg $ recover_arg $ log_arg $ metrics_arg
       $ trace_perfetto_arg))

(* ------------------------------------------------------------------ *)
(* serve / loadgen                                                     *)
(* ------------------------------------------------------------------ *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

(* Default port: 0x4C43, the wire protocol's "LC" magic. *)
let default_port = 19523

let serve_cmd =
  let run host port workers jobs queue inflight conns batch log metrics trace
      trace_rate =
    with_telemetry ?trace ~trace_process:"localcert-serve" log metrics
    @@ fun () ->
    let config =
      {
        Server.host;
        port;
        workers;
        jobs = Option.value jobs ~default:1;
        queue_capacity = queue;
        inflight_cap = inflight;
        max_connections = conns;
        batch_max = batch;
        trace_rate;
      }
    in
    Server.run
      ~ready:(fun p ->
        Printf.printf "localcert serve: listening on %s:%d (%d workers)\n%!"
          host p config.Server.workers)
      config
  in
  let port_arg =
    Arg.(
      value & opt int default_port
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port (0 picks an ephemeral port, printed on startup).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Response worker domains.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue capacity; past it requests get RETRY_LATER.")
  in
  let inflight_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.inflight_cap
      & info [ "inflight" ] ~docv:"N"
          ~doc:"Per-connection in-flight cap; past it, RETRY_LATER.")
  in
  let conns_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.max_connections
      & info [ "max-conns" ] ~docv:"N" ~doc:"Maximum open connections.")
  in
  let batch_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.batch_max
      & info [ "batch" ] ~docv:"N"
          ~doc:"Max requests a worker pops per queue drain (the coalescing \
                granularity).")
  in
  let trace_rate_arg =
    Arg.(
      value
      & opt trace_rate_conv Server.default_config.Server.trace_rate
      & info [ "trace-rate" ] ~docv:"R"
          ~doc:
            "With --trace: sample fraction $(docv) of untraced requests \
             into the tracer (client-traced requests are always recorded).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the certification server (binary protocol, batching, \
          admission control; SIGINT/SIGTERM drain gracefully)")
    Term.(
      const run $ host_arg $ port_arg $ workers_arg $ jobs_arg $ queue_arg
      $ inflight_arg $ conns_arg $ batch_arg $ log_arg $ metrics_arg
      $ trace_file_arg $ trace_rate_arg)

let loadgen_cmd =
  let run host port self op scheme graph flip connections window total rate
      workers jobs log trace trace_rate =
    with_telemetry ?trace ~trace_process:"localcert-loadgen" log None
    @@ fun () ->
    let jobs = Option.value jobs ~default:1 in
    let op, request =
      match op with
      | `Ping -> ("ping", Protocol.Ping)
      | `Verify -> ("verify", Protocol.Verify { scheme; graph; flip })
      | `Certify -> ("certify", Protocol.Certify { scheme; graph })
      | `Stats -> ("stats", Protocol.Stats)
    in
    let go ~port =
      Loadgen.run
        {
          Loadgen.host;
          port;
          connections;
          window;
          total;
          rate;
          request;
          trace_rate;
        }
    in
    let s =
      if self then
        Loadgen.with_self_server
          ~config:{ Server.default_config with workers; jobs }
          go
      else go ~port
    in
    let pct q = Loadgen.percentile s.Loadgen.latencies_us q in
    Printf.printf "%s: %d requests in %.3fs -> %.0f req/s\n" op s.Loadgen.sent
      s.Loadgen.duration_s
      (if s.Loadgen.duration_s > 0. then
         float_of_int s.Loadgen.sent /. s.Loadgen.duration_s
       else 0.);
    Printf.printf "  ok %d, retry-later %d, errors %d\n" s.Loadgen.ok
      s.Loadgen.retry_later s.Loadgen.errors;
    Printf.printf "  latency us: p50 %.0f  p99 %.0f  p999 %.0f  max %.0f\n"
      (pct 0.50) (pct 0.99) (pct 0.999) (pct 1.0)
  in
  let port_arg =
    Arg.(
      value & opt int default_port
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port (ignored with --self).")
  in
  let self_flag =
    Arg.(
      value & flag
      & info [ "self" ]
          ~doc:
            "Boot an in-process server on an ephemeral port, load it, then \
             drain it — one command, no port coordination.")
  in
  let op_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("ping", `Ping);
               ("verify", `Verify);
               ("certify", `Certify);
               ("stats", `Stats);
             ])
          `Verify
      & info [ "op" ] ~docv:"OP" ~doc:"Request kind: ping, verify, certify or stats.")
  in
  let scheme_arg =
    Arg.(
      value & opt string "spanning"
      & info [ "scheme" ] ~docv:"NAME" ~doc:"Registry scheme for verify/certify.")
  in
  let graph_spec_arg =
    Arg.(
      value
      & opt string "random-tree:4096:1"
      & info [ "graph" ] ~docv:"SPEC"
          ~doc:"Pure graph spec sent in each request (no file: form).")
  in
  let flip_conv =
    Arg.conv
      ( (fun s ->
          match String.split_on_char ':' s with
          | [ v; b ] -> (
              match (int_of_string_opt v, int_of_string_opt b) with
              | Some v, Some b -> Ok (v, b)
              | _ -> Error (`Msg "expected V:B"))
          | _ -> Error (`Msg "expected V:B")),
        fun ppf (v, b) -> Format.fprintf ppf "%d:%d" v b )
  in
  let flip_arg =
    Arg.(
      value
      & opt (some flip_conv) None
      & info [ "flip" ] ~docv:"V:B"
          ~doc:"For verify: flip bit B of vertex V's certificate first.")
  in
  let connections_arg =
    Arg.(
      value & opt positive_conv 4
      & info [ "connections" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let window_arg =
    Arg.(
      value & opt positive_conv 128
      & info [ "window" ] ~docv:"N" ~doc:"Per-connection pipeline depth.")
  in
  let total_arg =
    Arg.(
      value & opt positive_conv 20_000
      & info [ "requests" ] ~docv:"N" ~doc:"Total requests across connections.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some positive_conv) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Pace sends to $(docv) requests/s total (default: saturate).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains for --self servers.")
  in
  let trace_rate_arg =
    Arg.(
      value
      & opt trace_rate_conv 0.01
      & info [ "trace-rate" ] ~docv:"R"
          ~doc:
            "With --trace: stamp fraction $(docv) of requests with a \
             client trace id carried in the wire header, so a tracing \
             server records the same request under the same id.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Open-loop latency load generator for the certification server \
          (p50/p99/p999, saturation throughput)")
    Term.(
      const run $ host_arg $ port_arg $ self_flag $ op_arg $ scheme_arg
      $ graph_spec_arg $ flip_arg $ connections_arg $ window_arg $ total_arg
      $ rate_arg $ workers_arg $ jobs_arg $ log_arg $ trace_file_arg
      $ trace_rate_arg)

(* ------------------------------------------------------------------ *)
(* gadget                                                              *)
(* ------------------------------------------------------------------ *)

let gadget_cmd =
  let run kind m n =
    match kind with
    | `Treedepth ->
        let id = Array.init m Fun.id in
        let rot = Array.init m (fun i -> (i + 1) mod m) in
        Printf.printf "Figure-3 gadget, m=%d: n=%d vertices\n" m ((8 * m) + 1);
        Printf.printf "equal matchings:   cycles %s -> treedepth %d\n"
          (String.concat "+"
             (List.map string_of_int (Treedepth_gadget.cycle_lengths ~m id id)))
          (Treedepth_gadget.analytic_treedepth ~m id id);
        Printf.printf "unequal matchings: cycles %s -> treedepth %d\n"
          (String.concat "+"
             (List.map string_of_int (Treedepth_gadget.cycle_lengths ~m id rot)))
          (Treedepth_gadget.analytic_treedepth ~m id rot);
        let gadget = Treedepth_gadget.make ~m in
        Printf.printf "ell = %d, r = 4m+1 = %d, bound ell/r = %.2f bits\n"
          gadget.Framework.ell
          ((4 * m) + 1)
          (Framework.lower_bound_bits gadget)
    | `Automorphism ->
        let gadget = Automorphism_gadget.make ~n ~depth:3 in
        Printf.printf "Theorem-2.3 gadget, trees of %d nodes, depth <= 3\n" n;
        Printf.printf "ell = %d encodable bits, r = 2, bound ell/2 = %.1f\n"
          gadget.Framework.ell
          (Framework.lower_bound_bits gadget);
        let rng = Rng.make 1 in
        let sa = Rng.bits rng gadget.Framework.ell in
        let sb = Rng.bits rng gadget.Framework.ell in
        let eq = gadget.Framework.build sa sa in
        let ne = gadget.Framework.build sa sb in
        Printf.printf "equal strings:   fpf automorphism = %b\n"
          (Iso.has_fixed_point_free_automorphism eq.Instance.graph);
        Printf.printf "unequal strings: fpf automorphism = %b\n"
          (Iso.has_fixed_point_free_automorphism ne.Instance.graph)
  in
  let kind_arg =
    Arg.(
      required
      & opt (some (enum [ ("treedepth", `Treedepth); ("automorphism", `Automorphism) ])) None
      & info [ "kind" ] ~docv:"KIND" ~doc:"treedepth or automorphism.")
  in
  let m_arg = Arg.(value & opt int 3 & info [ "m" ] ~doc:"Block size (treedepth gadget).") in
  let n_arg = Arg.(value & opt int 7 & info [ "n" ] ~doc:"Tree size (automorphism gadget).") in
  Cmd.v
    (Cmd.info "gadget" ~doc:"Build and analyze the Section-7 lower-bound gadgets")
    Term.(const run $ kind_arg $ m_arg $ n_arg)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* Every metric name appearing anywhere in a snapshot. *)
let snapshot_names (s : Export.t) =
  List.map fst s.Export.counters
  @ List.map fst s.Export.gauges
  @ List.map (fun (h : Export.histogram) -> h.Export.name) s.Export.histograms
  @ List.map fst s.Export.approx_counters
  @ List.map fst s.Export.approx_gauges
  @ List.map
      (fun (h : Export.histogram) -> h.Export.name)
      s.Export.approx_histograms
  @ List.map (fun (t : Export.timing) -> t.Export.name) s.Export.timings

(* A small fixed workload exercising every instrumented layer, so a
   bare `localcert stats` shows a populated snapshot: two scheme
   families certified, one parallel sweep, one fault-injected
   simulation. *)
let demo_workload () =
  let s1 = Spanning_tree.scheme () in
  let i1 = Instance.make (Gen.random_tree (Rng.make 3) 64) in
  (match Scheme.certify s1 i1 with
  | Some (certs, _) ->
      Pool.with_pool ~jobs:2 (fun pool ->
          ignore (Engine.run_par ~pool s1 i1 certs);
          ignore
            (Runtime.execute ~pool ~plan:(Fault.corruption 0.05) ~rounds:4
               ~seed:1 s1 i1 certs))
  | None -> ());
  let s2 = Tree_mso.make Library.has_perfect_matching.Library.auto in
  ignore (Scheme.certify s2 (Instance.make (Gen.path 32)))

let stats_cmd =
  let run validate required prometheus percentiles remote log =
    usage_errors @@ fun () ->
    (match log with None -> () | Some l -> Logger.set_level l);
    let fail source msg =
      Printf.eprintf "%s: %s\n" source msg;
      exit 1
    in
    (* Exactly one snapshot source; the file and the remote snapshot
       both come through the strict Export.parse. *)
    let source, snap =
      match (validate, remote) with
      | Some _, Some _ -> usage "stats: give --validate or --remote, not both"
      | Some path, None -> (
          match Export.parse (read_file path) with
          | Ok snap -> (path, snap)
          | Error msg -> fail path ("invalid metrics snapshot: " ^ msg))
      | None, Some (host, port) -> (
          let source = Printf.sprintf "%s:%d" host port in
          match Loadgen.request_once ~host ~port Protocol.Stats with
          | Ok (Protocol.Stats_snapshot snap) -> (source, snap)
          | Ok _ -> fail source "unexpected response to STATS"
          | Error e -> fail source e)
      | None, None ->
          Metrics.set_enabled true;
          demo_workload ();
          ("demo workload", Export.snapshot ())
    in
    let names = snapshot_names snap in
    (match List.filter (fun r -> not (List.mem r names)) required with
    | [] -> ()
    | missing ->
        fail source ("missing required metrics: " ^ String.concat ", " missing));
    print_string
      (if percentiles then Export.render_percentiles snap
       else if prometheus then Export.to_prometheus snap
       else if validate = None then Export.render snap
       else
         (* echoing a file back is noise: a file source reports that it
            passed *)
         Printf.sprintf "%s: valid snapshot, %d metrics%s\n" source
           (List.length names)
           (if required = [] then ""
            else
              Printf.sprintf " (%d required names present)"
                (List.length required)))
  in
  let validate_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Strictly parse a snapshot written by --metrics instead of \
             running the demo workload; exit non-zero if it is malformed.")
  in
  let require_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "require" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated metric names that must be present in the \
             snapshot, whichever its source; exit non-zero if one is \
             missing.")
  in
  let prometheus_flag =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Print the Prometheus text exposition instead of JSON.")
  in
  let percentiles_flag =
    Arg.(
      value & flag
      & info [ "percentiles" ]
          ~doc:
            "Print p50/p90/p99 estimates per histogram (linear \
             interpolation within buckets) instead of the raw snapshot.")
  in
  let remote_conv =
    Arg.conv
      ( (fun spec ->
          let host, port =
            match String.rindex_opt spec ':' with
            | Some i ->
                ( String.sub spec 0 i,
                  String.sub spec (i + 1) (String.length spec - i - 1) )
            | None -> ("", spec)
          in
          match int_of_string_opt port with
          | Some p -> Ok ((if host = "" then "127.0.0.1" else host), p)
          | None -> Error (`Msg "expected HOST:PORT or PORT")),
        fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p )
  in
  let remote_arg =
    Arg.(
      value
      & opt (some remote_conv) None
      & info [ "remote" ] ~docv:"HOST:PORT"
          ~doc:
            "Fetch a running server's metrics snapshot over the wire \
             protocol (STATS opcode) instead of running the demo workload.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print one metrics snapshot: a demo workload run with telemetry \
          on (the default), a --metrics file (--validate) or a running \
          server's (--remote)")
    Term.(
      term_result
        (const run $ validate_arg $ require_arg $ prometheus_flag
       $ percentiles_flag $ remote_arg $ log_arg))

(* ------------------------------------------------------------------ *)
(* trace-merge                                                         *)
(* ------------------------------------------------------------------ *)

let trace_merge_cmd =
  let run files out validate require_req =
    usage_errors @@ fun () ->
    let docs =
      List.map
        (fun path ->
          match Json.parse (read_file path) with
          | Ok doc -> doc
          | Error e -> usage (path ^ ": not valid JSON: " ^ e))
        files
    in
    let merged = Tracer.merge docs in
    let events =
      match merged with
      | Json.Obj fields -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (Json.Arr evs) -> List.length evs
          | _ -> 0)
      | _ -> 0
    in
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Json.render merged);
        output_char oc '\n';
        close_out oc;
        Printf.printf "merged trace (%d events from %d files) written to %s\n"
          events (List.length files) path);
    if validate || require_req then
      match Tracer.validate ~require_traced_request:require_req merged with
      | Ok () ->
          Printf.printf "valid trace: %d events%s\n" events
            (if require_req then
               ", at least one request spans queue/batch/kernel/write across \
                timelines with a client flow"
             else "")
      | Error errs ->
          List.iter (fun e -> Printf.eprintf "invalid trace: %s\n" e) errs;
          exit 1
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Chrome trace-event JSON documents (from --trace).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the merged document (one timeline, metadata first, \
             events re-sorted by timestamp) to $(docv).")
  in
  let validate_flag =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Check structural well-formedness — balanced begin/end per \
             timeline, monotone timestamps, flow steps preceded by their \
             start — and exit non-zero on any violation.")
  in
  let require_flag =
    Arg.(
      value & flag
      & info [ "require-traced-request" ]
          ~doc:
            "Additionally require at least one traced request with \
             queue-wait, batch, kernel and response-write slices spanning \
             two or more timelines, stitched to a client-side flow — the \
             end-to-end shape CI asserts on the serve smoke.")
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Merge Chrome trace-event files (server + load generator) into \
          one Perfetto-loadable timeline, optionally validating it")
    Term.(
      term_result (const run $ files_arg $ out_arg $ validate_flag $ require_flag))

(* ------------------------------------------------------------------ *)
(* export                                                              *)
(* ------------------------------------------------------------------ *)

let export_cmd =
  let run g fmt =
    usage_errors @@ fun () ->
    match fmt with
    | `G6 -> print_endline (Io.to_graph6 g)
    | `Dot -> print_string (Io.to_dot g)
    | `Edges -> print_string (Io.to_edge_list g)
    | `Elim_dot ->
        if Graph.n g > 22 then usage "elim-dot: the exact model needs <= 22 vertices"
        else print_string (Elimination.to_dot (Exact.optimal_model g))
  in
  let fmt_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("g6", `G6); ("dot", `Dot); ("edges", `Edges); ("elim-dot", `Elim_dot) ])
          `G6
      & info [ "format" ] ~docv:"FMT" ~doc:"g6, dot, edges or elim-dot.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a graph in an interchange format")
    Term.(term_result (const run $ graph_arg $ fmt_arg))

(* --version output: the dune-project version (via the generated
   Version module) plus one line per registered scheme family. *)
let version_banner =
  String.concat "\n"
    (Printf.sprintf "localcert %s" Version.version
    :: "scheme families:"
    :: List.map (fun l -> "  " ^ l) (Registry.summary ()))

let () =
  let default =
    Term.(
      ret
        (const (fun () -> `Help (`Pager, None)) $ const ()))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "localcert" ~version:version_banner
             ~doc:"Compact local certification of MSO properties (PODC 2022)")
          [
            eval_cmd;
            treedepth_cmd;
            certify_cmd;
            attack_cmd;
            simulate_cmd;
            serve_cmd;
            loadgen_cmd;
            gadget_cmd;
            stats_cmd;
            trace_merge_cmd;
            export_cmd;
          ]))
