(* Runtime fault-injection sweep (the "distributed" experiment).

   For the three headline schemes — spanning-tree, treedepth and
   kernel-MSO — run the round-based simulator under increasing
   per-round corruption rates and measure how fast and how reliably
   the re-verification protocol detects the damage.  Results go to
   stdout as a table and to BENCH_runtime.json as machine-readable
   series (detection rate, detection latency in rounds, communication
   bits), keyed so CI can archive them. *)

(* Per-vertex per-round corruption probabilities.  The low end is
   deliberately below 1/n so some runs stay fault-free and the
   detection-rate and latency series have an actual gradient; the high
   end saturates (every round corrupts, detection is immediate). *)
let rates = [ 0.001; 0.003; 0.01; 0.05; 0.2 ]
let seeds = 5
let rounds = 8

type cell = {
  rate : float;
  runs : int;
  corrupted_runs : int;
  detected_runs : int;
  mean_latency : float; (* rounds from first fault to first rejection; nan if none *)
  mean_wire_bits : float;
  reverified_frac : float;
      (* verifier executions under incremental mode, as a fraction of
         the full-sweep count (alive verdicts); 1.0 means no saving *)
}

let sweep pool scheme inst certs =
  List.map
    (fun rate ->
      let corrupted = ref 0 and detected = ref 0 in
      let latencies = ref [] and wire = ref 0 in
      let reverified = ref 0 and full = ref 0 in
      for seed = 0 to seeds - 1 do
        let r =
          Runtime.execute ~pool ~plan:(Fault.corruption rate) ~rounds ~seed
            scheme inst certs
        in
        let m = Trace.metrics r.Runtime.trace in
        wire := !wire + m.Trace.wire_bits;
        Array.iter
          (fun vs -> reverified := !reverified + List.length vs)
          r.Runtime.reverified;
        (* full-sweep cost baseline: one verifier run per alive verdict *)
        List.iter
          (fun log ->
            List.iter
              (function Trace.Verdict _ -> incr full | _ -> ())
              log.Trace.events)
          r.Runtime.trace.Trace.rounds;
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
      {
        rate;
        runs = seeds;
        corrupted_runs = !corrupted;
        detected_runs = !detected;
        mean_latency;
        mean_wire_bits = float_of_int !wire /. float_of_int seeds;
        reverified_frac =
          float_of_int !reverified /. float_of_int (max 1 !full);
      })
    rates

let schemes () =
  let spanning_inst = Instance.make (Gen.random_tree (Rng.make 1) 128) in
  let spanning = Spanning_tree.scheme () in
  let td_inst = Instance.make (Gen.path 127) in
  let td = Treedepth_cert.make_with_model ~t:7 (Elimination.of_path 127) in
  let cat = Gen.caterpillar ~spine:3 ~legs:16 in
  let km_inst = Instance.make cat in
  let tri_free =
    Parser.parse_exn "forall x. forall y. forall z. ~(x -- y & y -- z & x -- z)"
  in
  let km_model =
    Elimination.coherentize (Elimination.of_caterpillar ~spine:3 ~legs:16) cat
  in
  let km = Kernel_mso.make_with_model ~t:4 km_model tri_free in
  [
    ("spanning", spanning, spanning_inst);
    ("treedepth", td, td_inst);
    ("kernel-mso", km, km_inst);
  ]

(* ------------------------------------------------------------------ *)
(* Churn + self-healing sweep                                          *)
(* ------------------------------------------------------------------ *)

(* Topology churn with recovery enabled: rate-based edge edits plus
   corruption for the first [churn_horizon] rounds, then the
   environment goes quiet and the self-healing runtime has
   [churn_rounds - churn_horizon] rounds to re-certify and quiesce.
   Reported per cell: how many runs detected, how many quiesced, the
   mean rounds-to-quiescence past the last fault, and what fraction of
   the network re-adopted a certificate along the way. *)
let churn_rates = [ 0.0005; 0.002 ]
let churn_seeds = 3
let churn_rounds = 8
let churn_horizon = 3
let churn_sizes = [ 4096; 65536 ]

type churn_cell = {
  c_rate : float;
  c_runs : int;
  c_detected : int;
  c_quiesced : int;
  c_mean_rtq : float;
      (* rounds from the last fault to quiescence, mean over quiesced
         runs; nan if none quiesced *)
  c_recert_frac : float;
      (* re-adopted certificates as a fraction of n, mean over runs *)
  c_mean_wire_bits : float;
}

let churn_sweep pool ~plan_of scheme inst certs =
  let n = Instance.n inst in
  List.map
    (fun rate ->
      let detected = ref 0 and quiesced = ref 0 in
      let rtqs = ref [] and wire = ref 0 and adopted = ref 0 in
      for seed = 0 to churn_seeds - 1 do
        let r =
          Runtime.execute ~pool ~plan:(plan_of rate) ~rounds:churn_rounds
            ~seed ~recover:true scheme inst certs
        in
        let m = Trace.metrics r.Runtime.trace in
        wire := !wire + m.Trace.wire_bits;
        Array.iter
          (fun vs -> adopted := !adopted + List.length vs)
          r.Runtime.adopted;
        if r.Runtime.detected_at <> None then incr detected;
        match r.Runtime.quiesced_at with
        | Some q ->
            incr quiesced;
            let last_fault = Option.value m.Trace.last_fault ~default:0 in
            rtqs := (q - last_fault) :: !rtqs
        | None -> ()
      done;
      let mean_rtq =
        match !rtqs with
        | [] -> nan
        | ls ->
            float_of_int (List.fold_left ( + ) 0 ls)
            /. float_of_int (List.length ls)
      in
      {
        c_rate = rate;
        c_runs = churn_seeds;
        c_detected = !detected;
        c_quiesced = !quiesced;
        c_mean_rtq = mean_rtq;
        c_recert_frac =
          float_of_int !adopted /. float_of_int (n * churn_seeds);
        c_mean_wire_bits = float_of_int !wire /. float_of_int churn_seeds;
      })
    churn_rates

(* Two scheme families that stay certifiable under churn.  The MIS
   search scheme holds on every topology, so it takes the full plan
   (deletions included); spanning-tree certifies connectivity, which
   random deletions genuinely destroy (a correct rejection, not a
   recoverable fault), so its plan adds edges only. *)
let churn_plan rate =
  List.fold_left Fault.union
    (Fault.edge_deletions rate)
    [ Fault.edge_additions rate; Fault.corruption rate;
      Fault.until churn_horizon ]

let addonly_plan rate =
  List.fold_left Fault.union
    (Fault.edge_additions rate)
    [ Fault.corruption rate; Fault.until churn_horizon ]

let churn_schemes () =
  List.concat_map
    (fun n ->
      let g = Gen.random_connected (Rng.make (100 + n)) ~n ~extra_edges:(n / 2) in
      let inst = Instance.make g in
      let mis =
        Lcl.scheme_of_search Lcl.maximal_independent_set ~solve:(fun g ->
            Some (Lcl.greedy_mis g))
      in
      [
        ("lcl:mis", mis, inst, churn_plan);
        ("spanning", Spanning_tree.scheme (), inst, addonly_plan);
      ])
    churn_sizes

(* A mean over zero samples is NaN, which JSON cannot carry: null. *)
let mean_json m = if Float.is_nan m then Json.Null else Json.Num m

let json_churn_cell c =
  Json.Obj
    [
      ("rate", Json.Num c.c_rate);
      ("runs", Json.int c.c_runs);
      ("detected_runs", Json.int c.c_detected);
      ("quiesced_runs", Json.int c.c_quiesced);
      ("mean_rounds_to_quiescence", mean_json c.c_mean_rtq);
      ("recertified_frac", Json.Num c.c_recert_frac);
      ("mean_wire_bits", Json.Num c.c_mean_wire_bits);
    ]

let json_cell c =
  Json.Obj
    [
      ("rate", Json.Num c.rate);
      ("runs", Json.int c.runs);
      ("corrupted_runs", Json.int c.corrupted_runs);
      ("detected_runs", Json.int c.detected_runs);
      ( "detection_rate",
        Json.Num
          (float_of_int c.detected_runs
          /. float_of_int (max 1 c.corrupted_runs)) );
      ("mean_latency_rounds", mean_json c.mean_latency);
      ("mean_wire_bits", Json.Num c.mean_wire_bits);
      ("reverified_frac", Json.Num c.reverified_frac);
    ]

let write_json path results churn_results =
  let doc =
    Json.Obj
      [
        ("experiment", Json.Str "runtime-corruption-sweep");
        ("rounds", Json.int rounds);
        ("seeds", Json.int seeds);
        ( "schemes",
          Json.Arr
            (List.map
               (fun (name, n, cells) ->
                 Json.Obj
                   [
                     ("scheme", Json.Str name);
                     ("n", Json.int n);
                     ("series", Json.Arr (List.map json_cell cells));
                   ])
               results) );
        (* additive key: consumers of the corruption sweep alone still
           parse *)
        ( "churn",
          Json.Obj
            [
              ("rounds", Json.int churn_rounds);
              ("seeds", Json.int churn_seeds);
              ("horizon", Json.int churn_horizon);
              ( "series",
                Json.Arr
                  (List.map
                     (fun (name, n, plan, cells) ->
                       Json.Obj
                         [
                           ("scheme", Json.Str name);
                           ("n", Json.int n);
                           ("plan", Json.Str plan);
                           ("cells", Json.Arr (List.map json_churn_cell cells));
                         ])
                     churn_results) );
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.pretty doc);
  close_out oc

let run pool =
  Printf.printf "\n================================================================\n";
  Printf.printf
    "Runtime: corruption-rate sweep (%d rounds, %d seeds per rate)\n" rounds
    seeds;
  Printf.printf "================================================================\n";
  let results =
    List.map
      (fun (name, scheme, inst) ->
        let certs = Option.get (scheme.Scheme.prover inst) in
        Printf.printf "\n%s (n=%d):\n" name (Instance.n inst);
        Printf.printf "%8s %10s %10s %16s %16s %12s\n" "rate" "corrupted"
          "detected" "latency(rounds)" "wire bits/run" "reverified";
        let cells = sweep pool scheme inst certs in
        List.iter
          (fun c ->
            Printf.printf "%8.3f %7d/%-2d %7d/%-2d %16s %16.0f %11.1f%%\n"
              c.rate c.corrupted_runs c.runs c.detected_runs c.corrupted_runs
              (if Float.is_nan c.mean_latency then "—"
               else Printf.sprintf "%.1f" c.mean_latency)
              c.mean_wire_bits
              (100. *. c.reverified_frac))
          cells;
        (name, Instance.n inst, cells))
      (schemes ())
  in
  Printf.printf "\n================================================================\n";
  Printf.printf
    "Runtime: churn + self-healing sweep (%d rounds, faults until round %d, \
     %d seeds per rate)\n"
    churn_rounds churn_horizon churn_seeds;
  Printf.printf "================================================================\n";
  let churn_results =
    List.map
      (fun (name, scheme, inst, plan_of) ->
        let certs = Option.get (scheme.Scheme.prover inst) in
        let plan = Fault.to_string (plan_of 0.001) in
        Printf.printf "\n%s (n=%d, plan shape %s):\n" name (Instance.n inst)
          plan;
        Printf.printf "%8s %10s %10s %18s %14s %16s\n" "rate" "detected"
          "quiesced" "rounds-to-quiesce" "recert frac" "wire bits/run";
        let cells = churn_sweep pool ~plan_of scheme inst certs in
        List.iter
          (fun c ->
            Printf.printf "%8.4f %7d/%-2d %7d/%-2d %18s %13.4f%% %16.0f\n"
              c.c_rate c.c_detected c.c_runs c.c_quiesced c.c_runs
              (if Float.is_nan c.c_mean_rtq then "—"
               else Printf.sprintf "%.1f" c.c_mean_rtq)
              (100. *. c.c_recert_frac)
              c.c_mean_wire_bits)
          cells;
        (name, Instance.n inst, plan, cells))
      (churn_schemes ())
  in
  write_json "BENCH_runtime.json" results churn_results;
  Printf.printf "\nwrote BENCH_runtime.json\n"
