(* The observability layer's own contracts:

   - shard-per-domain counters and histograms merge by summation, so
     the read-back value is order-independent no matter which domain
     performed which update;
   - Export.render / Export.parse is a fixpoint on rendered documents
     and the strict parser rejects malformed snapshots;
   - telemetry is passive: running any workload with metrics on or off
     yields byte-identical certificates, outcomes and traces;
   - Trace.metrics / Trace.detection_latency are total on degenerate
     traces (zero rounds, no faults, rejection-before-fault).

   Metrics state is process-global, so every test that enables
   recording does it through [Metrics.with_enabled] and resets the
   registry around itself — the rest of the suite must keep running
   with telemetry off. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Metrics: cross-domain merge                                         *)
(* ------------------------------------------------------------------ *)

(* Each domain bumps the same counter a different number of times; the
   merged value must be the exact total, independently of the domain /
   shard assignment and of update interleaving. *)
let qcheck_counter_merge =
  QCheck.Test.make ~name:"counter merges shards by exact summation"
    ~count:20
    QCheck.(list_of_size (Gen.int_range 1 6) (int_bound 500))
    (fun per_domain ->
      Metrics.with_enabled true (fun () ->
          Metrics.reset ();
          let c = Metrics.counter "test.obs.par_counter" in
          let domains =
            List.map
              (fun k ->
                Domain.spawn (fun () ->
                    for _ = 1 to k do
                      Metrics.incr c
                    done))
              per_domain
          in
          List.iter Domain.join domains;
          Metrics.value c = List.fold_left ( + ) 0 per_domain))

let counter_merge_across_domains () =
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      let c = Metrics.counter "test.obs.par_counter" in
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 1000 do
                  Metrics.incr c
                done))
      in
      List.iter Domain.join domains;
      check_int "4 domains x 1000 increments" 4000 (Metrics.value c);
      Metrics.reset ();
      check_int "reset zeroes the value" 0 (Metrics.value c))

let histogram_merge_across_domains () =
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      let h = Metrics.histogram ~bounds:[| 1; 2; 4; 8 |] "test.obs.par_histo" in
      (* domain d observes value d+1, 100 times *)
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for _ = 1 to 100 do
                  Metrics.observe h (d + 1)
                done))
      in
      List.iter Domain.join domains;
      let snap =
        List.find
          (fun (s : Metrics.histogram_snapshot) ->
            s.Metrics.hname = "test.obs.par_histo")
          (Metrics.histograms ())
      in
      (* values 1,2,3,4 land in buckets <=1, <=2, <=4, <=4 *)
      check "bucket counts merged" true
        (Array.to_list snap.Metrics.counts = [ 100; 100; 200; 0; 0 ]);
      check_int "sum merged" (100 * (1 + 2 + 3 + 4)) snap.Metrics.sum)

let disabled_updates_are_noops () =
  Metrics.with_enabled true (fun () -> Metrics.reset ());
  Metrics.with_enabled false (fun () ->
      let c = Metrics.counter "test.obs.par_counter" in
      Metrics.incr c;
      Metrics.add c 41;
      let h = Metrics.histogram ~bounds:[| 1; 2; 4; 8 |] "test.obs.par_histo" in
      Metrics.observe h 3;
      check_int "counter untouched while disabled" 0 (Metrics.value c));
  check "with_enabled restored the flag" false (Metrics.is_enabled ())

let sanitize_names () =
  check_string "bad chars mangled" "a_b.c:d/e-f_g"
    (Metrics.sanitize "a b.c:d/e-f$g");
  check_string "clean names unchanged" "scheme.spanning-tree.accept"
    (Metrics.sanitize "scheme.spanning-tree.accept")

(* ------------------------------------------------------------------ *)
(* Tracer.with_slice over a Metrics timer                              *)
(* ------------------------------------------------------------------ *)

let timer_count name =
  match
    List.find_opt
      (fun (t : Metrics.timing) -> t.Metrics.name = name)
      (Metrics.timings ())
  with
  | Some t -> t.Metrics.count
  | None -> 0

(* (phase, name) of every non-metadata event in this process's rings. *)
let slice_events () =
  List.filter_map
    (fun ev ->
      match (Test_tracer.str_field ev "ph", Test_tracer.str_field ev "name") with
      | Some ph, Some name when ph <> "M" -> Some (ph, name)
      | _ -> None)
    (Test_tracer.events_of (Tracer.export ()))

let with_slice_scopes () =
  let outer = Metrics.timer "test.slice.outer"
  and inner = Metrics.timer "test.slice.in ner" in
  check_string "timer name sanitized" "test.slice.in_ner"
    (Metrics.timer_name inner);
  Tracer.reset ();
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      Tracer.with_enabled true (fun () ->
          let r =
            Tracer.with_slice outer (fun () ->
                Tracer.with_slice inner (fun () -> ());
                Tracer.with_slice inner (fun () -> 7))
          in
          check_int "value passed through" 7 r;
          (match Tracer.with_slice inner (fun () -> failwith "boom") with
          | () -> Alcotest.fail "the raise was swallowed"
          | exception Failure _ -> ()));
      check_int "outer aggregated under its flat name" 1
        (timer_count "test.slice.outer");
      check_int "inner counts every run, the raising one too" 3
        (timer_count "test.slice.in_ner");
      let evs = slice_events () in
      let count ph name =
        List.length (List.filter (( = ) (ph, name)) evs)
      in
      check_int "one outer begin" 1 (count "B" "test.slice.outer");
      check_int "one outer end" 1 (count "E" "test.slice.outer");
      check_int "three inner begins" 3 (count "B" "test.slice.in_ner");
      check_int "three inner ends" 3 (count "E" "test.slice.in_ner");
      check "the trace validates" true (Tracer.validate (Tracer.export ()) = Ok ());
      let timing_names () =
        List.map (fun (t : Export.timing) -> t.Export.name)
          (Export.snapshot ()).Export.timings
      in
      check "exported under the flat names" true
        (timing_names () = [ "test.slice.in_ner"; "test.slice.outer" ]);
      Metrics.reset ();
      check "reset drops the timers from the snapshot" true
        (timing_names () = []));
  (* both off: nothing recorded, nothing emitted *)
  Tracer.reset ();
  check_int "runs the thunk with both off" 3
    (Tracer.with_slice outer (fun () -> 3));
  check_int "nothing recorded with metrics off" 0
    (timer_count "test.slice.outer");
  check "nothing emitted with tracing off" true (slice_events () = []);
  Metrics.with_enabled true (fun () ->
      ignore (Metrics.counter "test.slice.kind");
      check "a counter's name is not a timer" true
        (match Metrics.timer "test.slice.kind" with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Metrics.reset ())

(* ------------------------------------------------------------------ *)
(* Logger levels                                                       *)
(* ------------------------------------------------------------------ *)

let logger_levels () =
  check "info parses" true
    (Logger.level_of_string "info" = Ok (Some Logger.Info));
  check "case-insensitive" true
    (Logger.level_of_string "DEBUG" = Ok (Some Logger.Debug));
  check "off means none" true (Logger.level_of_string "off" = Ok None);
  check "garbage rejected" true
    (match Logger.level_of_string "loud" with Error _ -> true | Ok _ -> false);
  let saved = Logger.current_level () in
  Fun.protect
    ~finally:(fun () -> Logger.set_level saved)
    (fun () ->
      Logger.set_level (Some Logger.Warn);
      check "warn enabled at warn" true (Logger.enabled Logger.Warn);
      check "debug disabled at warn" false (Logger.enabled Logger.Debug);
      Logger.set_level None;
      check "error disabled when off" false (Logger.enabled Logger.Error))

(* The lines [f] writes to stderr, captured through a temp file. *)
let capture_stderr f =
  let path = Filename.temp_file "localcert_log" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  List.filter (( <> ) "") (String.split_on_char '\n' text)

let logger_trace_ids () =
  let saved = Logger.current_level () in
  let lines =
    Fun.protect
      ~finally:(fun () -> Logger.set_level saved)
      (fun () ->
        Logger.set_level (Some Logger.Info);
        capture_stderr (fun () ->
            Tracer.with_context (Some 42) (fun () ->
                Logger.info ~fields:[ ("k", "v") ] "inside");
            Logger.info "outside"))
  in
  match lines with
  | [ inside; outside ] ->
      check "a line inside a context ends with its trace id" true
        (String.ends_with ~suffix:" trace_id=42" inside);
      check "the fields come first" true
        (String.starts_with ~prefix:"level=info msg=\"inside\" k=v" inside);
      check "a line outside any context has no trace id" false
        (List.exists
           (String.starts_with ~prefix:"trace_id=")
           (String.split_on_char ' ' outside))
  | _ -> Alcotest.failf "expected two log lines, got %d" (List.length lines)

(* ------------------------------------------------------------------ *)
(* Export: fixpoint and strictness                                     *)
(* ------------------------------------------------------------------ *)

(* Populate every section — deterministic counter/gauge/histogram,
   approx counter/histogram, a timing — then check render ∘ parse is
   the identity on the rendered bytes. *)
let export_roundtrip_fixpoint () =
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      Metrics.add (Metrics.counter "test.obs.rt_counter") 7;
      Metrics.set_gauge (Metrics.gauge "test.obs.rt_gauge") (-3);
      Metrics.observe
        (Metrics.histogram ~bounds:[| 1; 4; 16 |] "test.obs.rt_histo")
        5;
      Metrics.incr (Metrics.counter ~approx:true "test.obs.rt_approx");
      Metrics.observe
        (Metrics.histogram ~approx:true ~bounds:[| 2; 8 |]
           "test.obs.rt_approx_histo")
        3;
      Tracer.with_slice (Metrics.timer "test.obs.rt_span") (fun () -> ());
      let snap = Export.snapshot () in
      let text = Export.render snap in
      match Export.parse text with
      | Error msg -> Alcotest.failf "rendered snapshot does not parse: %s" msg
      | Ok parsed ->
          check_string "render o parse is a fixpoint" text
            (Export.render parsed);
          check "structurally equal" true (parsed = snap);
          check "the timing entry is exported" true
            (List.map (fun (t : Export.timing) -> (t.Export.name, t.Export.count))
               parsed.Export.timings
            = [ ("test.obs.rt_span", 1) ]);
          check "deterministic sections equal" true
            (Export.deterministic_equal parsed snap);
          check "approx histogram segregated" true
            (List.exists
               (fun (h : Export.histogram) ->
                 h.Export.name = "test.obs.rt_approx_histo")
               parsed.Export.approx_histograms
            && not
                 (List.exists
                    (fun (h : Export.histogram) ->
                      h.Export.name = "test.obs.rt_approx_histo")
                    parsed.Export.histograms));
          (* prometheus exposition smoke: names mangled into the
             [a-zA-Z0-9_] charset with the localcert_ prefix *)
          let prom_lines =
            String.split_on_char '\n' (Export.to_prometheus snap)
          in
          check "prometheus has the counter" true
            (List.mem "localcert_test_obs_rt_counter 7" prom_lines);
          check "prometheus labels approx metrics" true
            (List.mem "localcert_test_obs_rt_approx{approx=\"1\"} 1"
               prom_lines))

let export_rejects_malformed () =
  let empty =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        Export.render (Export.snapshot ()))
  in
  check "baseline parses" true
    (match Export.parse empty with Ok _ -> true | Error _ -> false);
  let cases =
    [
      ("not json", "nonsense");
      ("unknown top-level field", {|{"version":1,"bogus":[]}|});
      ( "unsupported version",
        {|{"version":2,"counters":[],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
      );
      ( "negative counter",
        {|{"version":1,"counters":[{"name":"a","value":-1}],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
      );
      ( "unsorted names",
        {|{"version":1,"counters":[{"name":"b","value":0},{"name":"a","value":0}],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
      );
      ( "histogram count/bound mismatch",
        {|{"version":1,"counters":[],"gauges":[],"histograms":[{"name":"h","bounds":[1,2],"counts":[0,0],"sum":0}],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
      );
      ( "approx object missing histograms",
        {|{"version":1,"counters":[],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"timings":[]}}|}
      );
      ( "unknown approx field",
        {|{"version":1,"counters":[],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[],"extra":[]}}|}
      );
      (* regression: [Float.is_integer] admits these, but
         [int_of_float] on them is undefined — the validator must
         range-check before converting, not crash or wrap *)
      ( "counter value 2^62 overflows native int",
        {|{"version":1,"counters":[{"name":"a","value":4611686018427387904}],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
      );
      ( "counter value 1e300 overflows native int",
        {|{"version":1,"counters":[{"name":"a","value":1e300}],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
      );
      ( "gauge value -1e300 overflows native int",
        {|{"version":1,"counters":[],"gauges":[{"name":"g","value":-1e300}],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
      );
      (* a repeated key used to resolve silently to its first value *)
      ( "repeated version key",
        {|{"version":1,"version":2,"counters":[],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
      );
    ]
  in
  List.iter
    (fun (what, doc) ->
      check (what ^ " rejected") true
        (match Export.parse doc with Error _ -> true | Ok _ -> false))
    cases;
  (* 2^53 is large but exactly representable and in range: still fine *)
  check "2^53 counter value accepted" true
    (match
       Export.parse
         {|{"version":1,"counters":[{"name":"a","value":9007199254740992}],"gauges":[],"histograms":[],"approx":{"counters":[],"gauges":[],"histograms":[],"timings":[]}}|}
     with
    | Ok _ -> true
    | Error _ -> false)

(* Every # TYPE block in the Prometheus exposition must be well-formed
   text: a TYPE line per metric (no duplicates), every sample under
   the most recent TYPE with a legal suffix, numeric values, and
   histogram buckets cumulative ending in le="+Inf".  The exact and
   approx histogram renderers share one helper; this test is what
   keeps a future edit from unsharing them incorrectly. *)
let prometheus_well_formed () =
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      Metrics.incr (Metrics.counter "test.prom.det_counter");
      Metrics.set_gauge (Metrics.gauge "test.prom.det_gauge") 5;
      let h = Metrics.histogram ~bounds:[| 1; 2; 4 |] "test.prom.det_histo" in
      List.iter (Metrics.observe h) [ 1; 3; 9 ];
      Metrics.incr (Metrics.counter ~approx:true "test.prom.apx_counter");
      let ah =
        Metrics.histogram ~approx:true ~bounds:[| 10; 20 |]
          "test.prom.apx_histo"
      in
      List.iter (Metrics.observe ah) [ 5; 15; 25 ];
      Tracer.with_slice (Metrics.timer "test.prom.span") (fun () -> ());
      let text = Export.to_prometheus (Export.snapshot ()) in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      let is_name s =
        s <> ""
        && String.for_all
             (fun c ->
               (c >= 'a' && c <= 'z')
               || (c >= 'A' && c <= 'Z')
               || (c >= '0' && c <= '9')
               || c = '_')
             s
      in
      let seen_types = Hashtbl.create 16 in
      let current = ref None in
      let bucket_cum = ref (-1) in
      let bucket_last_le = ref "" in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "#"; "TYPE"; name; kind ] ->
              check (line ^ ": metric name charset") true (is_name name);
              check (line ^ ": known kind") true
                (List.mem kind [ "counter"; "gauge"; "histogram"; "summary" ]);
              check (line ^ ": no duplicate TYPE") false
                (Hashtbl.mem seen_types name);
              Hashtbl.replace seen_types name kind;
              (* a histogram block must have closed with +Inf *)
              check "previous histogram closed with +Inf" true
                (!bucket_cum < 0 || !bucket_last_le = "+Inf");
              current := Some (name, kind);
              bucket_cum := -1;
              bucket_last_le := ""
          | [ sample; value ] -> (
              check (line ^ ": numeric value") true
                (match float_of_string_opt value with
                | Some f -> Float.is_finite f
                | None -> false);
              let base, labels =
                match String.index_opt sample '{' with
                | Some i ->
                    check (line ^ ": labels close") true
                      (String.length sample > i
                      && sample.[String.length sample - 1] = '}')
                      ;
                    ( String.sub sample 0 i,
                      String.sub sample (i + 1)
                        (String.length sample - i - 2) )
                | None -> (sample, "")
              in
              match !current with
              | None -> Alcotest.failf "sample before any TYPE: %s" line
              | Some (tname, kind) ->
                  check (line ^ ": under its TYPE") true
                    (base = tname
                    || List.mem base
                         [ tname ^ "_bucket"; tname ^ "_sum"; tname ^ "_count";
                           tname ^ "_max" ]);
                  if kind = "histogram" && base = tname ^ "_bucket" then begin
                    let le =
                      List.find_map
                        (fun l ->
                          match String.index_opt l '=' with
                          | Some i when String.sub l 0 i = "le" ->
                              let v =
                                String.sub l (i + 1) (String.length l - i - 1)
                              in
                              Some (String.sub v 1 (String.length v - 2))
                          | _ -> None)
                        (String.split_on_char ',' labels)
                    in
                    match le with
                    | None -> Alcotest.failf "bucket without le: %s" line
                    | Some le ->
                        let cum = int_of_string value in
                        check (line ^ ": cumulative non-decreasing") true
                          (cum >= max 0 !bucket_cum);
                        bucket_cum := cum;
                        bucket_last_le := le
                  end)
          | _ -> Alcotest.failf "unparseable exposition line: %s" line)
        lines;
      check "final histogram closed with +Inf" true
        (!bucket_cum < 0 || !bucket_last_le = "+Inf");
      (* both histogram flavors rendered through the shared helper *)
      check "exact histogram present" true
        (Hashtbl.find_opt seen_types "localcert_test_prom_det_histo"
        = Some "histogram");
      check "approx histogram present" true
        (Hashtbl.find_opt seen_types "localcert_test_prom_apx_histo"
        = Some "histogram");
      Metrics.reset ())

(* The percentile table on a hand-built snapshot: a rank inside a
   bucket interpolates linearly within it, a rank in the overflow
   bucket clamps to the last bound, an empty histogram has no row, and
   rows run deterministic section first. *)
let percentiles_pinned () =
  let h name bounds counts = { Export.name; bounds; counts; sum = 0 } in
  let snap =
    {
      Export.counters = [];
      gauges = [];
      histograms =
        [
          h "a.first" [ 1; 2; 4 ] [ 3; 1; 0; 0 ];
          h "a.inside" [ 10; 20; 40 ] [ 0; 4; 0; 0 ];
          h "b.empty" [ 1 ] [ 0; 0 ];
        ];
      approx_counters = [];
      approx_gauges = [];
      approx_histograms = [ h "c.overflow" [ 1; 2 ] [ 1; 0; 9 ] ];
      timings = [];
    }
  in
  let row = Printf.sprintf "%-40s count=%-8d p50=%-10s p90=%-10s p99=%s\n" in
  check_string "percentile table"
    (row "a.first" 4 "1" "1.6" "2.0"
    ^ row "a.inside" 4 "15" "19" "19.9"
    ^ row "c.overflow" 10 "2" "2" "2")
    (Export.render_percentiles snap)

(* ------------------------------------------------------------------ *)
(* Telemetry is passive: on/off differential                           *)
(* ------------------------------------------------------------------ *)

let pool2 = Pool.create ~jobs:2 ()
let () = at_exit (fun () -> Pool.shutdown pool2)

let outcome_equal = Test_engine.outcome_equal

(* Certificates, run_par outcomes and runtime traces must be
   byte-identical with telemetry on and off — recording observes, never
   steers.  One qcheck case covers every registered scheme. *)
let qcheck_telemetry_differential =
  QCheck.Test.make ~name:"telemetry on/off: identical certs and outcomes"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun e ->
          let inst rng_seed =
            e.Registry.instance (Rng.split (Rng.make rng_seed) 1).(0)
          in
          let off_inst = inst seed and on_inst = inst seed in
          let prove i = e.Registry.scheme.Scheme.prover i in
          let certs_off = prove off_inst in
          let certs_on, outcome_on, trace_on =
            Metrics.with_enabled true (fun () ->
                Metrics.reset ();
                let certs = prove on_inst in
                match certs with
                | None -> (None, None, None)
                | Some cs ->
                    let o =
                      Engine.run_par ~pool:pool2 e.Registry.scheme on_inst cs
                    in
                    let r =
                      Runtime.execute ~pool:pool2 ~rounds:2 ~seed
                        ~plan:(Fault.corruption 0.2) e.Registry.scheme
                        on_inst cs
                    in
                    (Some cs, Some o, Some (Trace.to_json r.Runtime.trace)))
          in
          Metrics.with_enabled true (fun () -> Metrics.reset ());
          match (certs_off, certs_on) with
          | None, None -> true
          | Some cs_off, Some cs_on ->
              let outcome_off =
                Engine.run_par ~pool:pool2 e.Registry.scheme off_inst cs_off
              in
              let trace_off =
                Trace.to_json
                  (Runtime.execute ~pool:pool2 ~rounds:2 ~seed
                     ~plan:(Fault.corruption 0.2) e.Registry.scheme off_inst
                     cs_off)
                    .Runtime.trace
              in
              cs_off = cs_on
              && (match outcome_on with
                 | Some o -> outcome_equal outcome_off o
                 | None -> false)
              && trace_on = Some trace_off
          | _ -> false)
        Registry.all)

(* Two identical instrumented runs must agree on the deterministic
   section of the snapshot — the CLI's --metrics reproducibility
   contract, exercised in-process. *)
let deterministic_snapshot_reproducible () =
  let one_run () =
    Metrics.with_enabled true (fun () ->
        Metrics.reset ();
        let inst = Instance.make (Gen.random_tree (Rng.make 5) 48) in
        let scheme = Spanning_tree.scheme () in
        (match Scheme.certify scheme inst with
        | Some (certs, _) ->
            ignore (Engine.run_par ~pool:pool2 scheme inst certs);
            ignore
              (Runtime.execute ~pool:pool2 ~rounds:3 ~seed:2
                 ~plan:(Fault.corruption 0.1) scheme inst certs)
        | None -> Alcotest.fail "spanning prover declined a tree");
        Export.snapshot ())
  in
  let a = one_run () and b = one_run () in
  check "deterministic sections identical" true (Export.deterministic_equal a b);
  Metrics.with_enabled true (fun () ->
      Metrics.reset ())

(* ------------------------------------------------------------------ *)
(* Trace metric edge cases                                             *)
(* ------------------------------------------------------------------ *)

let zero_round_trace () =
  let t =
    { Trace.scheme = "empty"; n = 0; seed = 0; plan = "none"; rounds = [] }
  in
  let m = Trace.metrics t in
  check_int "zero rounds" 0 m.Trace.rounds;
  check "nothing detected" true (m.Trace.detected_at = None);
  check "nothing corrupted" true (m.Trace.first_corruption = None);
  check_int "no wire bits" 0 m.Trace.wire_bits;
  check "latency undefined" true (Trace.detection_latency m = None);
  (* the human summary must be total on the degenerate trace *)
  let buf = Buffer.create 64 in
  Trace.pp_summary (Format.formatter_of_buffer buf) t;
  check "summary renders" true (Buffer.length buf > 0)

(* A round on [n] isolated vertices in which the vertices [verifying]
   rendered verdicts (they broadcast honestly, to nobody). *)
let isolated n verifying =
  {
    Trace.topology = Graph.empty n;
    payload_bits =
      Array.init n (fun v -> if List.mem v verifying then 0 else -1);
    sent = 0;
  }

let fault_free_trace () =
  let round =
    {
      Trace.round = 1;
      events = [];
      deliveries =
        {
          Trace.topology = Graph.of_edges ~n:2 [ (0, 1) ];
          payload_bits = [| 4; 4 |];
          sent = 2;
        };
      wire_bits = 8;
      rejections = [];
      verdicts_rendered = 2;
    }
  in
  let t =
    { Trace.scheme = "clean"; n = 2; seed = 0; plan = "none"; rounds = [ round ] }
  in
  let m = Trace.metrics t in
  check_int "messages counted" 2 m.Trace.messages_sent;
  check "sends and verdicts derived in canonical order" true
    (Trace.all_events round
    = [
        Trace.Send { src = 0; dst = 1; bits = 4 };
        Trace.Send { src = 1; dst = 0; bits = 4 };
        Trace.Verdict { vertex = 0; accepted = true; reason = "" };
        Trace.Verdict { vertex = 1; accepted = true; reason = "" };
      ]);
  check "no corruption seen" true (m.Trace.first_corruption = None);
  check "no detection" true (m.Trace.detected_at = None);
  check "latency undefined without faults" true
    (Trace.detection_latency m = None)

let rejection_before_fault () =
  (* invalid certificates rejected in round 1, fault plan fires in
     round 2: a negative "latency" must not be reported *)
  let r1 =
    {
      Trace.round = 1;
      events = [];
      deliveries = isolated 2 [ 0 ];
      wire_bits = 0;
      rejections = [ (0, "bad") ];
      verdicts_rendered = 1;
    }
  in
  let r2 =
    {
      Trace.round = 2;
      events = [ Trace.Corrupt { vertex = 1 } ];
      deliveries = isolated 2 [ 0 ];
      wire_bits = 0;
      rejections = [ (0, "bad") ];
      verdicts_rendered = 1;
    }
  in
  let t =
    {
      Trace.scheme = "pre";
      n = 2;
      seed = 0;
      plan = "corrupt";
      rounds = [ r1; r2 ];
    }
  in
  check "rejecting verdict derived" true
    (Trace.all_events r1
    = [ Trace.Verdict { vertex = 0; accepted = false; reason = "bad" } ]);
  let m = Trace.metrics t in
  check "detected in round 1" true (m.Trace.detected_at = Some 1);
  check "fault in round 2" true (m.Trace.first_corruption = Some 2);
  check "no negative latency" true (Trace.detection_latency m = None);
  (* same-round detection has latency 1 *)
  let same =
    {
      t with
      Trace.rounds =
        [
          {
            Trace.round = 1;
            events = [ Trace.Corrupt { vertex = 0 } ];
            deliveries = isolated 2 [ 1 ];
            wire_bits = 0;
            rejections = [ (1, "x") ];
            verdicts_rendered = 1;
          };
        ];
    }
  in
  check "same-round latency is 1" true
    (Trace.detection_latency (Trace.metrics same) = Some 1)

(* ------------------------------------------------------------------ *)
(* Registry summary (drives the --version banner)                      *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Json strict-decoding kit                                            *)
(* ------------------------------------------------------------------ *)

(* The kit every typed schema decodes through, checked directly rather
   than only through Export's documents. *)
let rejected f = match f () with _ -> false | exception Json.Bad _ -> true

let json_kit_fields () =
  let o = [ ("a", Json.int 1); ("b", Json.Str "x") ] in
  Json.check_fields o [ "a"; "b"; "c" ] "ok";
  check "field finds a member" true (Json.field o "b" = Json.Str "x");
  check "missing field rejected" true (rejected (fun () -> Json.field o "c"));
  check "unknown key rejected" true
    (rejected (fun () -> Json.check_fields o [ "a" ] "unknown"));
  check "repeated key rejected" true
    (rejected (fun () ->
         Json.check_fields (("a", Json.int 2) :: o) [ "a"; "b" ] "repeated"));
  match Json.decode (fun t -> Json.check_fields (Json.as_obj "doc" t) [] "doc")
          {|{"k":1,"k":1}|}
  with
  | Ok () -> Alcotest.fail "decode accepted a repeated key"
  | Error _ -> ()

let json_kit_scalars () =
  check "as_int of 2^61" true (Json.as_int "n" (Json.Num 0x1p61) = 1 lsl 61);
  check "as_int of -2^62 is min_int" true
    (Json.as_int "n" (Json.Num (-0x1p62)) = min_int);
  List.iter
    (fun (what, f) -> check (what ^ " rejected") true (rejected f))
    [
      ("1e300 as int", fun () -> ignore (Json.as_int "n" (Json.Num 1e300)));
      ("-1e300 as int", fun () -> ignore (Json.as_int "n" (Json.Num (-1e300))));
      ("2^62 as int", fun () -> ignore (Json.as_int "n" (Json.Num 0x1p62)));
      ("1.5 as int", fun () -> ignore (Json.as_int "n" (Json.Num 1.5)));
      ("-1 as nonneg int", fun () ->
        ignore (Json.as_nonneg_int "n" (Json.Num (-1.))));
      ("-0.5 as nonneg", fun () -> ignore (Json.as_nonneg "n" (Json.Num (-0.5))));
      ("empty string", fun () -> ignore (Json.as_str "s" (Json.Str "")));
      ("number as string", fun () -> ignore (Json.as_str "s" (Json.int 1)));
      ("object as array", fun () -> ignore (Json.as_arr "a" (Json.Obj [])));
    ];
  check "decode reports a Bad" true
    (Result.is_error (Json.decode (Json.as_int "n") "1e300"));
  check "decode reports a parse error" true
    (Result.is_error (Json.decode (Json.as_int "n") "[1"));
  check "decode accepts a good value" true
    (Json.decode (Json.as_int "n") "42" = Ok 42)

let registry_summary () =
  let lines = Registry.summary () in
  check_int "one line per family" (List.length Registry.all)
    (List.length lines);
  List.iter2
    (fun (e : Registry.entry) line ->
      check (e.Registry.name ^ " line starts with family name") true
        (String.starts_with ~prefix:e.Registry.name line);
      check (e.Registry.name ^ " line carries [compiled]") true
        (String.ends_with ~suffix:" [compiled]" line))
    Registry.all lines

let suite =
  [
    ( "obs-metrics",
      [
        Alcotest.test_case "counter merges across 4 domains" `Quick
          counter_merge_across_domains;
        QCheck_alcotest.to_alcotest qcheck_counter_merge;
        Alcotest.test_case "histogram merges across domains" `Quick
          histogram_merge_across_domains;
        Alcotest.test_case "disabled updates are no-ops" `Quick
          disabled_updates_are_noops;
        Alcotest.test_case "name sanitization" `Quick sanitize_names;
        Alcotest.test_case "with_slice times and traces a scope" `Quick
          with_slice_scopes;
        Alcotest.test_case "logger level parsing" `Quick logger_levels;
        Alcotest.test_case "log lines carry the trace id" `Quick
          logger_trace_ids;
      ] );
    ( "obs-export",
      [
        Alcotest.test_case "render/parse fixpoint on live snapshot" `Quick
          export_roundtrip_fixpoint;
        Alcotest.test_case "malformed snapshots rejected" `Quick
          export_rejects_malformed;
        Alcotest.test_case "prometheus TYPE blocks well-formed" `Quick
          prometheus_well_formed;
        Alcotest.test_case "percentile estimates pinned" `Quick
          percentiles_pinned;
      ] );
    ( "obs-json",
      [
        Alcotest.test_case "missing, unknown and repeated keys rejected"
          `Quick json_kit_fields;
        Alcotest.test_case "scalar decoders range-check" `Quick
          json_kit_scalars;
      ] );
    ( "obs-differential",
      [
        QCheck_alcotest.to_alcotest qcheck_telemetry_differential;
        Alcotest.test_case "deterministic snapshot reproducible" `Quick
          deterministic_snapshot_reproducible;
      ] );
    ( "trace-edges",
      [
        Alcotest.test_case "zero-round trace" `Quick zero_round_trace;
        Alcotest.test_case "fault-free trace" `Quick fault_free_trace;
        Alcotest.test_case "rejection before first fault" `Quick
          rejection_before_fault;
        Alcotest.test_case "registry summary lines" `Quick registry_summary;
      ] );
  ]
