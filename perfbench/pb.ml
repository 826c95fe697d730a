(* pb — the OCaml side of the repository benchmark (perfbench/run.py
   drives it; see perfbench/METRICS.md for what each number means).

   Subcommands:
     host                                pool domains, OCaml version
     gen     --seed S --dir D            write certify-stream's edge lists
     certify --file F --family F         one certification, layer by layer
     client  --seed S --seconds X        serve-hot oracle + open-loop client,
                                         driven over stdin (warm/run/quit)
     churn   --seed S --seconds X [--traced]
                                         churn-recover, in process

   Every layer is timed from outside, around calls into the library's
   public functions; nothing here reaches into lib/ internals.  Each
   subcommand prints one JSON object per line on stdout. *)

let now_ns = Monotonic.now_ns
let secs t0 t1 = float_of_int (t1 - t0) /. 1e9
let num x = Json.Num x
let int x = Json.Num (float_of_int x)

let emit fields =
  print_endline (Json.render (Json.Obj fields));
  flush stdout

let scheme_named name =
  match Registry.find name with
  | Some e -> e.Registry.scheme
  | None -> failwith ("unknown scheme " ^ name)

(* Nearest-rank percentile of an ascending array. *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The highest of the usual percentiles with at least ten samples
   beyond it (ties to p50 when the sample is too small for any). *)
let tail_q n =
  List.fold_left
    (fun acc q -> if float_of_int n *. (1. -. q) >= 10. then q else acc)
    0.5 [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(* Process CPU time (all domains) and peak resident set. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Argument parsing: --key value pairs and bare --flags                 *)

let args = Array.to_list Sys.argv |> List.tl

let arg key =
  let rec go = function
    | k :: v :: _ when k = "--" ^ key -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let arg_req key =
  match arg key with Some v -> v | None -> failwith ("missing --" ^ key)

let arg_int key = int_of_string (arg_req key)
let arg_float key = float_of_string (arg_req key)
let flag key = List.mem ("--" ^ key) args

(* ------------------------------------------------------------------ *)
(* certify-stream                                                       *)

(* Workload constants.  The spanning and tree-mso instances are the
   streamed family (edge-list files of [stream_n] vertices); treedepth
   is the prover-bound family (the certificate search is superlinear,
   so its instance is small). *)
let stream_n = 200_000
let spider_legs = 256
let spider_len = 7

let family_scheme = function
  | "spanning" -> "spanning"
  | "tree-mso" -> "tree-mso:perfect-matching"
  | "treedepth" -> "treedepth"
  | f -> failwith ("unknown family " ^ f)

(* Seeded inputs: a uniform random tree; a path and a spider under a
   seeded vertex relabelling (so the file, not just its header, varies
   with the seed while the property stays a yes-instance). *)
let family_graph rng = function
  | "spanning" -> Gen.random_tree rng stream_n
  | "tree-mso" -> Graph.relabel (Gen.path stream_n) (Rng.permutation rng stream_n)
  | "treedepth" ->
      let g = Gen.spider ~legs:spider_legs ~leg_len:spider_len in
      Graph.relabel g (Rng.permutation rng (Graph.n g))
  | f -> failwith ("unknown family " ^ f)

let families = [ "spanning"; "tree-mso"; "treedepth" ]

let gen () =
  let seed = arg_int "seed" and dir = arg_req "dir" in
  let streams = Rng.split (Rng.make seed) (List.length families) in
  List.iteri
    (fun i f ->
      let g = family_graph streams.(i) f in
      let oc = open_out_bin (Filename.concat dir (f ^ ".el")) in
      output_string oc (Io.to_edge_list g);
      close_out oc)
    families;
  emit [ ("generated", int (List.length families)) ]

let same_outcome (a : Scheme.outcome) (b : Scheme.outcome) =
  a.Scheme.accepted = b.Scheme.accepted
  && a.Scheme.max_bits = b.Scheme.max_bits
  && a.Scheme.rejections = b.Scheme.rejections

(* Length of the reverification loop after each certification. *)
let reverify_s = 0.3

(* A copy of certify_cmd's call sequence on one edge-list file, at
   [--jobs 1] as certify-stream runs the CLI, with one clock read
   between each pair of public calls.  Vcompile.compile is called on
   its own first, so the Engine.run_par after it reuses the kernel and
   times the sweep alone.  run.py times the CLI itself for the
   end-to-end figures; this copy gives the per-layer split, the
   reverification rate and the reference outcome the CLI's answer is
   checked against. *)
let certify () =
  let file = arg_req "file" and family = arg_req "family" in
  let scheme = scheme_named (family_scheme family) in
  let pool = Pool.create ~jobs:1 () in
  let t0 = now_ns () in
  let g =
    match Io.of_edge_list_file file with Ok g -> g | Error e -> failwith e
  in
  let t1 = now_ns () in
  let inst = Instance.make g in
  let t2 = now_ns () in
  let w0 = Gc.minor_words () in
  let certs =
    match scheme.Scheme.prover inst with
    | Some c -> c
    | None -> failwith "prover declined a yes-instance"
  in
  let w1 = Gc.minor_words () in
  let t3 = now_ns () in
  let certs = Cert_store.intern_all certs in
  Scheme.record_cert_sizes scheme certs;
  let t4 = now_ns () in
  ignore (Vcompile.compile scheme inst certs);
  let t5 = now_ns () in
  let outcome = Engine.run_par ~pool scheme inst certs in
  let t6 = now_ns () in
  (* Oracle, outside the timed region: the interpreted verifier on the
     same certificates must agree exactly, and accept. *)
  let reference = Scheme.run scheme inst certs in
  let ok = outcome.Scheme.accepted && same_outcome outcome reference in
  (* Reverification: the monitoring loop a certified network runs
     forever — repeated sweeps over the same certificates, telemetry
     off. *)
  let sweeps = ref [] and sweep_ok = ref true in
  let s0 = now_ns () in
  while secs s0 (now_ns ()) < reverify_s || !sweeps = [] do
    let a = now_ns () in
    let o = Engine.run_par ~pool scheme inst certs in
    sweeps := secs a (now_ns ()) :: !sweeps;
    if not (same_outcome o outcome) then sweep_ok := false
  done;
  let sweep_total = List.fold_left ( +. ) 0. !sweeps in
  (* One more sweep, untimed, with telemetry on: whether it reused the
     compiled kernel. *)
  let reused =
    Metrics.with_enabled true (fun () ->
        ignore (Engine.run_par ~pool scheme inst certs);
        List.exists
          (fun (n, _, v) -> n = "vcompile.kernel_reuse" && v > 0)
          (Metrics.counters ()))
  in
  Pool.shutdown pool;
  emit
    [
      ("family", Json.Str family);
      ("scheme", Json.Str (family_scheme family));
      ("n", int (Graph.n g));
      ("m", int (Graph.m g));
      ("accepted", Json.Bool reference.Scheme.accepted);
      ("max_bits", int reference.Scheme.max_bits);
      ( "rejections",
        Json.Arr
          (List.map
             (fun (v, r) -> Json.Arr [ int v; Json.Str r ])
             reference.Scheme.rejections) );
      ("oracle_ok", Json.Bool ok);
      ("ingest_s", num (secs t0 t1));
      ("make_s", num (secs t1 t2));
      ("prover_s", num (secs t2 t3));
      ("prover_minor_words", num (w1 -. w0));
      ("intern_s", num (secs t3 t4));
      ("arena_bytes", int (Cert_store.stats ()).Cert_store.arena_bytes);
      ("compile_s", num (secs t4 t5));
      ("sweep_s", num (secs t5 t6));
      ( "reverify_vps",
        num (float_of_int (Graph.n g * List.length !sweeps) /. sweep_total) );
      ("reverify_ok", Json.Bool !sweep_ok);
      ("kernel_reused", Json.Bool reused);
    ]

(* ------------------------------------------------------------------ *)
(* serve-hot: oracle and open-loop client                              *)

(* serve-hot asks about one instance, so the server's prepared
   certificates and compiled kernel stay hot after the first request. *)
let hot_request seed =
  Protocol.Verify
    { scheme = "spanning"; graph = Printf.sprintf "random-tree:65536:%d" (seed + 1); flip = None }

(* Offered rate: about 10 % of one worker's sweep capacity. *)
let hot_rate = 25.

(* Client connections: two, or one on a single-core host. *)
let conns = min 2 (Domain.recommended_domain_count ())

(* The seeded arrival schedule: Poisson due times (ns from the start)
   at [rate] for [seconds]. *)
let schedule ~seed ~rate ~seconds =
  let rng = Rng.make ((seed * 1_000_003) + 11) in
  let t = ref 0. in
  Array.init (int_of_float (rate *. seconds)) (fun _ ->
      t := !t +. (-.Float.log (1. -. Rng.float rng 1.) /. rate);
      int_of_float (!t *. 1e9))

(* Arrivals [k*n/m, (k+1)*n/m) of a schedule, re-based to start at the
   previous arrival: segment k of m. *)
let segment due k m =
  let n = Array.length due in
  let lo = k * n / m and hi = (k + 1) * n / m in
  let base = if lo = 0 then 0 else due.(lo - 1) in
  Array.init (hi - lo) (fun i -> due.(lo + i) - base)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Per-connection receive buffer with incremental frame decoding. *)
type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

let read_frames c on_frame =
  if c.len = Bytes.length c.buf then begin
    let nb = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 nb 0 c.len;
    c.buf <- nb
  end;
  match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
  | 0 -> failwith "server closed the connection"
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r ->
      c.len <- c.len + r;
      let pos = ref 0 and stop = ref false in
      while not !stop do
        match Wire.decode c.buf ~pos:!pos ~len:c.len with
        | Wire.Frame (f, used) ->
            pos := !pos + used;
            on_frame f
        | Wire.Need _ -> stop := true
        | Wire.Fail e -> failwith (Wire.error_to_string e)
      done;
      Bytes.blit c.buf !pos c.buf 0 (c.len - !pos);
      c.len <- c.len - !pos

let request_blocking c ~id req =
  write_all c.fd (Wire.encode (Protocol.encode_request ~id req));
  let got = ref None in
  while !got = None do
    read_frames c (fun f -> if f.Wire.id = id then got := Some f)
  done;
  match !got with Some f -> Protocol.decode_response f | None -> assert false

let client () =
  let seed = arg_int "seed" and seconds = arg_float "seconds" in
  let req = hot_request seed in
  let base = schedule ~seed ~rate:hot_rate ~seconds in
  (* Oracle: the in-process Handlers.handle answer, computed before any
     timing starts. *)
  let expected =
    Pool.with_pool ~jobs:1 (fun pool -> Handlers.handle (Handlers.create ~pool ()) req)
  in
  let cert_bits = match expected with Protocol.Verdict v -> v.max_bits | _ -> 0 in
  emit [ ("oracle_ready", Json.Bool true); ("rate", num hot_rate) ];
  let warm port =
    let c = { fd = connect port; buf = Bytes.create 65536; len = 0 } in
    let t0 = now_ns () in
    let ok = request_blocking c ~id:0 req = Ok expected in
    let t1 = now_ns () in
    Unix.close c.fd;
    emit [ ("warm_s", num (secs t0 t1)); ("warm_ok", Json.Bool ok); ("cert_bits", int cert_bits) ]
  in
  (* [run] replays one segment of the base schedule, or a schedule of
     its own rate and length (warm-up loads and ladder steps). *)
  let run port trace_every step =
    let due =
      match step with
      | `Segment (k, m) -> segment base k m
      | `Rate (rate, seconds) -> schedule ~seed ~rate ~seconds
    in
    let n = Array.length due in
    let cs =
      Array.init conns (fun _ -> { fd = connect port; buf = Bytes.create (1 lsl 20); len = 0 })
    in
    let trace_of i = if trace_every > 0 && i mod trace_every = 0 then Some ((1 lsl 61) lor i) else None in
    let frames =
      Array.init n (fun i -> Wire.encode (Protocol.encode_request ?trace:(trace_of i) ~id:i req))
    in
    let sent_at = Array.make n 0 and recv_at = Array.make n 0 in
    let ok = ref 0 and retry = ref 0 and errors = ref 0 and wrong = ref 0 in
    let answered = ref 0 in
    let start = now_ns () + 2_000_000 in
    let on_frame f =
      let i = f.Wire.id in
      if i >= 0 && i < n && recv_at.(i) = 0 then begin
        recv_at.(i) <- now_ns ();
        incr answered;
        match Protocol.decode_response f with
        | Ok Protocol.Retry_later -> incr retry
        | Ok (Protocol.Error _) | Error _ -> incr errors
        | Ok r -> if r = expected then incr ok else incr wrong
      end
    in
    let next = ref 0 in
    let last_due = if n = 0 then start else start + due.(n - 1) in
    let deadline = last_due + 10_000_000_000 in
    let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
    let by_fd = Array.to_list (Array.map (fun c -> (c.fd, c)) cs) in
    while !answered < n && now_ns () < deadline do
      let now = now_ns () in
      while !next < n && start + due.(!next) <= now do
        let i = !next in
        sent_at.(i) <- now_ns ();
        write_all cs.(i mod conns).fd frames.(i);
        incr next
      done;
      let wait =
        if !next < n then Float.max 0. (float_of_int (start + due.(!next) - now_ns ()) /. 1e9)
        else 0.05
      in
      match Unix.select fds [] [] wait with
      | ready, _, _ -> List.iter (fun fd -> read_frames (List.assoc fd by_fd) on_frame) ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Array.iter (fun c -> Unix.close c.fd) cs;
    let lat = ref [] and late = ref [] and traced = ref [] in
    for i = 0 to n - 1 do
      if sent_at.(i) > 0 then late := float_of_int (sent_at.(i) - (start + due.(i))) /. 1e6 :: !late;
      if recv_at.(i) > 0 then begin
        lat := float_of_int (recv_at.(i) - (start + due.(i))) /. 1e6 :: !lat;
        match trace_of i with
        | Some t ->
            traced := Json.Arr [ Json.Str (string_of_int t); int sent_at.(i); int recv_at.(i) ] :: !traced
        | None -> ()
      end
    done;
    let lat = Array.of_list !lat and late = Array.of_list !late in
    Array.sort compare lat;
    Array.sort compare late;
    emit
      [
        ("attempted", int n);
        ("sent", int !next);
        ("answered", int !answered);
        ("ok", int !ok);
        ("retry_later", int !retry);
        ("errors", int !errors);
        ("wrong", int !wrong);
        ("timeouts", int (n - !answered));
        ("p50_ms", num (pct lat 0.5));
        ("tail_ms", num (pct lat (tail_q (Array.length lat))));
        ("late_p99_ms", num (pct late 0.99));
        ("traced", Json.Arr (List.rev !traced));
        ("latencies_ms", Json.Arr (Array.to_list (Array.map num lat)));
      ]
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "warm"; p ] ->
            warm (int_of_string p);
            loop ()
        | [ "run"; p; every; "segment"; k; m ] ->
            run (int_of_string p) (int_of_string every)
              (`Segment (int_of_string k, int_of_string m));
            loop ()
        | [ "run"; p; every; "rate"; rate; secs ] ->
            run (int_of_string p) (int_of_string every)
              (`Rate (float_of_string rate, float_of_string secs));
            loop ()
        | [ "quit" ] | [ "" ] -> ()
        | _ -> failwith ("bad client command: " ^ line))
  in
  Shutdown.ignore_sigpipe ();
  loop ()

(* ------------------------------------------------------------------ *)
(* churn-recover                                                        *)

let churn_n = 16384
let churn_rounds = 8

(* One interpreted and one compiled scheme, each under topology churn
   plus persistent corruption for the first three rounds. *)
let churn_cases =
  [
    ("lcl:mis", "addedge:0.0005,deledge:0.0005,corrupt:0.0005,until:3");
    ("spanning", "addedge:0.0005,corrupt:0.0005,until:3");
  ]

let churn () =
  let seed = arg_int "seed" and seconds = arg_float "seconds" in
  let traced = flag "traced" in
  let g = Gen.random_connected (Rng.make seed) ~n:churn_n ~extra_edges:(churn_n / 2) in
  let pool = Pool.create () in
  let plans =
    List.map
      (fun (s, p) ->
        match Fault.of_spec p with Ok plan -> (s, plan) | Error e -> failwith e)
      churn_cases
  in
  (* Set-up: build the instance and prove + intern every scheme's
     certificates; done several times so its median is reported. *)
  let prepare () =
    List.map
      (fun (s, plan) ->
        let scheme = scheme_named s in
        let inst = Instance.make g in
        let certs =
          match scheme.Scheme.prover inst with
          | Some c -> Cert_store.intern_all c
          | None -> failwith ("prover declined " ^ s)
        in
        (s, scheme, plan, inst, certs))
      plans
  in
  let setups = ref [] and prepared = ref [] in
  for _ = 1 to 9 do
    let t0 = now_ns () in
    prepared := prepare ();
    setups := secs t0 (now_ns ()) :: !setups
  done;
  let prepared = !prepared in
  let cert_bits =
    List.fold_left (fun a (_, _, _, _, c) -> a + Scheme.max_cert_bits c) 0 prepared
  in
  emit [ ("setup_s", Json.Arr (List.map num (List.rev !setups))) ];
  let run_seed = seed + 1 in
  let execute (_, scheme, plan, inst, certs) =
    Runtime.execute ~pool ~plan ~rounds:churn_rounds ~seed:run_seed ~recover:true scheme inst
      certs
  in
  (* Oracle: the run settles, the final state passes a from-scratch
     interpreted verification, and every pass repeats the first one's
     counts exactly (the execution is a function of the seed). *)
  let summary (r : Runtime.result) = (Trace.metrics r.Runtime.trace, r.Runtime.quiesced_at) in
  let reference = Array.make (List.length prepared) None in
  let check idx (_, scheme, _, _, _) (r : Runtime.result) =
    let settled =
      r.Runtime.quiesced_at <> None
      && (Scheme.run scheme (Instance.make r.Runtime.final_graph) r.Runtime.final_certs)
           .Scheme.accepted
    in
    let same =
      match reference.(idx) with
      | None ->
          reference.(idx) <- Some (summary r);
          true
      | Some s -> s = summary r
    in
    settled && same
  in
  let passes = ref [] and cpus = ref [] and traced_passes = ref [] in
  let failed = ref 0 and attempted = ref 0 in
  let check_all results =
    List.iteri
      (fun idx (p, r) ->
        incr attempted;
        if not (check idx p r) then incr failed)
      (List.combine prepared results)
  in
  let total l = Array.fold_left (fun a x -> a + List.length x) 0 l in
  let rounds = ref [] and layer = ref None in
  (* A warm-up pass, checked but not recorded. *)
  check_all (List.map execute prepared);
  let t_start = now_ns () in
  let pass_no = ref 0 in
  while secs t_start (now_ns ()) < seconds || !passes = [] || (traced && !traced_passes = []) do
    let tracing = traced && !pass_no mod 2 = 1 in
    if tracing then begin
      Tracer.reset ();
      Tracer.set_enabled true;
      Metrics.set_enabled true
    end;
    let t0 = now_ns () and c0 = cpu_s () in
    let results = List.map execute prepared in
    let t1 = now_ns () and c1 = cpu_s () in
    if tracing then begin
      Tracer.set_enabled false;
      Metrics.set_enabled false
    end;
    check_all results;
    (if tracing then traced_passes := secs t0 t1 :: !traced_passes
     else begin
       passes := secs t0 t1 :: !passes;
       cpus := (c1 -. c0) :: !cpus
     end);
    if tracing && !layer = None then begin
      (* runtime.round instants: gaps between consecutive rounds of one
         execution are the per-round wall times. *)
      let evs =
        match Tracer.export () with
        | Json.Obj f -> (
            match List.assoc_opt "traceEvents" f with Some (Json.Arr l) -> l | _ -> [])
        | _ -> []
      in
      let ts =
        List.filter_map
          (function
            | Json.Obj f when List.assoc_opt "name" f = Some (Json.Str "runtime.round") -> (
                match (List.assoc_opt "ts" f, List.assoc_opt "args" f) with
                | Some (Json.Num t), Some (Json.Obj a) ->
                    let r =
                      match List.assoc_opt "round" a with
                      | Some (Json.Num r) -> int_of_float r
                      | Some (Json.Str r) -> int_of_string r
                      | _ -> 0
                    in
                    Some (t, r)
                | _ -> None)
            | _ -> None)
          evs
        |> List.sort compare
      in
      let rec gaps = function
        | (t0, r0) :: ((t1, r1) :: _ as rest) ->
            (if r1 = r0 + 1 then [ (t1 -. t0) /. 1000. ] else []) @ gaps rest
        | _ -> []
      in
      rounds := gaps ts;
      let counter name =
        List.fold_left (fun a (n, _, v) -> if n = name then a + v else a) 0 (Metrics.counters ())
      in
      let per_case =
        List.map2
          (fun (s, _, _, _, _) (r : Runtime.result) ->
            let m = Trace.metrics r.Runtime.trace in
            Json.Obj
              [
                ("scheme", Json.Str s);
                ("checked", int (total r.Runtime.checked));
                ("reverified", int (total r.Runtime.reverified));
                ("adopted", int (total r.Runtime.adopted));
                ("wire_bits", int m.Trace.wire_bits);
                ( "fault_events",
                  int (m.Trace.certs_corrupted + m.Trace.edges_added + m.Trace.edges_removed) );
              ])
          prepared results
      in
      (* The runtime's own counters must agree with its result. *)
      let reverified =
        List.fold_left (fun a (r : Runtime.result) -> a + total r.Runtime.reverified) 0 results
      in
      if
        counter "runtime.rounds" <> churn_rounds * List.length results
        || counter "runtime.vertices_reverified" <> reverified
      then incr failed;
      layer :=
        Some [ ("cases", Json.Arr per_case); ("trace_dropped", int (Tracer.dropped_events ())) ]
    end;
    incr pass_no
  done;
  let rtq =
    Array.to_list reference
    |> List.map (function
         | Some (m, Some q) -> q - Option.value m.Trace.last_fault ~default:0
         | _ -> 0)
  in
  emit
    ([
       ("n", int churn_n);
       ("rounds", int churn_rounds);
       ("passes_s", Json.Arr (List.map num (List.rev !passes)));
       ("cpu_s", Json.Arr (List.map num (List.rev !cpus)));
       ("vm_hwm_kb", int (vm_hwm_kb ()));
       ("traced_passes_s", Json.Arr (List.map num (List.rev !traced_passes)));
       ("attempted", int !attempted);
       ("failed", int !failed);
       ("cert_bits", int cert_bits);
       ("rounds_to_quiesce", Json.Arr (List.map int rtq));
       ("round_ms", Json.Arr (List.map num !rounds));
     ]
    @ Option.value !layer ~default:[]);
  Pool.shutdown pool

(* The domains a default-size pool (as churn-recover creates) really
   runs on after Pool's clamp: every chunk of one parallel region
   sleeps, so each domain of the pool gets to claim some, and reports
   which domain ran it. *)
let host () =
  let pool = Pool.create () in
  let ids =
    Pool.map_chunks pool ~chunks:(4 * Pool.size pool) (fun _ ->
        Unix.sleepf 0.02;
        (Domain.self () :> int))
  in
  Pool.shutdown pool;
  let domains = List.length (List.sort_uniq compare (Array.to_list ids)) in
  emit
    [
      ("pool_domains", int domains);
      ("pool_workers", int (domains - 1));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

let () =
  match args with
  | "host" :: _ -> host ()
  | "gen" :: _ -> gen ()
  | "certify" :: _ -> certify ()
  | "client" :: _ -> client ()
  | "churn" :: _ -> churn ()
  | _ ->
      prerr_endline "usage: pb (host|gen|certify|client|churn) [--key value ...]";
      exit 2
