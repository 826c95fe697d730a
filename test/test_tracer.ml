(* Tracer well-formedness: every document the exporter can produce
   must satisfy its own validator, overflow must drop new events
   without corrupting recorded ones, and the rendered JSON must be a
   render∘parse fixpoint (the same property the metrics artifacts
   hold).  These tests drive the public emitter API only — the same
   calls the server, load generator and runtime make — so a future
   change to the ring or the exporter that breaks a trace invariant
   fails here before it fails in Perfetto. *)

let check = Alcotest.(check bool)

let events_of doc =
  match doc with
  | Json.Obj o -> (
      match List.assoc_opt "traceEvents" o with
      | Some (Json.Arr l) -> l
      | _ -> Alcotest.fail "document has no traceEvents array")
  | _ -> Alcotest.fail "document is not an object"

let field ev k =
  match ev with Json.Obj o -> List.assoc_opt k o | _ -> None

let str_field ev k =
  match field ev k with Some (Json.Str s) -> Some s | _ -> None

let arg_of ev k =
  match field ev "args" with
  | Some (Json.Obj a) -> List.assoc_opt k a
  | _ -> None

let named name ev = str_field ev "name" = Some name

(* ------------------------------------------------------------------ *)
(* Generated emission programs                                         *)

type op =
  | Slice of int * op list  (* begin/end pair, properly nested *)
  | Instant of int
  | Complete of int
  | Flow of int  (* start, step, end — in order, one timeline *)

let slice_name i = Printf.sprintf "s%d" (i mod 8)

let rec emit = function
  | Slice (i, ops) ->
      Tracer.begin_slice (slice_name i);
      List.iter emit ops;
      Tracer.end_slice (slice_name i)
  | Instant i -> Tracer.instant ~args:[ ("k", i) ] "mark"
  | Complete i -> Tracer.complete_slice ~t0_ns:(Monotonic.now_ns ()) (slice_name i)
  | Flow i ->
      (* the load generator's namespace shape: ids above 2^53, which
         only survive JSON because they are rendered as strings *)
      let id = (1 lsl 61) lor i in
      Tracer.flow_start ~id "req";
      Tracer.flow_step ~id "req";
      Tracer.flow_end ~id "req"

let op_gen =
  QCheck.Gen.(
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun i -> Instant i) (int_bound 7);
                 map (fun i -> Complete i) (int_bound 7);
                 map (fun i -> Flow i) (int_bound 7);
               ]
           else
             frequency
               [
                 (2, map (fun i -> Instant i) (int_bound 7));
                 ( 3,
                   let* i = int_bound 7 in
                   let* kids = list_size (int_bound 3) (self (n / 2)) in
                   return (Slice (i, kids)) );
               ]))

let rec op_print = function
  | Slice (i, ops) ->
      Printf.sprintf "Slice(%d,[%s])" i
        (String.concat ";" (List.map op_print ops))
  | Instant i -> Printf.sprintf "Instant %d" i
  | Complete i -> Printf.sprintf "Complete %d" i
  | Flow i -> Printf.sprintf "Flow %d" i

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_bound 12) op_gen)

(* Any program of balanced slices, instants and ordered flows exports
   a document that (a) passes the validator — balanced begin/end per
   timeline, monotone timestamps, flows started before stepped — and
   (b) renders to JSON on which render ∘ parse is a fixpoint. *)
let qcheck_programs_valid =
  QCheck.Test.make ~name:"tracer: generated programs export valid documents"
    ~count:60 ops_arb (fun ops ->
      Tracer.reset ();
      Tracer.with_enabled true (fun () -> List.iter emit ops);
      let doc = Tracer.export () in
      Tracer.reset ();
      let valid = Tracer.validate doc = Ok () in
      let rendered = Json.render doc in
      let fixpoint = Json.render (Json.parse_exn rendered) = rendered in
      if not valid then
        QCheck.Test.fail_reportf "validator rejected: %s"
          (match Tracer.validate doc with
          | Error (e :: _) -> e
          | _ -> "?");
      valid && fixpoint)

(* Random finite trees: [parse ∘ pretty] is the identity and
   [pretty ∘ parse] a fixpoint on pretty output — the property that
   keeps committed artifacts byte-stable across a re-render. *)
let json_arb =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:(oneofl [ 'a'; 'z'; ' '; '"'; '\\'; '\n'; '\001' ])
      (int_bound 6)
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.int i) small_signed_int;
        map (fun f -> Json.Num (if Float.is_finite f then f else 0.)) float;
        map (fun s -> Json.Str s) str;
      ]
  in
  let tree =
    sized_size (int_bound 12)
    @@ fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [
                 (1, scalar);
                 ( 2,
                   map
                     (fun l -> Json.Arr l)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 2,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair str (self (n / 2)))) );
               ])
  in
  QCheck.make ~print:Json.render tree

let qcheck_pretty_roundtrip =
  QCheck.Test.make ~name:"json: pretty round-trips random finite trees"
    ~count:300 json_arb (fun t ->
      let p = Json.pretty t in
      Json.parse p = Ok t && Json.pretty (Json.parse_exn p) = p)

(* inf/nan are not JSON: the parser refuses literals that overflow a
   float, and neither renderer will write one. *)
let json_non_finite () =
  List.iter
    (fun text ->
      check (text ^ " rejected") true (Result.is_error (Json.parse text)))
    [ "[1e400]"; "-1e400"; {|{"ts":1e400}|} ];
  check "1e300 still parses" true (Json.parse "1e300" = Ok (Json.Num 1e300));
  List.iter
    (fun f ->
      let tree = Json.Arr [ Json.Num f ] in
      List.iter
        (fun (name, r) ->
          check
            (Printf.sprintf "%s refuses %g" name f)
            true
            (match r tree with
            | _ -> false
            | exception Invalid_argument _ -> true))
        [ ("render", Json.render); ("pretty", Json.pretty) ])
    [ Float.infinity; Float.neg_infinity; Float.nan ]

(* ------------------------------------------------------------------ *)
(* Overflow                                                            *)

let overflow_drops_new_events () =
  Metrics.with_enabled true (fun () ->
      Metrics.reset ();
      Tracer.reset ~capacity:32 ();
      Tracer.with_enabled true (fun () ->
          for i = 0 to 99 do
            Tracer.instant ~args:[ ("i", i) ] "tick"
          done);
      check "dropped count is the excess" true (Tracer.dropped_events () = 68);
      let doc = Tracer.export () in
      check "overflowed document still validates" true
        (Tracer.validate doc = Ok ());
      (* drop-new: the surviving events are exactly the first 32, in
         order and uncorrupted *)
      let ticks =
        List.filter_map
          (fun ev ->
            if named "tick" ev then
              match arg_of ev "i" with
              | Some (Json.Num f) -> Some (int_of_float f)
              | _ -> Some (-1)
            else None)
          (events_of doc)
      in
      check "first capacity events survive intact" true
        (ticks = List.init 32 Fun.id);
      (* the loss is observable: obs.trace_dropped counts it *)
      let snap = Export.snapshot () in
      check "obs.trace_dropped counter" true
        (List.assoc_opt "obs.trace_dropped" snap.Export.counters = Some 68);
      Tracer.reset ())

(* ------------------------------------------------------------------ *)
(* Validator catches malformed shapes                                  *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let validator_rejects_unbalanced () =
  Tracer.reset ();
  Tracer.with_enabled true (fun () -> Tracer.begin_slice "open");
  let doc = Tracer.export () in
  Tracer.reset ();
  (match Tracer.validate doc with
  | Error errs ->
      check "reports the unclosed slice" true
        (List.exists (fun e -> contains e "never closed") errs)
  | Ok () -> Alcotest.fail "unclosed slice accepted");
  Tracer.with_enabled true (fun () -> Tracer.flow_step ~id:5 "req");
  let doc = Tracer.export () in
  Tracer.reset ();
  match Tracer.validate doc with
  | Error errs ->
      check "reports the dangling flow step" true
        (List.exists (fun e -> contains e "no start") errs)
  | Ok () -> Alcotest.fail "flow step without start accepted"

(* ------------------------------------------------------------------ *)
(* Cross-domain stitching and the acceptance predicate                 *)

(* Reproduce, with the emitter API alone, the exact shape a served
   request leaves behind: a client-side flow start on one timeline,
   the four request slices on other timelines (queue wait rendered on
   the IO domain via the tid override, the kernel sweep under an
   installed context), and the flow stitched through.  This is the
   predicate CI's serve smoke asserts on a real server+loadgen pair;
   holding it here keeps the validator and the instrumentation
   honest about the same contract. *)
let traced_request_shape () =
  Tracer.reset ();
  let t = (1 lsl 61) lor 7 in
  (* far above any real domain id, so the override timeline is provably
     distinct from the worker's own *)
  let io_tid = 1 lsl 30 in
  Tracer.with_enabled true (fun () ->
      (* client side: the load generator's send *)
      Tracer.flow_start ~trace:t ~id:t "req";
      Tracer.instant ~trace:t "client.send";
      (* server side, on a different domain *)
      let d =
        Domain.spawn (fun () ->
            Tracer.flow_step ~trace:t ~id:t "req";
            let t0 = Monotonic.now_ns () in
            Tracer.complete_slice ~trace:t ~tid:io_tid ~t0_ns:t0
              "serve.queue_wait";
            Tracer.with_context (Some t) (fun () ->
                Tracer.begin_slice "run_par";
                Tracer.end_slice "run_par");
            let t1 = Monotonic.now_ns () in
            Tracer.complete_slice ~trace:t ~args:[ ("batch_size", 1) ]
              ~t0_ns:t1 "serve.batch";
            Tracer.complete_slice ~trace:t ~t0_ns:(Monotonic.now_ns ())
              "serve.write")
      in
      Domain.join d;
      (* client side again: the response, plus the round-trip slice the
         load generator records — it carries the same trace id on the
         CLIENT timeline, which the acceptance predicate must not count
         as one of the server-side request timelines *)
      Tracer.flow_end ~trace:t ~id:t "req";
      Tracer.complete_slice ~trace:t ~t0_ns:(Monotonic.now_ns ())
        "client.rtt");
  let doc = Tracer.export () in
  Tracer.reset ();
  check "validates structurally" true (Tracer.validate doc = Ok ());
  check "satisfies the traced-request acceptance predicate" true
    (Tracer.validate ~require_traced_request:true doc = Ok ());
  let evs = events_of doc in
  (* two domains emitted, so two thread_name rows *)
  let threads =
    List.filter
      (fun ev -> str_field ev "ph" = Some "M" && named "thread_name" ev)
      evs
  in
  check "one thread row per emitting domain" true (List.length threads = 2);
  (* the context-tagged kernel slice carries the trace id, as a string *)
  let run_par_b =
    List.find_opt (fun ev -> named "run_par" ev && str_field ev "ph" = Some "B") evs
  in
  check "ambient context tagged the kernel slice" true
    (match run_par_b with
    | Some ev -> arg_of ev "trace_id" = Some (Json.Str (string_of_int t))
    | None -> false);
  (* the queue-wait slice was rerouted to the IO timeline *)
  let qw =
    List.find_opt (fun ev -> named "serve.queue_wait" ev) evs
  in
  check "tid override places queue wait on the IO timeline" true
    (match qw with
    | Some ev -> field ev "tid" = Some (Json.Num (float_of_int io_tid))
    | None -> false)

(* Without the client flow, the acceptance predicate must fail even
   though all four slices are present — that is what distinguishes a
   server-sampled trace from an end-to-end one. *)
let acceptance_needs_client_flow () =
  Tracer.reset ();
  let t = (1 lsl 60) lor 3 in
  Tracer.with_enabled true (fun () ->
      let d =
        Domain.spawn (fun () ->
            let now () = Monotonic.now_ns () in
            Tracer.complete_slice ~trace:t ~tid:7 ~t0_ns:(now ())
              "serve.queue_wait";
            Tracer.with_context (Some t) (fun () ->
                Tracer.begin_slice "run_par";
                Tracer.end_slice "run_par");
            Tracer.complete_slice ~trace:t ~t0_ns:(now ()) "serve.batch";
            Tracer.complete_slice ~trace:t ~t0_ns:(now ()) "serve.write")
      in
      Domain.join d);
  let doc = Tracer.export () in
  Tracer.reset ();
  check "structurally fine" true (Tracer.validate doc = Ok ());
  check "but not an end-to-end traced request" true
    (match Tracer.validate ~require_traced_request:true doc with
    | Error _ -> true
    | Ok () -> false)

(* ------------------------------------------------------------------ *)
(* Disabled path and merge                                             *)

let disabled_records_nothing () =
  Tracer.reset ();
  check "disabled by default here" false (Tracer.is_enabled ());
  Tracer.instant "x";
  Tracer.begin_slice "y";
  Tracer.end_slice "y";
  Tracer.flow_start ~id:1 "req";
  let doc = Tracer.export () in
  (* only the process_name metadata row: no ring was ever created *)
  check "no events recorded while disabled" true
    (List.length (events_of doc) = 1)

let merge_interleaves_processes () =
  (* two "processes": two export calls with different labels, merged —
     exactly what trace-merge does with server and loadgen files *)
  Tracer.reset ();
  Tracer.with_enabled true (fun () ->
      Tracer.instant "first";
      Tracer.instant "second");
  let a = Tracer.export ~process_name:"proc-a" () in
  Tracer.reset ();
  Tracer.with_enabled true (fun () -> Tracer.instant "third");
  let b = Tracer.export ~process_name:"proc-b" () in
  Tracer.reset ();
  let merged = Tracer.merge [ a; b ] in
  check "merged document validates" true (Tracer.validate merged = Ok ());
  let evs = events_of merged in
  let metas, rest = List.partition (fun e -> str_field e "ph" = Some "M") evs in
  check "metadata rows from both documents lead" true
    (List.length metas >= 2
    && List.for_all (fun e -> str_field e "ph" <> Some "M") rest);
  let ts_list =
    List.filter_map
      (fun e -> match field e "ts" with Some (Json.Num f) -> Some f | _ -> None)
      rest
  in
  check "events re-sorted by timestamp" true
    (ts_list = List.sort compare ts_list);
  (* the merged rendering is still a render∘parse fixpoint *)
  let r = Json.render merged in
  check "merged render fixpoint" true (Json.render (Json.parse_exn r) = r)

(* ------------------------------------------------------------------ *)
(* Overhead on the verify sweep                                        *)

(* The tracer is compiled into the kernel hot paths on the promise that
   it costs the sweep nothing per vertex.  Enabled, it may add a fixed
   number of minor words per sweep (the run's own events), never a
   number that grows with n: the extra words over the disabled sweep
   must match at both sizes. *)
let sweep_overhead_constant () =
  let extra n =
    Tracer.reset ();
    match
      Test_engine.warm_sweep_words n
        [ Test_engine.plain; Tracer.with_enabled true ]
    with
    | [ off; on ] -> on -. off
    | _ -> assert false
  in
  let small, large = Test_engine.sweep_sizes in
  let e_small = extra small and e_large = extra large in
  Tracer.reset ();
  Alcotest.(check (float 0.))
    (Printf.sprintf "tracer's extra minor words at n=%d and n=%d" small large)
    e_small e_large

let suite =
  [
    ( "tracer",
      [
        QCheck_alcotest.to_alcotest qcheck_programs_valid;
        QCheck_alcotest.to_alcotest qcheck_pretty_roundtrip;
        Alcotest.test_case "json refuses non-finite numbers" `Quick
          json_non_finite;
        Alcotest.test_case "overflow drops new events, keeps old" `Quick
          overflow_drops_new_events;
        Alcotest.test_case "validator rejects malformed shapes" `Quick
          validator_rejects_unbalanced;
        Alcotest.test_case "cross-domain traced request shape" `Quick
          traced_request_shape;
        Alcotest.test_case "acceptance predicate needs the client flow" `Quick
          acceptance_needs_client_flow;
        Alcotest.test_case "disabled emitters record nothing" `Quick
          disabled_records_nothing;
        Alcotest.test_case "merge interleaves process documents" `Quick
          merge_interleaves_processes;
        Alcotest.test_case "enabled sweep overhead independent of n" `Quick
          sweep_overhead_constant;
      ] );
  ]
