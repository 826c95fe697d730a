(* Per-domain event rings.

   One ring per domain, single writer, plain stores: a domain appends
   to its own ring only, so the hot path has no atomics beyond the
   global enable load.  The registry of live rings is mutex-protected
   (touched once per domain per generation).  Overflow drops the NEW
   event — the ring keeps the oldest [cap] events intact, which is the
   friendlier failure mode for request timelines (the front of a trace
   explains the back, not vice versa) and is what the well-formedness
   tests pin down.

   [reset] bumps a generation counter instead of mutating rings in
   place: every domain re-checks the generation on append and lazily
   re-creates (and re-registers) its ring, so resizing between test
   cases or bench reps needs no cross-domain coordination. *)

type kind = KB | KE | KX | KI | KFs | KFt | KFf

type event = {
  kind : kind;
  name : string;
  ts_ns : int;
  dur_ns : int;
  fid : int;  (* flow id; -1 = none *)
  trace : int;  (* trace id; -1 = none *)
  tid_ov : int;  (* timeline override; -1 = emitting domain *)
  args : (string * int) list;
}

let dummy =
  {
    kind = KI;
    name = "";
    ts_ns = 0;
    dur_ns = 0;
    fid = -1;
    trace = -1;
    tid_ov = -1;
    args = [];
  }

type ring = {
  tid : int;
  rgen : int;
  cap : int;
  buf : event array;
  mutable len : int;
  mutable rdropped : int;
}

let enabled = Atomic.make false
let set_enabled v = Atomic.set enabled v
let is_enabled () = Atomic.get enabled

let with_enabled v f =
  let prev = Atomic.get enabled in
  Atomic.set enabled v;
  Fun.protect ~finally:(fun () -> Atomic.set enabled prev) f

let default_capacity = 65536
let ring_capacity = Atomic.make default_capacity
let generation = Atomic.make 0
let rings : ring list ref = ref []
let rings_mutex = Mutex.create ()
let c_dropped = Once.make (fun () -> Metrics.counter "obs.trace_dropped")

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_ring () =
  let slot = Domain.DLS.get ring_key in
  let gen = Atomic.get generation in
  match !slot with
  | Some r when r.rgen = gen -> r
  | _ ->
      let cap = Atomic.get ring_capacity in
      let r =
        {
          tid = (Domain.self () :> int);
          rgen = gen;
          cap;
          buf = Array.make cap dummy;
          len = 0;
          rdropped = 0;
        }
      in
      Mutex.protect rings_mutex (fun () -> rings := r :: !rings);
      slot := Some r;
      r

let append ev =
  let r = my_ring () in
  if r.len < r.cap then begin
    r.buf.(r.len) <- ev;
    r.len <- r.len + 1
  end
  else begin
    r.rdropped <- r.rdropped + 1;
    if Metrics.is_enabled () then Metrics.incr (c_dropped ())
  end

let reset ?capacity () =
  (match capacity with
  | Some c ->
      if c < 1 then invalid_arg "Tracer.reset: capacity must be positive";
      Atomic.set ring_capacity c
  | None -> ());
  Mutex.protect rings_mutex (fun () -> rings := []);
  Atomic.incr generation

let dropped_events () =
  Mutex.protect rings_mutex (fun () ->
      List.fold_left (fun acc r -> acc + r.rdropped) 0 !rings)

(* ------------------------------------------------------------------ *)
(* Trace context                                                       *)

let ctx_key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_context () = !(Domain.DLS.get ctx_key)

let with_context v f =
  let slot = Domain.DLS.get ctx_key in
  let prev = !slot in
  slot := v;
  Fun.protect ~finally:(fun () -> slot := prev) f

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

let resolve_trace = function
  | Some t -> t
  | None -> ( match current_context () with Some t -> t | None -> -1)

let begin_slice ?trace name =
  if Atomic.get enabled then
    append
      {
        dummy with
        kind = KB;
        name;
        ts_ns = Monotonic.now_ns ();
        trace = resolve_trace trace;
      }

let end_slice name =
  if Atomic.get enabled then
    append { dummy with kind = KE; name; ts_ns = Monotonic.now_ns () }

let complete_slice ?trace ?(args = []) ?(tid = -1) ?t1_ns ~t0_ns name =
  if Atomic.get enabled then begin
    let t1 = match t1_ns with Some t -> t | None -> Monotonic.now_ns () in
    append
      {
        kind = KX;
        name;
        ts_ns = t0_ns;
        dur_ns = max 0 (t1 - t0_ns);
        fid = -1;
        trace = resolve_trace trace;
        tid_ov = tid;
        args;
      }
  end

let instant ?trace ?(args = []) name =
  if Atomic.get enabled then
    append
      {
        dummy with
        kind = KI;
        name;
        ts_ns = Monotonic.now_ns ();
        trace = resolve_trace trace;
        args;
      }

let flow_event kind ?trace ~id name =
  if Atomic.get enabled then
    append
      {
        dummy with
        kind;
        name;
        ts_ns = Monotonic.now_ns ();
        fid = id;
        trace = resolve_trace trace;
      }

let flow_start ?trace ~id name = flow_event KFs ?trace ~id name
let flow_step ?trace ~id name = flow_event KFt ?trace ~id name
let flow_end ?trace ~id name = flow_event KFf ?trace ~id name

let with_slice timer f =
  (* [traced] is captured once, so every begin emitted gets its end
     even if tracing is switched off inside [f]. *)
  let traced = Atomic.get enabled in
  if not (traced || Metrics.is_enabled ()) then f ()
  else begin
    let name = Metrics.timer_name timer in
    if traced then begin_slice name;
    let t0 = Monotonic.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        if traced then end_slice name;
        Metrics.record_ns timer (Monotonic.now_ns () - t0))
      f
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

(* Trace-event timestamps are microseconds.  Trace and flow ids are
   rendered as decimal STRINGS: they use bits 60..61 as namespace tags,
   so their values exceed 2^53 and a float-typed JSON number would
   corrupt them. *)

let us ns = float_of_int ns /. 1e3

let ev_to_json pid rtid ev =
  let ph, extra =
    match ev.kind with
    | KB -> ("B", [])
    | KE -> ("E", [])
    | KX -> ("X", [ ("dur", Json.Num (us ev.dur_ns)) ])
    | KI -> ("i", [ ("s", Json.Str "t") ])
    | KFs -> ("s", [ ("id", Json.Str (string_of_int ev.fid)) ])
    | KFt -> ("t", [ ("id", Json.Str (string_of_int ev.fid)) ])
    | KFf ->
        ("f", [ ("id", Json.Str (string_of_int ev.fid)); ("bp", Json.Str "e") ])
  in
  let tid = if ev.tid_ov >= 0 then ev.tid_ov else rtid in
  let args =
    (if ev.trace >= 0 then [ ("trace_id", Json.Str (string_of_int ev.trace)) ]
     else [])
    @ List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) ev.args
  in
  Json.Obj
    ([
       ("name", Json.Str ev.name);
       ("cat", Json.Str "localcert");
       ("ph", Json.Str ph);
       ("ts", Json.Num (us ev.ts_ns));
       ("pid", Json.Num (float_of_int pid));
       ("tid", Json.Num (float_of_int tid));
     ]
    @ extra
    @ (if args = [] then [] else [ ("args", Json.Obj args) ]))

let meta_event pid tid mname label =
  Json.Obj
    [
      ("name", Json.Str mname);
      ("cat", Json.Str "__metadata");
      ("ph", Json.Str "M");
      ("pid", Json.Num (float_of_int pid));
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj [ ("name", Json.Str label) ]);
    ]

let export ?(process_name = "localcert") () =
  let snapshot =
    Mutex.protect rings_mutex (fun () ->
        List.sort (fun a b -> compare a.tid b.tid) !rings)
  in
  let pid = Unix.getpid () in
  let metas =
    meta_event pid 0 "process_name" process_name
    :: List.map
         (fun r ->
           meta_event pid r.tid "thread_name"
             (Printf.sprintf "domain-%d" r.tid))
         snapshot
  in
  let events =
    List.concat_map
      (fun r ->
        (* [len] is read once; a racing writer's partial tail is simply
           not exported.  Callers flush after workers quiesce anyway. *)
        List.init r.len (fun i ->
            let ev = r.buf.(i) in
            (ev.ts_ns, ev_to_json pid r.tid ev)))
      snapshot
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (metas @ events));
    ]

let write_file ?process_name path =
  let doc = export ?process_name () in
  let oc = open_out path in
  output_string oc (Json.render doc);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Merge and validation (operate on parsed documents, so they apply
   equally to this process's output and to files from other
   processes)                                                          *)

let trace_events = function
  | Json.Obj o -> (
      match List.assoc_opt "traceEvents" o with
      | Some (Json.Arr l) -> l
      | _ -> invalid_arg "trace document has no \"traceEvents\" array")
  | _ -> invalid_arg "trace document is not a JSON object"

let is_meta = function
  | Json.Obj o -> List.assoc_opt "ph" o = Some (Json.Str "M")
  | _ -> false

let ts_of = function
  | Json.Obj o -> (
      match List.assoc_opt "ts" o with
      | Some (Json.Num f) -> f
      | _ -> neg_infinity)
  | _ -> neg_infinity

let merge docs =
  let all = List.concat_map trace_events docs in
  let metas, events = List.partition is_meta all in
  let events =
    List.stable_sort (fun a b -> compare (ts_of a) (ts_of b)) events
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (metas @ events));
    ]

(* The slice names a served request must exhibit for the end-to-end
   acceptance check (--require-traced-request): queue wait, batch
   drain, compiled-kernel sweep, response write. *)
let required_slices =
  [ "serve.queue_wait"; "serve.batch"; "run_par"; "serve.write" ]

let validate ?(require_traced_request = false) doc =
  let errors = ref [] in
  let nerrors = ref 0 in
  let max_errors = 20 in
  let err fmt =
    Printf.ksprintf
      (fun s ->
        incr nerrors;
        if !nerrors <= max_errors then errors := s :: !errors)
      fmt
  in
  (match trace_events doc with
  | exception Invalid_argument msg -> err "%s" msg
  | events ->
      let assoc o k = List.assoc_opt k o in
      let timelines : (float * float, float * string list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let flow_starts : (string, (float * float) list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      (* trace id -> slices (name, timeline) seen with that id *)
      let traced : (string, (string * (float * float)) list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let record_traced o name timeline =
        match assoc o "args" with
        | Some (Json.Obj a) -> (
            match List.assoc_opt "trace_id" a with
            | Some (Json.Str t) -> (
                (match int_of_string_opt t with
                | Some v when v >= 0 -> ()
                | _ -> err "event %S: malformed trace_id %S" name t);
                match Hashtbl.find_opt traced t with
                | Some l -> l := (name, timeline) :: !l
                | None -> Hashtbl.add traced t (ref [ (name, timeline) ]))
            | Some _ -> err "event %S: trace_id must be a string" name
            | None -> ())
        | _ -> ()
      in
      List.iteri
        (fun i evj ->
          match evj with
          | Json.Obj o -> (
              let name =
                match assoc o "name" with
                | Some (Json.Str s) -> s
                | _ ->
                    err "event %d: missing or non-string name" i;
                    "?"
              in
              let ph =
                match assoc o "ph" with
                | Some (Json.Str s) -> s
                | _ ->
                    err "event %d (%s): missing phase" i name;
                    "?"
              in
              let numf key =
                match assoc o key with
                | Some (Json.Num f) when Float.is_finite f -> Some f
                | _ -> None
              in
              let timeline =
                match (numf "pid", numf "tid") with
                | Some p, Some t -> (p, t)
                | _ ->
                    err "event %d (%s): missing pid/tid" i name;
                    (-1., -1.)
              in
              match ph with
              | "M" -> ()
              | "B" | "E" | "X" | "i" | "s" | "t" | "f" -> (
                  (match numf "ts" with
                  | None -> err "event %d (%s): missing or non-finite ts" i name
                  | Some ts ->
                      let last, stack =
                        match Hashtbl.find_opt timelines timeline with
                        | Some (l, s) -> (l, s)
                        | None ->
                            let s = ref [] in
                            Hashtbl.replace timelines timeline (neg_infinity, s);
                            (neg_infinity, s)
                      in
                      if ts < last then
                        err
                          "event %d (%s): timestamp %s goes backwards on \
                           timeline (%s,%s)"
                          i name (Json.num ts)
                          (Json.num (fst timeline))
                          (Json.num (snd timeline));
                      Hashtbl.replace timelines timeline (ts, stack);
                      (match ph with
                      | "B" -> stack := name :: !stack
                      | "E" -> (
                          match !stack with
                          | top :: rest ->
                              if top <> name then
                                err
                                  "event %d: end %S does not match open slice \
                                   %S"
                                  i name top;
                              stack := rest
                          | [] -> err "event %d: end %S with no open slice" i name)
                      | _ -> ());
                      match ph with
                      | "X" -> (
                          match numf "dur" with
                          | Some d when d >= 0. -> ()
                          | _ ->
                              err "event %d (%s): X slice needs dur >= 0" i name
                          )
                      | "s" | "t" | "f" -> (
                          match assoc o "id" with
                          | Some (Json.Str id) -> (
                              match (ph, Hashtbl.find_opt flow_starts id) with
                              | "s", Some l -> l := timeline :: !l
                              | "s", None ->
                                  Hashtbl.add flow_starts id (ref [ timeline ])
                              | _, Some _ -> ()
                              | _, None ->
                                  err
                                    "event %d (%s): flow %s for id %s with no \
                                     start"
                                    i name ph id)
                          | _ ->
                              err "event %d (%s): flow event needs a string id"
                                i name)
                      | _ -> ());
                  match ph with
                  | "B" | "X" -> record_traced o name timeline
                  | _ -> ())
              | p -> err "event %d (%s): unknown phase %S" i name p)
          | _ -> err "event %d: not an object" i)
        events;
      Hashtbl.iter
        (fun (p, t) (_, stack) ->
          List.iter
            (fun name ->
              err "timeline (%s,%s): slice %S never closed" (Json.num p)
                (Json.num t) name)
            !stack)
        timelines;
      if require_traced_request then begin
        let satisfied = ref false in
        Hashtbl.iter
          (fun t slices ->
            if not !satisfied then begin
              let names = List.map fst !slices in
              (* timelines of the REQUIRED slices only: the client's own
                 slices (client.rtt) carry the same trace id, and the
                 flow-origin check below must treat that timeline as
                 outside the server-side request *)
              let tls =
                List.sort_uniq compare
                  (List.filter_map
                     (fun (n, tl) ->
                       if List.mem n required_slices then Some tl else None)
                     !slices)
              in
              let has_all =
                List.for_all (fun r -> List.mem r names) required_slices
              in
              let client_flow =
                match Hashtbl.find_opt flow_starts t with
                | Some origins ->
                    List.exists (fun o -> not (List.mem o tls)) !origins
                | None -> false
              in
              if has_all && List.length tls >= 2 && client_flow then
                satisfied := true
            end)
          traced;
        if not !satisfied then
          err
            "no traced request with slices {%s} spanning >= 2 timelines and a \
             client-side flow start"
            (String.concat ", " required_slices)
      end);
  if !nerrors = 0 then Ok ()
  else begin
    let listed = List.rev !errors in
    let listed =
      if !nerrors > max_errors then
        listed
        @ [ Printf.sprintf "... and %d more errors" (!nerrors - max_errors) ]
      else listed
    in
    Error listed
  end
