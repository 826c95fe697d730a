type run = {
  label : string;
  opcode : string;
  scheme : string;
  graph : string;
  connections : int;
  window : int;
  rate : int option;
  sent : int;
  ok : int;
  retry_later : int;
  errors : int;
  duration_s : float;
  throughput_rps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
}

type doc = { smoke : bool; workers : int; runs : run list }

(* ------------------------------------------------------------------ *)
(* Rendering and strict decoding, both through Obs.Json.               *)

let run_json (r : run) =
  Json.Obj
    ([
       ("label", Json.Str r.label);
       ("opcode", Json.Str r.opcode);
       ("scheme", Json.Str r.scheme);
       ("graph", Json.Str r.graph);
       ("connections", Json.int r.connections);
       ("window", Json.int r.window);
     ]
    @ (match r.rate with None -> [] | Some rate -> [ ("rate", Json.int rate) ])
    @ [
        ("sent", Json.int r.sent);
        ("ok", Json.int r.ok);
        ("retry_later", Json.int r.retry_later);
        ("errors", Json.int r.errors);
        ("duration_s", Json.Num r.duration_s);
        ("throughput_rps", Json.Num r.throughput_rps);
        ("p50_us", Json.Num r.p50_us);
        ("p99_us", Json.Num r.p99_us);
        ("p999_us", Json.Num r.p999_us);
        ("max_us", Json.Num r.max_us);
      ])

let render (d : doc) =
  Json.pretty
    (Json.Obj
       [
         ("smoke", Json.Bool d.smoke);
         ("workers", Json.int d.workers);
         ("runs", Json.Arr (List.map run_json d.runs));
       ])

let decode_run j =
  let o = Json.as_obj "run" j in
  Json.check_fields o
    [
      "label"; "opcode"; "scheme"; "graph"; "connections"; "window"; "rate";
      "sent"; "ok"; "retry_later"; "errors"; "duration_s"; "throughput_rps";
      "p50_us"; "p99_us"; "p999_us"; "max_us";
    ]
    "run";
  let str key = Json.as_str key (Json.field o key) in
  let count key = Json.as_nonneg_int key (Json.field o key) in
  let num key = Json.as_nonneg key (Json.field o key) in
  let label = str "label" in
  let bad msg = raise (Json.Bad (Printf.sprintf "run %s: %s" label msg)) in
  let connections = count "connections" in
  if connections < 1 then bad "connections must be positive";
  let window = count "window" in
  if window < 1 then bad "window must be positive";
  let r =
    {
      label;
      opcode = str "opcode";
      scheme = str "scheme";
      graph = str "graph";
      connections;
      window;
      rate = Option.map (Json.as_nonneg_int "rate") (List.assoc_opt "rate" o);
      sent = count "sent";
      ok = count "ok";
      retry_later = count "retry_later";
      errors = count "errors";
      duration_s = num "duration_s";
      throughput_rps = num "throughput_rps";
      p50_us = num "p50_us";
      p99_us = num "p99_us";
      p999_us = num "p999_us";
      max_us = num "max_us";
    }
  in
  (* every request the loadgen sends is answered exactly once (typed
     overload included), so the outcome counts must tile [sent] *)
  if r.ok + r.retry_later + r.errors <> r.sent then
    bad "ok + retry_later + errors must equal sent";
  (* percentile monotonicity: a latency distribution cannot invert *)
  if not (r.p50_us <= r.p99_us && r.p99_us <= r.p999_us && r.p999_us <= r.max_us)
  then bad "percentiles not monotone (p50 <= p99 <= p999 <= max)";
  r

let decode_doc j =
  let o = Json.as_obj "document" j in
  Json.check_fields o [ "smoke"; "workers"; "runs" ] "document";
  let smoke = Json.as_bool "smoke" (Json.field o "smoke") in
  let workers = Json.as_nonneg_int "workers" (Json.field o "workers") in
  if workers < 1 then raise (Json.Bad "document: workers must be positive");
  let runs = List.map decode_run (Json.as_arr "runs" (Json.field o "runs")) in
  if runs = [] then raise (Json.Bad "document: no runs");
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : run) ->
      if Hashtbl.mem seen r.label then
        raise (Json.Bad (Printf.sprintf "duplicate run label %S" r.label));
      Hashtbl.add seen r.label ())
    runs;
  { smoke; workers; runs }

let parse = Json.decode decode_doc

let parse_exn s =
  match parse s with
  | Ok d -> d
  | Error msg -> invalid_arg ("Bench_schema.parse_exn: " ^ msg)

let find_run (d : doc) label =
  List.find_opt (fun (r : run) -> r.label = label) d.runs
