type histogram = {
  name : string;
  bounds : int list;
  counts : int list;
  sum : int;
}

type timing = Metrics.timing = {
  name : string;
  count : int;
  total_ms : float;
  max_ms : float;
}

type t = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : histogram list;
  approx_counters : (string * int) list;
  approx_gauges : (string * int) list;
  approx_histograms : histogram list;
  timings : timing list;
}

(* ------------------------------------------------------------------ *)
(* Snapshot assembly                                                   *)

let split_approx entries =
  let det, approx =
    List.partition (fun (_, approx, _) -> not approx) entries
  in
  ( List.map (fun (n, _, v) -> (n, v)) det,
    List.map (fun (n, _, v) -> (n, v)) approx )

(* Merge and dedupe by name (keep the first): samplers could in
   principle collide with a registered gauge name, and the strict
   renderer requires strictly ascending names. *)
let dedupe_sorted l =
  let rec go = function
    | (a, _) :: ((b, _) :: _ as rest) when String.equal a b -> go rest
    | x :: rest -> x :: go rest
    | [] -> []
  in
  go (List.sort compare l)

let snapshot () =
  let counters, approx_counters = split_approx (Metrics.counters ()) in
  let gauges, approx_gauges = split_approx (Metrics.gauges ()) in
  let approx_gauges = dedupe_sorted (approx_gauges @ Metrics.sampled ()) in
  let all_histograms = Metrics.histograms () in
  let convert (h : Metrics.histogram_snapshot) =
    {
      name = h.Metrics.hname;
      bounds = Array.to_list h.Metrics.bounds;
      counts = Array.to_list h.Metrics.counts;
      sum = h.Metrics.sum;
    }
  in
  let histograms =
    List.filter_map
      (fun (h : Metrics.histogram_snapshot) ->
        if h.Metrics.happrox then None else Some (convert h))
      all_histograms
  in
  let approx_histograms =
    List.filter_map
      (fun (h : Metrics.histogram_snapshot) ->
        if h.Metrics.happrox then Some (convert h) else None)
      all_histograms
  in
  {
    counters;
    gauges;
    histograms;
    approx_counters;
    approx_gauges;
    approx_histograms;
    timings = Metrics.timings ();
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let entries_json l =
  Json.Arr
    (List.map
       (fun (name, v) ->
         Json.Obj [ ("name", Json.Str name); ("value", Json.int v) ])
       l)

let ints_json l = Json.Arr (List.map Json.int l)

let histograms_json hs =
  Json.Arr
    (List.map
       (fun (h : histogram) ->
         Json.Obj
           [
             ("name", Json.Str h.name);
             ("bounds", ints_json h.bounds);
             ("counts", ints_json h.counts);
             ("sum", Json.int h.sum);
           ])
       hs)

let timing_json t =
  Json.Obj
    [
      ("name", Json.Str t.name);
      ("count", Json.int t.count);
      ("total_ms", Json.Num t.total_ms);
      ("max_ms", Json.Num t.max_ms);
    ]

let to_json t =
  Json.Obj
    [
      ("version", Json.int 1);
      ("counters", entries_json t.counters);
      ("gauges", entries_json t.gauges);
      ("histograms", histograms_json t.histograms);
      ( "approx",
        Json.Obj
          [
            ("counters", entries_json t.approx_counters);
            ("gauges", entries_json t.approx_gauges);
            ("histograms", histograms_json t.approx_histograms);
            ("timings", Json.Arr (List.map timing_json t.timings));
          ] );
    ]

let render t = Json.pretty (to_json t)

(* ------------------------------------------------------------------ *)
(* Strict parsing                                                      *)

let check_sorted ctx names =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if a >= b then
          raise
            (Json.Bad
               (Printf.sprintf "%s: names not strictly ascending (%S, %S)" ctx
                  a b));
        go rest
    | _ -> ()
  in
  go names

let decode_entries ctx j =
  let entries =
    List.map
      (fun e ->
        let o = Json.as_obj ctx e in
        Json.check_fields o [ "name"; "value" ] ctx;
        ( Json.as_str ctx (Json.field o "name"),
          Json.as_int ctx (Json.field o "value") ))
      (Json.as_arr ctx j)
  in
  check_sorted ctx (List.map fst entries);
  entries

let decode_counter_entries ctx j =
  let entries = decode_entries ctx j in
  List.iter
    (fun (n, v) ->
      if v < 0 then raise (Json.Bad (Printf.sprintf "%s: %S negative" ctx n)))
    entries;
  entries

let decode_histogram j =
  let o = Json.as_obj "histogram" j in
  Json.check_fields o [ "name"; "bounds"; "counts"; "sum" ] "histogram";
  let name = Json.as_str "histogram" (Json.field o "name") in
  let ints f key = List.map (f key) (Json.as_arr key (Json.field o key)) in
  let bounds = ints Json.as_int "bounds" in
  let counts = ints Json.as_nonneg_int "counts" in
  let bad msg = raise (Json.Bad ("histogram " ^ name ^ ": " ^ msg)) in
  if bounds = [] then bad "no bounds";
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  if not (ascending bounds) then bad "bounds not strictly ascending";
  if List.length counts <> List.length bounds + 1 then
    bad "counts must be bounds + overflow";
  { name; bounds; counts; sum = Json.as_int "sum" (Json.field o "sum") }

let decode_timing j =
  let o = Json.as_obj "timing" j in
  Json.check_fields o [ "name"; "count"; "total_ms"; "max_ms" ] "timing";
  {
    name = Json.as_str "timing" (Json.field o "name");
    count = Json.as_nonneg_int "count" (Json.field o "count");
    total_ms = Json.as_nonneg "total_ms" (Json.field o "total_ms");
    max_ms = Json.as_nonneg "max_ms" (Json.field o "max_ms");
  }

let decode_histograms ctx j =
  let hs = List.map decode_histogram (Json.as_arr ctx j) in
  check_sorted ctx (List.map (fun (h : histogram) -> h.name) hs);
  hs

let decode_doc j =
  let o = Json.as_obj "snapshot" j in
  Json.check_fields o
    [ "version"; "counters"; "gauges"; "histograms"; "approx" ]
    "snapshot";
  (match Json.as_int "version" (Json.field o "version") with
  | 1 -> ()
  | v ->
      raise (Json.Bad (Printf.sprintf "unsupported snapshot version %d" v)));
  let a = Json.as_obj "approx" (Json.field o "approx") in
  Json.check_fields a
    [ "counters"; "gauges"; "histograms"; "timings" ]
    "approx";
  let timings =
    List.map decode_timing (Json.as_arr "timings" (Json.field a "timings"))
  in
  check_sorted "timings" (List.map (fun t -> t.name) timings);
  {
    counters = decode_counter_entries "counters" (Json.field o "counters");
    gauges = decode_entries "gauges" (Json.field o "gauges");
    histograms = decode_histograms "histograms" (Json.field o "histograms");
    approx_counters =
      decode_counter_entries "approx counters" (Json.field a "counters");
    approx_gauges = decode_entries "approx gauges" (Json.field a "gauges");
    approx_histograms =
      decode_histograms "approx histograms" (Json.field a "histograms");
    timings;
  }

let parse = Json.decode decode_doc

let parse_exn s =
  match parse s with
  | Ok d -> d
  | Error msg -> invalid_arg ("Export.parse_exn: " ^ msg)

let deterministic_equal a b =
  a.counters = b.counters && a.gauges = b.gauges
  && a.histograms = b.histograms

(* ------------------------------------------------------------------ *)
(* Percentile estimation                                               *)

(* Linear interpolation inside fixed buckets: the rank q·N lands in
   some bucket (lo, hi]; assume observations are uniform within it and
   interpolate.  The two end buckets have only one bound each, so a
   rank landing there is reported as that bound: the last bound for
   the overflow bucket (a lower bound, the honest direction for a tail
   percentile) and the first bound for the first bucket, whose lower
   edge is unknown: a histogram of batch sizes, every one at least 1,
   must not read a percentile below 1.  With power-of-two default
   bounds the estimate is within 2x of the true value, good enough for
   the operator's "is p99 milliseconds or seconds?" question without
   scraping Prometheus.  [total] is the (nonzero) observation count. *)
let estimate_percentile (h : histogram) ~total q =
  let rank = q *. float_of_int total in
  let rec walk lo cum bounds counts =
    match (bounds, counts) with
    | hi :: bounds, c :: counts ->
        let hi = float_of_int hi and cum' = cum + c in
        if c > 0 && float_of_int cum' >= rank then
          match lo with
          | None -> hi
          | Some lo ->
              let frac = (rank -. float_of_int cum) /. float_of_int c in
              lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. frac))
        else walk (Some hi) cum' bounds counts
    | _ -> Option.value lo ~default:0.
  in
  walk None 0 h.bounds h.counts

let render_percentiles t =
  let b = Buffer.create 256 in
  List.iter
    (fun (h : histogram) ->
      let total = List.fold_left ( + ) 0 h.counts in
      let cell q =
        let v = estimate_percentile h ~total q in
        if Float.is_integer v then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.1f" v
      in
      if total > 0 then
        Printf.bprintf b "%-40s count=%-8d p50=%-10s p90=%-10s p99=%s\n" h.name
          total (cell 0.5) (cell 0.9) (cell 0.99))
    (t.histograms @ t.approx_histograms);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let prom_name name =
  "localcert_"
  ^ String.map
      (fun c ->
        match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

let prom_entry b kind ?(labels = "") name v =
  let m = prom_name name in
  Printf.bprintf b "# TYPE %s %s\n%s%s %d\n" m kind m labels v

(* One histogram block.  [extra] is an optional label rendered inside
   every sample's label set (`le` joins it on buckets): the exact and
   approx sections used to duplicate this loop verbatim, differing only
   in that label. *)
let prom_histogram b ?extra (h : histogram) =
  let m = prom_name h.name in
  let plain, with_le =
    match extra with
    | None -> ("", fun le -> Printf.sprintf "{le=\"%s\"}" le)
    | Some l ->
        (Printf.sprintf "{%s}" l, fun le -> Printf.sprintf "{le=\"%s\",%s}" le l)
  in
  Printf.bprintf b "# TYPE %s histogram\n" m;
  let cumulative = ref 0 in
  List.iteri
    (fun i c ->
      cumulative := !cumulative + c;
      let le =
        match List.nth_opt h.bounds i with
        | Some bound -> string_of_int bound
        | None -> "+Inf"
      in
      Printf.bprintf b "%s_bucket%s %d\n" m (with_le le) !cumulative)
    h.counts;
  Printf.bprintf b "%s_sum%s %d\n%s_count%s %d\n" m plain h.sum m plain
    !cumulative

let to_prometheus t =
  let b = Buffer.create 2048 in
  List.iter (fun (n, v) -> prom_entry b "counter" n v) t.counters;
  List.iter (fun (n, v) -> prom_entry b "gauge" n v) t.gauges;
  List.iter (prom_histogram b) t.histograms;
  List.iter
    (fun (n, v) -> prom_entry b "counter" ~labels:"{approx=\"1\"}" n v)
    t.approx_counters;
  List.iter
    (fun (n, v) -> prom_entry b "gauge" ~labels:"{approx=\"1\"}" n v)
    t.approx_gauges;
  List.iter (prom_histogram b ~extra:"approx=\"1\"") t.approx_histograms;
  List.iter
    (fun tm ->
      let m = prom_name tm.name in
      Printf.bprintf b "# TYPE %s_ms summary\n" m;
      Printf.bprintf b "%s_ms_count{approx=\"1\"} %d\n" m tm.count;
      Printf.bprintf b "%s_ms_sum{approx=\"1\"} %s\n" m (Json.num tm.total_ms);
      Printf.bprintf b "%s_ms_max{approx=\"1\"} %s\n" m (Json.num tm.max_ms))
    t.timings;
  Buffer.contents b

let write_file path t =
  let oc = open_out path in
  output_string oc (render t);
  close_out oc
