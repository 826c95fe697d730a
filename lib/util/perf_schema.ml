type jrow = { jobs : int; verify_ms : float; verts_per_sec : float }

type group = {
  n : int;
  prover_ms : float;
  minor_words : float;
  interned_ratio : float;
  memo_hit_ratio : float option;
  max_rss_mb : float option;
      (* v3: process peak RSS (VmHWM) in MiB observed by the time the
         group finished — a per-run high-water mark, so within one
         artifact later groups report values ≥ earlier ones.  Optional
         so v2 artifacts (and platforms without /proc) still parse. *)
  rows : jrow list;
}

type series = { scheme : string; groups : group list }
type doc = { smoke : bool; series : series list }

(* ------------------------------------------------------------------ *)
(* Rendering and strict decoding, both through Obs.Json.               *)

let jrow_json (r : jrow) =
  Json.Obj
    [
      ("jobs", Json.int r.jobs);
      ("verify_ms", Json.Num r.verify_ms);
      ("verts_per_sec", Json.Num r.verts_per_sec);
    ]

let group_json (g : group) =
  let opt key = function None -> [] | Some v -> [ (key, Json.Num v) ] in
  Json.Obj
    ([
       ("n", Json.int g.n);
       ("prover_ms", Json.Num g.prover_ms);
       ("minor_words", Json.Num g.minor_words);
       ("interned_ratio", Json.Num g.interned_ratio);
     ]
    @ opt "memo_hit_ratio" g.memo_hit_ratio
    @ opt "max_rss_mb" g.max_rss_mb
    @ [ ("rows", Json.Arr (List.map jrow_json g.rows)) ])

let series_json s =
  Json.Obj
    [
      ("scheme", Json.Str s.scheme);
      ("groups", Json.Arr (List.map group_json s.groups));
    ]

let render d =
  Json.pretty
    (Json.Obj
       [
         ("smoke", Json.Bool d.smoke);
         ("series", Json.Arr (List.map series_json d.series));
       ])

let ratio ctx v =
  let f = Json.as_nonneg ctx v in
  if f > 1. then raise (Json.Bad (ctx ^ ": above 1"));
  f

let decode_jrow j =
  let o = Json.as_obj "row" j in
  Json.check_fields o [ "jobs"; "verify_ms"; "verts_per_sec" ] "row";
  let jobs = Json.as_int "jobs" (Json.field o "jobs") in
  if jobs <= 0 then raise (Json.Bad "row: jobs must be positive");
  {
    jobs;
    verify_ms = Json.as_nonneg "verify_ms" (Json.field o "verify_ms");
    verts_per_sec =
      Json.as_nonneg "verts_per_sec" (Json.field o "verts_per_sec");
  }

let decode_group j =
  let o = Json.as_obj "group" j in
  Json.check_fields o
    [
      "n";
      "prover_ms";
      "minor_words";
      "interned_ratio";
      "memo_hit_ratio";
      "max_rss_mb";
      "rows";
    ]
    "group";
  let n = Json.as_int "n" (Json.field o "n") in
  if n <= 0 then raise (Json.Bad "group: n must be positive");
  let rows = List.map decode_jrow (Json.as_arr "rows" (Json.field o "rows")) in
  if rows = [] then raise (Json.Bad (Printf.sprintf "group n=%d: no rows" n));
  (* one measurement per job count: a duplicate would make the jobs
     ladder — and the monotone guard over it — ambiguous *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : jrow) ->
      if Hashtbl.mem seen r.jobs then
        raise
          (Json.Bad (Printf.sprintf "group n=%d: duplicate jobs=%d" n r.jobs));
      Hashtbl.add seen r.jobs ())
    rows;
  {
    n;
    prover_ms = Json.as_nonneg "prover_ms" (Json.field o "prover_ms");
    minor_words = Json.as_nonneg "minor_words" (Json.field o "minor_words");
    interned_ratio = ratio "interned_ratio" (Json.field o "interned_ratio");
    memo_hit_ratio =
      Option.map (ratio "memo_hit_ratio") (List.assoc_opt "memo_hit_ratio" o);
    max_rss_mb =
      Option.map (Json.as_nonneg "max_rss_mb") (List.assoc_opt "max_rss_mb" o);
    rows;
  }

let decode_series j =
  let o = Json.as_obj "series" j in
  Json.check_fields o [ "scheme"; "groups" ] "series";
  let scheme = Json.as_str "scheme" (Json.field o "scheme") in
  let groups =
    List.map decode_group (Json.as_arr "groups" (Json.field o "groups"))
  in
  if groups = [] then raise (Json.Bad ("series " ^ scheme ^ ": no groups"));
  { scheme; groups }

let decode_doc j =
  let o = Json.as_obj "document" j in
  Json.check_fields o [ "smoke"; "series" ] "document";
  let smoke = Json.as_bool "smoke" (Json.field o "smoke") in
  let series =
    List.map decode_series (Json.as_arr "series" (Json.field o "series"))
  in
  if series = [] then raise (Json.Bad "document: no series");
  { smoke; series }

let parse = Json.decode decode_doc

let parse_exn s =
  match parse s with
  | Ok d -> d
  | Error msg -> invalid_arg ("Perf_schema.parse_exn: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Jobs-ladder monotonicity.  On this artifact "more jobs" must never
   cost wall-clock beyond the tolerance — the inverted ladder the
   compiled verifier path fixed (DESIGN §5.5) is exactly what this
   guard exists to catch.                                             *)

let jobs_monotone ?(tolerance = 0.15) (d : doc) =
  if tolerance < 0. then
    invalid_arg "Perf_schema.jobs_monotone: negative tolerance";
  let check_group scheme (g : group) acc =
    match acc with
    | Error _ -> acc
    | Ok () ->
        let rows =
          List.sort (fun (a : jrow) b -> compare a.jobs b.jobs) g.rows
        in
        let rec go = function
          | (a : jrow) :: (b :: _ as rest) ->
              if b.verify_ms > a.verify_ms *. (1. +. tolerance) then
                Error
                  (Printf.sprintf
                     "%s n=%d: verify_ms increases along the jobs ladder \
                      (jobs=%d: %.3fms -> jobs=%d: %.3fms, tolerance %.0f%%)"
                     scheme g.n a.jobs a.verify_ms b.jobs b.verify_ms
                     (100. *. tolerance))
              else go rest
          | _ -> Ok ()
        in
        go rows
  in
  List.fold_left
    (fun acc s ->
      List.fold_left (fun acc g -> check_group s.scheme g acc) acc s.groups)
    (Ok ()) d.series
