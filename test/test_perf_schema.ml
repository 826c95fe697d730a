(* Guard tests for the BENCH_PERF.json schema.

   The committed artifact must always parse under [Perf_schema] — a
   bench that drifts from the schema (or a hand-edited artifact) is a
   test failure here, not a silently stale file.  Since PR 6 the
   committed artifact must also have a monotone non-increasing (within
   tolerance) verify_ms along every group's jobs ladder: an inverted
   ladder means the compiled verifier path regressed (DESIGN §5.5). *)

let check = Alcotest.(check bool)

let jrow jobs verify_ms n =
  {
    Perf_schema.jobs;
    verify_ms;
    verts_per_sec = (float_of_int n /. verify_ms) *. 1e3;
  }

let sample =
  {
    Perf_schema.smoke = false;
    series =
      [
        {
          Perf_schema.scheme = "kernel-mso";
          groups =
            [
              {
                Perf_schema.n = 195;
                prover_ms = 12.5;
                minor_words = 1048576.;
                interned_ratio = 0.25;
                memo_hit_ratio = Some 0.5;
                max_rss_mb = Some 42.5;
                rows = [ jrow 1 0.8 195; jrow 2 0.78 195; jrow 4 0.75 195 ];
              };
            ];
        };
      ];
  }

let render_parse_roundtrip () =
  let rendered = Perf_schema.render sample in
  match Perf_schema.parse rendered with
  | Error msg -> Alcotest.failf "rendered sample does not parse: %s" msg
  | Ok d ->
      check "smoke" true (d.Perf_schema.smoke = sample.Perf_schema.smoke);
      (* render is a fixpoint after one round trip *)
      Alcotest.(check string) "fixpoint" rendered (Perf_schema.render d)

let seed_arbitrary = QCheck.(int_bound 1_000_000)

let qcheck_random_roundtrip =
  QCheck.Test.make ~name:"random docs round-trip through render/parse"
    ~count:200 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let row jobs =
        {
          Perf_schema.jobs;
          verify_ms = Rng.float rng 10_000.;
          verts_per_sec = Rng.float rng 1e9;
        }
      in
      let group () =
        (* distinct job counts: duplicates are a parse error *)
        let k = 1 + Rng.int rng 5 in
        {
          Perf_schema.n = 1 + Rng.int rng 100_000;
          prover_ms = Rng.float rng 10_000.;
          minor_words = float_of_int (Rng.int rng 1_000_000_000);
          interned_ratio = Rng.float rng 1.0;
          memo_hit_ratio =
            (if Rng.bool rng then Some (Rng.float rng 1.0) else None);
          max_rss_mb =
            (if Rng.bool rng then Some (Rng.float rng 100_000.) else None);
          rows = List.init k (fun i -> row (i + 1));
        }
      in
      let series i =
        {
          Perf_schema.scheme = Printf.sprintf "scheme-%d" i;
          groups = List.init (1 + Rng.int rng 3) (fun _ -> group ());
        }
      in
      let doc =
        {
          Perf_schema.smoke = Rng.bool rng;
          series = List.init (1 + Rng.int rng 5) series;
        }
      in
      let rendered = Perf_schema.render doc in
      match Perf_schema.parse rendered with
      | Error _ -> false
      | Ok d -> Perf_schema.render d = rendered)

(* Groups without a named-memo ratio or an RSS figure omit the fields
   and parse to None — this is also what makes a v2 artifact (no
   max_rss_mb anywhere) parse under the v3 schema. *)
let optional_memo_field () =
  let text =
    {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 0, "rows": [ { "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 } ] } ] } ] }|}
  in
  (match Perf_schema.parse text with
  | Error msg -> Alcotest.failf "memo-less group does not parse: %s" msg
  | Ok d ->
      let g =
        List.hd (List.hd d.Perf_schema.series).Perf_schema.groups
      in
      check "missing memo_hit_ratio is None" true
        (g.Perf_schema.memo_hit_ratio = None);
      check "missing max_rss_mb is None (v2 artifact)" true
        (g.Perf_schema.max_rss_mb = None));
  let text_v3 =
    {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 0, "max_rss_mb": 512.25, "rows": [ { "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 } ] } ] } ] }|}
  in
  match Perf_schema.parse text_v3 with
  | Error msg -> Alcotest.failf "v3 group does not parse: %s" msg
  | Ok d ->
      let g = List.hd (List.hd d.Perf_schema.series).Perf_schema.groups in
      check "max_rss_mb parsed" true (g.Perf_schema.max_rss_mb = Some 512.25)

let rejects_malformed () =
  let wrap rows_body =
    Printf.sprintf
      {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 0, "rows": [ %s ] } ] } ] }|}
      rows_body
  in
  let bad =
    [
      ("not json", "{");
      ("empty series", {|{ "smoke": false, "series": [] }|});
      ( "empty groups",
        {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [] } ] }|} );
      ( "empty rows",
        {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 0, "rows": [] } ] } ] }|}
      );
      ("missing row field", wrap {|{ "jobs": 1, "verify_ms": 1 }|});
      ( "unknown field",
        {|{ "smoke": false, "oops": 1, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 0, "rows": [ { "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 } ] } ] } ] }|}
      );
      ( "prover_ms duplicated into rows (v1 layout)",
        wrap {|{ "jobs": 1, "prover_ms": 1, "verify_ms": 1, "verts_per_sec": 1 }|}
      );
      ( "duplicate job counts",
        wrap
          {|{ "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 }, { "jobs": 1, "verify_ms": 2, "verts_per_sec": 1 }|}
      );
      ( "ratio above one",
        {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 2, "rows": [ { "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 } ] } ] } ] }|}
      );
      ( "negative time",
        {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": -1, "minor_words": 1, "interned_ratio": 0, "rows": [ { "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 } ] } ] } ] }|}
      );
      ( "negative max_rss_mb",
        {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 0, "max_rss_mb": -5, "rows": [ { "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 } ] } ] } ] }|}
      );
      ( "repeated smoke key",
        {|{ "smoke": false, "smoke": 3, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 0, "rows": [ { "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 } ] } ] } ] }|}
      );
      ( "memo ratio above one",
        {|{ "smoke": false, "series": [ { "scheme": "x", "groups": [ { "n": 1, "prover_ms": 1, "minor_words": 1, "interned_ratio": 0, "memo_hit_ratio": 1.5, "rows": [ { "jobs": 1, "verify_ms": 1, "verts_per_sec": 1 } ] } ] } ] }|}
      );
    ]
  in
  List.iter
    (fun (name, text) ->
      check name true (Result.is_error (Perf_schema.parse text)))
    bad

(* ------------------------------------------------------------------ *)
(* jobs_monotone                                                      *)

let doc_of_ladder verify_ms_ladder =
  {
    Perf_schema.smoke = false;
    series =
      [
        {
          Perf_schema.scheme = "spanning";
          groups =
            [
              {
                Perf_schema.n = 256;
                prover_ms = 1.;
                minor_words = 0.;
                interned_ratio = 0.;
                memo_hit_ratio = None;
                max_rss_mb = None;
                rows =
                  List.mapi (fun i v -> jrow (i + 1) v 256) verify_ms_ladder;
              };
            ];
        };
      ];
  }

let monotone_accepts () =
  let ok d =
    match Perf_schema.jobs_monotone d with
    | Ok () -> true
    | Error _ -> false
  in
  check "strictly decreasing" true (ok (doc_of_ladder [ 4.; 3.; 2.; 1. ]));
  check "flat" true (ok (doc_of_ladder [ 1.; 1.; 1. ]));
  (* within the default 15% tolerance *)
  check "small bump tolerated" true (ok (doc_of_ladder [ 1.0; 1.10; 1.05 ]));
  (* exactly at the boundary is allowed (<=, not <) *)
  check "boundary bump tolerated" true (ok (doc_of_ladder [ 1.0; 1.15 ]));
  (* stricter tolerance rejects the same bump *)
  check "zero tolerance rejects any bump" true
    (Result.is_error
       (Perf_schema.jobs_monotone ~tolerance:0.
          (doc_of_ladder [ 1.0; 1.001 ])))

let monotone_rejects_inversion () =
  match Perf_schema.jobs_monotone (doc_of_ladder [ 1.0; 2.0; 1.9 ]) with
  | Ok () -> Alcotest.fail "inverted ladder accepted"
  | Error msg ->
      (* the error names the scheme, the size and the offending step *)
      let has needle =
        let rec go i =
          i + String.length needle <= String.length msg
          && (String.sub msg i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      check "names scheme" true (has "spanning");
      check "names size" true (has "n=256");
      check "names jobs step" true (has "jobs=2")

let monotone_sorts_rows () =
  (* rows out of jobs order are sorted before checking: the ladder
     8/4/2/1 with decreasing times read back-to-front is monotone *)
  let d =
    {
      Perf_schema.smoke = false;
      series =
        [
          {
            Perf_schema.scheme = "x";
            groups =
              [
                {
                  Perf_schema.n = 16;
                  prover_ms = 1.;
                  minor_words = 0.;
                  interned_ratio = 0.;
                  memo_hit_ratio = None;
                  max_rss_mb = None;
                  rows = [ jrow 8 1.0 16; jrow 1 4.0 16; jrow 2 2.0 16 ];
                };
              ];
          };
        ];
    }
  in
  check "unsorted rows handled" true
    (match Perf_schema.jobs_monotone d with Ok () -> true | Error _ -> false)

(* The committed artifact at the repository root: walk up from the
   dune sandbox cwd until BENCH_PERF.json appears. *)
let find_artifact () =
  let rec go dir depth =
    if depth > 6 then None
    else
      let candidate = Filename.concat dir "BENCH_PERF.json" in
      if Sys.file_exists candidate then Some candidate
      else go (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  go (Sys.getcwd ()) 0

let committed_artifact_parses () =
  match find_artifact () with
  | None ->
      Alcotest.fail
        "BENCH_PERF.json not found; run `make bench-perf` (or commit the \
         artifact)"
  | Some path ->
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Perf_schema.parse text with
      | Error msg -> Alcotest.failf "%s does not parse: %s" path msg
      | Ok d ->
          check "at least 4 scheme families" true
            (List.length d.Perf_schema.series >= 4);
          List.iter
            (fun (s : Perf_schema.series) ->
              check (s.Perf_schema.scheme ^ " has groups") true
                (s.Perf_schema.groups <> []))
            d.Perf_schema.series;
          (* the headline guard: no inverted jobs ladder in the
             committed artifact.  Full runs only — smoke artifacts
             (CI regenerates one in-place before re-running this
             test) use sizes where timing noise swamps the ladder,
             which is exactly why the bench skips its own guard under
             --perf-smoke. *)
          if not d.Perf_schema.smoke then
            match Perf_schema.jobs_monotone d with
            | Ok () -> ()
            | Error msg ->
                Alcotest.failf "%s jobs ladder not monotone: %s" path msg)

let suite =
  [
    ( "perf-schema",
      [
        Alcotest.test_case "render/parse roundtrip" `Quick
          render_parse_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_random_roundtrip;
        Alcotest.test_case "missing memo_hit_ratio parses to None" `Quick
          optional_memo_field;
        Alcotest.test_case "malformed documents rejected" `Quick
          rejects_malformed;
        Alcotest.test_case "jobs_monotone accepts flat/decreasing ladders"
          `Quick monotone_accepts;
        Alcotest.test_case "jobs_monotone rejects an inverted ladder" `Quick
          monotone_rejects_inversion;
        Alcotest.test_case "jobs_monotone sorts rows by jobs" `Quick
          monotone_sorts_rows;
        Alcotest.test_case "committed BENCH_PERF.json parses and is monotone"
          `Quick committed_artifact_parses;
      ] );
  ]
