(** Deterministic telemetry snapshots.

    A snapshot is the merged state of the {!Metrics} registry, split
    into a {e deterministic} section — counters, gauges and histogram
    bucket counts that are a pure function of the workload (identical
    across two runs with the same seed, at any job count) — and an
    {e approximate} section holding everything timing-derived,
    scheduling-dependent or configuration-dependent (timers, cache hit
    accounting, sampled live sizes, pool/chunk geometry that varies
    with [--jobs]).

    Rendering and parsing go through {!Json}, the repository's one JSON
    codec: canonical number formatting, names sorted, and a strict
    parser that rejects unknown or repeated fields, unsorted names and
    malformed shapes, such that render ∘ parse is a fixpoint on
    rendered documents.  The CI telemetry smoke and the
    [localcert stats --validate] subcommand parse snapshots with
    exactly this parser. *)

type histogram = {
  name : string;
  bounds : int list;  (** strictly increasing inclusive upper limits *)
  counts : int list;  (** length [= List.length bounds + 1]; last = overflow *)
  sum : int;
}

type timing = Metrics.timing = {
  name : string;
  count : int;
  total_ms : float;
  max_ms : float;
}

type t = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;
  histograms : histogram list;
  approx_counters : (string * int) list;
  approx_gauges : (string * int) list;  (** includes sampler output *)
  approx_histograms : histogram list;
  timings : timing list;
      (** {!Metrics.timer}s that have run, by flat timer name *)
}

val snapshot : unit -> t
(** The current process-wide telemetry state. *)

val render : t -> string
(** Deterministic JSON in the {!Json.pretty} layout (sorted names,
    canonical numbers, trailing newline). *)

val parse : string -> (t, string) result
(** Strict: unknown or repeated fields, duplicate or unsorted names,
    negative counts, bound/count length mismatches and non-finite
    numbers are all errors. *)

val parse_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

val deterministic_equal : t -> t -> bool
(** Equality on the deterministic section only (counters, gauges,
    histograms) — what two same-seed runs must agree on. *)

val estimate_percentile : histogram -> float -> float option
(** [estimate_percentile h q] estimates the [q]-quantile ([q] in
    [[0, 1]]) of the observations summarized by [h], interpolating
    linearly within the bucket the rank falls into.  A rank landing in
    the overflow bucket clamps to the last bound (a lower bound on the
    true quantile).  [None] when the histogram is empty.
    @raise Invalid_argument if [q] is outside [[0, 1]]. *)

type percentile_row = {
  pname : string;
  pcount : int;  (** total observations *)
  p50 : float option;
  p90 : float option;
  p99 : float option;
}

val percentile_rows : t -> percentile_row list
(** One row per histogram (deterministic then approximate sections,
    each in name order). *)

val render_percentiles : t -> string
(** Human-readable percentile table (histograms with zero observations
    are omitted) — what [localcert stats --percentiles] prints so
    operators get latency percentiles without scraping Prometheus. *)

val render_percentiles_of_prometheus : string -> string
(** The same table, reconstructed from a Prometheus text exposition —
    the shape a server's STATS reply arrives in, so
    [localcert stats --remote --percentiles] can estimate quantiles
    client-side.  Cumulative [_bucket{le=...}] samples are
    de-cumulated; names stay in their mangled [localcert_*] form.
    Non-histogram lines and malformed (non-monotone) series are
    ignored. *)

val to_prometheus : t -> string
(** Prometheus text exposition (metric names prefixed [localcert_] and
    mapped to the [[a-zA-Z0-9_]] charset; histograms as
    [_bucket]/[_sum]/[_count] triples; approximate metrics carry an
    [approx="1"] label). *)

val write_file : string -> t -> unit
(** Render to a file, atomically enough for CI (write then rename is
    overkill here; this is create/overwrite + close). *)
