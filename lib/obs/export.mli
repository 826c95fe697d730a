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
    rendered documents.  This rendering is also the payload of a
    server's STATS reply (the serve library's [Protocol]), so a
    snapshot read from a [--metrics] file, fetched with
    [localcert stats --remote] or checked by the CI telemetry smoke
    goes through exactly this parser. *)

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

val render_percentiles : t -> string
(** Human-readable p50/p90/p99 table, one row per histogram
    (deterministic then approximate section, each in name order;
    histograms with zero observations are omitted) — what
    [localcert stats --percentiles] prints for any snapshot source.
    Estimates interpolate linearly within the bucket the rank falls
    into; a rank in the overflow bucket clamps to the last bound (a
    lower bound on the true quantile), and one in the first bucket
    reads as the first bound. *)

val to_prometheus : t -> string
(** Prometheus text exposition (metric names prefixed [localcert_] and
    mapped to the [[a-zA-Z0-9_]] charset; histograms as
    [_bucket]/[_sum]/[_count] triples; approximate metrics carry an
    [approx="1"] label; timers as [_ms] summaries).  A scrape format
    only: nothing in the repository parses it back. *)

val write_file : string -> t -> unit
(** Render to a file, atomically enough for CI (write then rename is
    overkill here; this is create/overwrite + close). *)
