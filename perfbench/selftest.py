#!/usr/bin/env python3
"""Self-checks of the benchmark's own measurement code.

    python3 perfbench/selftest.py

Run from the repository root (it builds what it needs).  Three checks:

1. Trace aggregation against the committed ``TRACE_SERVE.trace.json``
   (read only): slice counts per layer equal the raw event counts,
   begin/end pairs match, and every traced request's server slices fit
   inside the client's own ``client.rtt`` slice for it.
2. Layer-sum consistency on certify-stream: for each family, pb's
   layer times sum to the wall time of the ``localcert certify``
   process on the same file within ``LAYER_SUM_TOL``; on spanning,
   ``vcompile.compile_s`` exceeds ``prover.s``; and ``prover.s`` /
   ``vcompile.compile_s`` agree with the CLI's own ``--metrics`` span
   totals on the same file within ``SPAN_TOL`` (or ``SPAN_FLOOR_S``,
   for spans of a few milliseconds).
3. A short traced serve-hot run: every traced request's slices fit
   inside its client latency, and the tracer dropped nothing.

Exits 0 when every check passes.
"""

import os
import statistics
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import trace_agg  # noqa: E402

FIXTURE = "TRACE_SERVE.trace.json"
LAYER_SUM_TOL = 0.2  # share of the CLI's wall time
SPAN_TOL = 0.25  # share of the CLI's span total ...
SPAN_FLOOR_S = 0.01  # ... or this many seconds, whichever is larger
CERTIFY_S = 40.0  # about seven interleaved passes

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def fixture_checks():
    events = trace_agg.load(FIXTURE)
    raw = {}
    for e in events:
        raw[(e.get("ph"), e["name"])] = raw.get((e.get("ph"), e["name"]), 0) + 1
    agg = trace_agg.aggregate(events)
    for name in ("serve.queue_wait", "serve.decode", "serve.batch", "serve.write"):
        check(agg[name]["count"] == raw[("X", name)], "fixture: %s slices counted" % name)
    for name in ("serve.handle", "run_par"):
        check(agg[name]["count"] == raw[("B", name)] == raw[("E", name)],
              "fixture: %s begin/end pairs matched" % name)
    vcompile = sum(n for (ph, name), n in raw.items() if ph == "B" and name.startswith("vcompile."))
    check(agg["vcompile"]["count"] == vcompile, "fixture: vcompile.* pairs matched")
    check(all(s[3] >= 0 for s in trace_agg.slices(events)), "fixture: no negative durations")
    check(all(v["p50_us"] <= v["p99_us"] for k, v in agg.items() if isinstance(v, dict)),
          "fixture: p50 <= p99 per layer")
    sizes = [e["args"]["batch_size"] for e in events
             if e.get("ph") == "X" and e["name"] == "serve.batch"]
    check(abs(agg["batch_size_mean"] - statistics.mean(sizes)) < 1e-9, "fixture: batch size mean")
    rtt = {int(e["args"]["trace_id"]): (e["ts"], e["ts"] + e["dur"])
           for e in events if e.get("ph") == "X" and e["name"] == "client.rtt"}
    checked, outside = trace_agg.fit_violations(events, rtt, slack_us=0.0)
    check(checked > 0 and outside == 0,
          "fixture: %d traced requests' slices inside client.rtt (%d outside)" % (checked, outside))


def certify_checks():
    # A traced certify-stream run interleaves the CLI's own runs (plain
    # and with --metrics) with pb's layer-by-layer copy, so a drift in
    # host speed during the test touches all three alike.
    ok, attempted, failed, _, layers = run.certify_stream(7, CERTIFY_S, True)
    check(ok and failed == 0, "certify-stream traced: answers correct (%d attempted, %d failed)"
          % (attempted, failed))
    for f in run.FAMILIES:
        layer_sum, cli = layers["layer_sum_s." + f], layers["certify_s." + f]
        gap = layers["certify.layer_gap_frac." + f]
        check(gap <= LAYER_SUM_TOL, "certify %s: layers sum %.3fs vs the CLI's %.3fs (gap %.3f <= %.2f)"
              % (f, layer_sum, cli, gap, LAYER_SUM_TOL))
    check(layers["vcompile.compile_s.spanning"] > layers["prover.s.spanning"],
          "certify spanning: vcompile.compile_s %.3fs above prover.s %.3fs"
          % (layers["vcompile.compile_s.spanning"], layers["prover.s.spanning"]))
    # The CLI's own --metrics spans for the same instance.
    for f in ("spanning", "tree-mso"):
        for label, ours_key, cli_key in (("prover.s", "prover.s.", "cli.prover_span_s."),
                                         ("vcompile.compile_s", "vcompile.compile_s.", "cli.compile_span_s.")):
            ours, c = layers[ours_key + f], layers[cli_key + f]
            check(abs(ours - c) <= max(SPAN_TOL * c, SPAN_FLOOR_S),
                  "certify %s: %s %.3fs vs CLI span %.3fs (within %.0f%% or %.0f ms)"
                  % (f, label, ours, c, 100 * SPAN_TOL, 1000 * SPAN_FLOOR_S))


def serve_checks():
    ok, attempted, failed, _, layers = run.serve_hot(5, 4.0, True)
    check(ok and failed == 0, "serve-hot traced: answers correct (%d attempted, %d failed)" % (attempted, failed))
    check(layers["obs.traced_requests"] > 0 and layers["obs.slices_outside_latency"] == 0,
          "serve-hot traced: %d traced requests, %d with slices outside the client latency"
          % (layers["obs.traced_requests"], layers["obs.slices_outside_latency"]))
    check(layers["obs.trace_dropped"] == 0, "serve-hot traced: no trace events dropped")


def main():
    run.build()
    fixture_checks()
    certify_checks()
    serve_checks()
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
