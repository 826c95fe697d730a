"""Aggregate the server's Chrome trace-event slices into per-layer
percentiles.

The server (``localcert serve --trace FILE``) records complete slices
(``ph: X``) for ``serve.queue_wait``, ``serve.decode``, ``serve.batch``
and ``serve.write``, and begin/end pairs (``ph: B``/``E``) for the
engine-side spans ``serve.handle``, ``run_par`` and ``vcompile.<scheme>``.
Every slice carries the ``trace_id`` of the request that caused it
(begin/end pairs carry it on the ``B`` event).  This module turns those
events into one list of ``(name, trace_id, start_us, dur_us, args)``
slices and summarises them per layer.
"""

import json


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["traceEvents"] if isinstance(doc, dict) else doc


def slices(events):
    """Complete slices plus matched B/E pairs (per pid/tid stack), in
    timestamp order."""
    out = []
    stacks = {}
    for e in sorted(
        (e for e in events if e.get("ph") in ("X", "B", "E")),
        key=lambda e: (e["ts"], 0 if e["ph"] == "E" else 1),
    ):
        args = e.get("args") or {}
        tid = args.get("trace_id")
        if e["ph"] == "X":
            out.append((e["name"], tid, e["ts"], e["dur"], args))
        elif e["ph"] == "B":
            stacks.setdefault((e["pid"], e["tid"]), []).append(e)
        else:
            stack = stacks.get((e["pid"], e["tid"]), [])
            if stack and stack[-1]["name"] == e["name"]:
                b = stack.pop()
                bargs = b.get("args") or {}
                out.append((b["name"], bargs.get("trace_id"), b["ts"], e["ts"] - b["ts"], bargs))
    out.sort(key=lambda s: s[2])
    return out


def pct(sorted_vals, q):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    k = max(0, min(len(sorted_vals) - 1, int(-(-q * len(sorted_vals) // 1)) - 1))
    return sorted_vals[k]


def layer_name(name):
    return "vcompile" if name.startswith("vcompile.") else name


def aggregate(events):
    """Per layer: slice count, p50/p99 duration (us) and total (us);
    plus the mean batch size over ``serve.batch`` slices."""
    by = {}
    batch_sizes = []
    for name, _tid, _ts, dur, args in slices(events):
        by.setdefault(layer_name(name), []).append(dur)
        if name == "serve.batch" and "batch_size" in args:
            batch_sizes.append(args["batch_size"])
    summary = {}
    for name, durs in by.items():
        durs.sort()
        summary[name] = {
            "count": len(durs),
            "p50_us": pct(durs, 0.5),
            "p99_us": pct(durs, 0.99),
            "total_us": sum(durs),
        }
    summary["batch_size_mean"] = sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
    return summary


def fit_violations(events, requests, slack_us=1000.0):
    """Traced requests whose server-side slices do not fit inside the
    client's [send, receive] interval.  ``requests`` maps trace id to
    (send_us, recv_us) on the same monotonic clock as the trace.  A
    ``serve.write`` slice only has to start inside the interval: it
    covers one write per connection of the batch, and a client can
    read its answer before the writes to the others return.
    Returns (requests checked, violations)."""
    per = {}
    for name, tid, ts, dur, _args in slices(events):
        if tid is not None:
            per.setdefault(int(tid), []).append((name, ts, dur))
    checked = violations = 0
    for tid, (send_us, recv_us) in requests.items():
        own = per.get(tid)
        if not own:
            continue
        checked += 1
        start = min(ts for _n, ts, _d in own)
        end = max(ts + (0 if n == "serve.write" else d) for n, ts, d in own)
        if start < send_us - slack_us or end > recv_us + slack_us:
            violations += 1
    return checked, violations
