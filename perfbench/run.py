#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads, every
answer checked against an oracle, every metric printed by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds the certification library,
the ``localcert`` CLI and the benchmark's own OCaml program
(``perfbench/pb.ml``) with dune, runs the workload, and prints as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` is a separate pass that reports the
per-layer metrics.  Workloads, metrics and the layer-to-end-to-end map
are described in ``perfbench/METRICS.md``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_agg  # noqa: E402

PB = os.path.join("_build", "default", "perfbench", "pb.exe")
CLI = os.path.join("_build", "default", "bin", "localcert_cli.exe")
WORK = ".perfbench_run"
FAMILIES = ("spanning", "tree-mso", "treedepth")
WORKLOADS = ("certify-stream", "serve-hot", "churn-recover")
SEGMENTS = 4  # serve: schedule segments per run, each on a fresh server
CHURN_PROCESSES = 2  # churn: runner processes per untraced run
SETUPS = 8  # serve: server launches per run (set-up samples), >= SEGMENTS
SETUP_LAUNCHES = 3  # certify: trivial CLI launches per pass (set-up samples)
HOT_LADDER = 2.0  # geometric step of serve-hot's max_rps ladder
HOT_LIMIT_MS = 20.0  # serve-hot latency limit on a ladder step's tail
LADDER_STEP_S = 1.5
LADDER_STEPS = 10
HOST_WARM_S = 2.0  # busy loop on every core before a run: a host idle
# for a while runs the first seconds of work markedly slower
WARM_LOAD_S = 1.0  # discarded serve load before the timed window


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError("run from the repository root: no dune-project/lib here")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./" + PB, "./" + CLI],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=850,
    )
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


def host_info():
    out = subprocess.run([PB, "host"], stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return dict(nproc=os.cpu_count(), **json.loads(out.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------------------
# process helpers


def wait_child(p, timeout=60.0):
    """Reap a child with its own rusage; kill it past the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            return ru
        if time.monotonic() > deadline:
            p.kill()
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError("child %s timed out" % p.args[:2])
        time.sleep(0.005)


def read_json_line(stream, what):
    line = stream.readline()
    if not line:
        raise BenchError("%s exited early" % what)
    return json.loads(line)


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def warm_host():
    spin = "import time\nt = time.monotonic() + %r\nwhile time.monotonic() < t: pass" % HOST_WARM_S
    procs = [subprocess.Popen([sys.executable, "-c", spin]) for _ in range(os.cpu_count() or 1)]
    for p in procs:
        wait_child(p)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------
# certify-stream: the CLI certifying three edge-list files


def run_timed(cmd, timeout=120.0):
    """Run a command to completion: (stdout, wall seconds, rusage).  The
    wall time runs from the spawn to the reap."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd[:3]), p.returncode))
    return out, wall, ru


def cli_certify(path, scheme, metrics_file=None):
    """One `localcert certify` process on an edge-list file: its wall
    time, CPU, peak RSS and printed verdict (and, given a metrics file,
    its own prover and vcompile span totals)."""
    cmd = [CLI, "certify", "-g", "file:" + path, "-s", scheme, "--jobs", "1"]
    if metrics_file:
        cmd += ["--metrics", metrics_file]
    out, wall, ru = run_timed(cmd)
    r = {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime, "rss_kb": ru.ru_maxrss,
         "accepted": None, "max_bits": None, "rejections": []}
    for line in out.splitlines():
        if line.startswith("prover: certificates assigned (max "):
            r["max_bits"] = int(line.split("(max ", 1)[1].split()[0])
        elif line.startswith("verifier: all nodes accept = "):
            r["accepted"] = line.rsplit("= ", 1)[1].strip() == "true"
        elif line.startswith("  node ") and " rejects: " in line:
            head, reason = line.split(" rejects: ", 1)
            r["rejections"].append([int(head.split()[1]), reason])
    if metrics_file:
        with open(metrics_file) as f:
            timings = json.load(f)["approx"]["timings"]
        vspans = [t for t in timings if t["name"].rsplit("/", 1)[-1].startswith("vcompile.")]
        r["prover_span_s"] = sum(t["total_ms"] for t in timings if t["name"] == "prover") / 1000
        r["compile_span_s"] = sum(t["total_ms"] for t in vspans) / 1000
        r["compiles"] = sum(t["count"] for t in vspans)
    return r


def cli_matches(r, ref):
    """The CLI's verdict equals the reference outcome: the interpreted
    Scheme.run on the same certificates, computed by pb."""
    return (r["accepted"] is True and r["accepted"] == ref["accepted"]
            and r["max_bits"] == ref["max_bits"] and r["rejections"] == ref["rejections"])


def cli_setup():
    """The CLI's fixed cost per invocation: a process certifying a
    2-vertex path (start-up, scheme registry, pool, output)."""
    out, wall, _ = run_timed([CLI, "certify", "-g", "path:2", "-s", "spanning", "--jobs", "1"])
    return wall, "verifier: all nodes accept = true" in out


def pb_certify(path, family):
    """pb's copy of the certify sequence: the layer split, the
    reverification rate and the reference outcome."""
    out = subprocess.run([PB, "certify", "--file", path, "--family", family],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def certify_stream(seed, seconds, trace):
    cs_dir = os.path.join(WORK, "certify")
    os.makedirs(cs_dir, exist_ok=True)
    subprocess.run([PB, "gen", "--seed", str(seed), "--dir", cs_dir], check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    files = {f: os.path.join(cs_dir, f + ".el") for f in FAMILIES}
    mfile = os.path.join(cs_dir, "metrics.json")
    attempted = failed = 0

    def copy_pass():
        nonlocal attempted, failed
        res = {f: pb_certify(files[f], f) for f in FAMILIES}
        for r in res.values():
            attempted += 1
            if not (r["oracle_ok"] and r["reverify_ok"]):
                failed += 1
        return res

    def cli_pass(metrics):
        nonlocal attempted, failed
        res = {}
        for f in FAMILIES:
            res[f] = cli_certify(files[f], ref[f]["scheme"], mfile if metrics else None)
            attempted += 1
            if not cli_matches(res[f], ref[f]):
                failed += 1
        return res

    # Oracle first, outside any timing: pb's reference outcome per file.
    ref = copy_pass()
    copies = [ref]
    cli_pass(False)  # warm-up pass, not recorded
    plain, spans, setups = [], [], []
    setup_ok = True
    t_end = time.monotonic() + seconds
    while time.monotonic() < t_end or len(plain) < 1:
        for _ in range(SETUP_LAUNCHES):
            wall, ok = cli_setup()
            setups.append(wall)
            setup_ok = setup_ok and ok
        plain.append(cli_pass(False))
        if trace:
            spans.append(cli_pass(True))
            copies.append(copy_pass())
    correct = failed == 0 and setup_ok

    def fam_median(passes, f, key):
        return median([r[f][key] for r in passes])

    pass_s = [sum(r[f]["wall_s"] for f in FAMILIES) for r in plain]
    if not trace:
        e2e = {
            "setup_s": metric(median(setups), "s"),
            "p50_ms": metric(1000 * sum(fam_median(plain, f, "wall_s") for f in FAMILIES), "ms"),
            "cpu_ms_per_op": metric(1000 * sum(fam_median(plain, f, "cpu_s") for f in FAMILIES), "ms"),
            "peak_rss_mb": metric(max(fam_median(plain, f, "rss_kb") for f in FAMILIES) / 1024, "MB"),
            "cert_bits": metric(sum(ref[f]["max_bits"] for f in FAMILIES), "bits"),
        }
        return correct, attempted, failed, e2e, None
    layers = {}
    parts = ("ingest_s", "make_s", "prover_s", "intern_s", "compile_s", "sweep_s")
    for f in FAMILIES:
        certify_s = fam_median(plain, f, "wall_s")
        prover_s = fam_median(copies, f, "prover_s")
        compile_s = fam_median(copies, f, "compile_s")
        prover_span = fam_median(spans, f, "prover_span_s")
        compile_span = fam_median(spans, f, "compile_span_s")
        ingest_s = fam_median(copies, f, "ingest_s")
        layer_sum = median([sum(r[f][p] for p in parts) for r in copies])
        layers.update({
            "certify_s." + f: certify_s,
            "io.ingest_s." + f: ingest_s,
            "io.edges_per_s." + f: ref[f]["m"] / ingest_s,
            "instance.make_s." + f: fam_median(copies, f, "make_s"),
            "prover.s." + f: prover_s,
            "prover.minor_words." + f: ref[f]["prover_minor_words"],
            "cert_store.intern_s." + f: fam_median(copies, f, "intern_s"),
            "cert_store.arena_bytes." + f: ref[f]["arena_bytes"],
            "vcompile.compile_s." + f: compile_s,
            "engine.sweep_s." + f: fam_median(copies, f, "sweep_s"),
            "reverify_vps." + f: fam_median(copies, f, "reverify_vps"),
            # Layer-sum consistency: the copy's layers against the
            # CLI's own wall time on the same file; and the copy's
            # prover and compile against the CLI's --metrics spans.
            "certify.layer_gap_frac." + f: abs(layer_sum - certify_s) / certify_s,
            "prover.span_gap_frac." + f: abs(prover_s - prover_span) / prover_span,
            "vcompile.span_gap_frac." + f: abs(compile_s - compile_span) / compile_span,
            # Raw figures for the consistency test, not BENCHMARK.json
            # metrics.
            "layer_sum_s." + f: layer_sum,
            "cli.prover_span_s." + f: prover_span,
            "cli.compile_span_s." + f: compile_span,
        })
    reused = [r[f]["kernel_reused"] for r in copies for f in FAMILIES]
    layers.update({
        "vcompile.compiles": median([sum(r[f]["compiles"] for f in FAMILIES) for r in spans]),
        "vcompile.kernel_reuse_ratio": sum(reused) / len(reused),
        "op.samples": len(plain),
        "op.tail_ms": 1000 * max(pass_s),
        "obs.trace_overhead_frac": sum(fam_median(spans, f, "wall_s") for f in FAMILIES)
        / sum(fam_median(plain, f, "wall_s") for f in FAMILIES) - 1,
    })
    return correct, attempted, failed, None, layers


# ---------------------------------------------------------------------
# serve-hot: a localcert server and the open-loop client


class Server:
    def __init__(self, trace_file=None, metrics_file=None):
        cmd = [CLI, "serve", "--port", "0", "--workers", "1"]
        if trace_file:
            cmd += ["--trace", trace_file, "--trace-rate", "0"]
        if metrics_file:
            cmd += ["--metrics", metrics_file]
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.p.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise BenchError("server did not start: %r" % line)
        self.ready_s = time.perf_counter() - self.t0
        self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGINT)
        ru = wait_child(self.p, timeout=30)
        self.p.stdout.close()
        return ru


class Client:
    def __init__(self, seed, seconds):
        self.p = subprocess.Popen(
            [PB, "client", "--seed", str(seed), "--seconds", str(seconds)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.info = read_json_line(self.p.stdout, "client")
        except BenchError:
            self.close()
            raise

    def ask(self, line):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()
        return read_json_line(self.p.stdout, "client")

    def close(self):
        if self.p.poll() is None:
            try:
                self.p.stdin.write("quit\n")
                self.p.stdin.close()
            except BrokenPipeError:
                pass
        wait_child(self.p, timeout=30)


def start_server(client, live, **server_args):
    """Launch a server and warm every key once.  The set-up is launch
    to listening plus that warm-up.  Returns (server, set-up seconds,
    answers ok, cert bits)."""
    srv = Server(**server_args)
    live.append(srv)
    w = client.ask("warm %d" % srv.port)
    return srv, srv.ready_s + w["warm_s"], w["warm_ok"], w["cert_bits"]


def warm_load(client, srv):
    """A short discarded load before a timed window; True if every
    answer matched its oracle."""
    return run_load(client, srv, rate=client.info["rate"], seconds=WARM_LOAD_S)["wrong"] == 0


def stop_server(srv, live):
    live.remove(srv)
    return srv.stop()


def run_load(client, srv, every=0, segment=(0, 1), rate=None, seconds=None):
    """Replay one segment of the run's schedule (or, given a rate, a
    schedule of that rate and length) against the server."""
    cmd = "run %d %d " % (srv.port, every)
    if rate is None:
        cmd += "segment %d %d" % segment
    else:
        cmd += "rate %r %r" % (rate, seconds)
    c0 = proc_cpu_s(srv.p.pid)
    res = client.ask(cmd)
    res["server_cpu_s"] = proc_cpu_s(srv.p.pid) - c0
    return res


def load_failed(res):
    return res["attempted"] - res["ok"]


def max_rps_ladder(client, srv, base):
    """Highest rate on the geometric ladder base * HOT_LADDER^k whose
    tail latency (the highest percentile with 10 samples beyond it)
    meets HOT_LIMIT_MS with no growing backlog: every request answered,
    and the generator never more than the limit late."""
    best, rate = 0.0, base
    answers_ok = True
    for _ in range(LADDER_STEPS):
        res = run_load(client, srv, rate=rate, seconds=LADDER_STEP_S)
        answers_ok = answers_ok and res["wrong"] == 0
        if (load_failed(res) > 0 or res["tail_ms"] > HOT_LIMIT_MS
                or res["late_p99_ms"] > HOT_LIMIT_MS):
            break
        best = rate
        rate *= HOT_LADDER
    return best, answers_ok


def serve_hot(seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    # Untraced runs split the schedule into SEGMENTS, each against a
    # fresh server: a server process's own speed varies from launch to
    # launch, so one process per run would make the run's figures that
    # process's.  Further launches without load add set-up samples.
    # Traced runs replay the first half of the schedule untraced (the
    # overhead baseline, then the max_rps ladder) and the second half
    # with the server's tracer and metrics on.
    client = Client(seed, seconds)
    live = []
    try:
        if not trace:
            setups, lat, cpu, rss = [], [], 0.0, 0
            attempted = failed = answered = 0
            correct = True
            for k in range(SETUPS):
                srv, setup, ok, bits = start_server(client, live)
                setups.append(setup)
                correct = correct and ok
                if k >= SEGMENTS:
                    stop_server(srv, live)
                    continue
                correct = correct and warm_load(client, srv)
                res = run_load(client, srv, segment=(k, SEGMENTS))
                rss = max(rss, stop_server(srv, live).ru_maxrss)
                lat += res["latencies_ms"]
                cpu += res["server_cpu_s"]
                attempted += res["attempted"]
                failed += load_failed(res)
                answered += res["answered"]
                correct = correct and res["wrong"] == 0
            e2e = {
                "setup_s": metric(median(setups), "s"),
                "p50_ms": metric(median(lat), "ms"),
                "cpu_ms_per_op": metric(1000 * cpu / max(1, answered), "ms"),
                "peak_rss_mb": metric(rss / 1024, "MB"),
                "cert_bits": metric(bits, "bits"),
            }
            return correct, attempted, failed, e2e, None
        srv, _, ok, _ = start_server(client, live)
        ok = warm_load(client, srv) and ok
        res = run_load(client, srv, segment=(0, 2))
        attempted, failed = res["attempted"], load_failed(res)
        correct = ok and res["wrong"] == 0
        max_rps, ladder_ok = max_rps_ladder(client, srv, client.info["rate"])
        correct = correct and ladder_ok
        stop_server(srv, live)
        trace_file = os.path.join(WORK, "serve-hot.trace.json")
        metrics_file = os.path.join(WORK, "serve-hot.metrics.json")
        for f in (trace_file, metrics_file):
            if os.path.exists(f):
                os.remove(f)
        srv, _, ok, _ = start_server(client, live, trace_file=trace_file, metrics_file=metrics_file)
        ok = warm_load(client, srv) and ok
        # Every request carries a trace id: at these rates that is a few
        # thousand events, far below the tracer's 65536-event rings.
        tres = run_load(client, srv, every=1, segment=(1, 2))
        stop_server(srv, live)
        attempted += tres["attempted"]
        failed += load_failed(tres)
        correct = correct and ok and tres["wrong"] == 0
        layers = serve_layers(res, tres, trace_file, metrics_file)
        layers["max_rps"] = max_rps
        correct = correct and layers["obs.trace_dropped"] == 0 and layers["obs.slices_outside_latency"] == 0
        return correct, attempted, failed, None, layers
    finally:
        for srv in live:
            srv.stop()
        client.close()


def snapshot_values(path):
    """Flatten an Obs.Export snapshot: counters and gauges (exact and
    approximate) by name, histograms by name."""
    with open(path) as f:
        snap = json.load(f)
    vals, hists = {}, {}
    for t in snap.get("approx", {}).get("timings", []):
        if t["name"].rsplit("/", 1)[-1].startswith("vcompile."):
            vals["vcompile.span_count"] = vals.get("vcompile.span_count", 0) + t["count"]
    for sec in (snap, snap.get("approx", {})):
        for kind in ("counters", "gauges"):
            for c in sec.get(kind, []):
                vals[c["name"]] = vals.get(c["name"], 0) + c["value"]
        for h in sec.get("histograms", []):
            hists[h["name"]] = h
    return vals, hists


def serve_layers(plain, traced, trace_file, metrics_file):
    events = trace_agg.load(trace_file)
    agg = trace_agg.aggregate(events)
    vals, hists = snapshot_values(metrics_file)
    requests = {int(tid): (s / 1000, r / 1000) for tid, s, r in traced["traced"]}
    checked, outside = trace_agg.fit_violations(events, requests)

    def layer(name, key, scale):
        return agg.get(name, {}).get(key, 0) * scale

    hits = vals.get("memo.serve.prepared.hits", 0)
    misses = vals.get("memo.serve.prepared.misses", 0)
    # serve.batch_size observes one value per request group a worker
    # evaluates once: every request past the first in a group, and
    # every cross-worker follower, was answered without its own sweep.
    groups = hists.get("serve.batch_size", {})
    n_groups = sum(groups.get("counts", []))
    grouped = groups.get("sum", 0)
    reuse = vals.get("vcompile.kernel_reuse", 0)
    compiles = vals.get("vcompile.span_count", 0)
    return {
        "engine.run_par_ms.p50": layer("run_par", "p50_us", 1e-3),
        "engine.run_par_ms.p99": layer("run_par", "p99_us", 1e-3),
        "admission.queue_wait_ms.p50": layer("serve.queue_wait", "p50_us", 1e-3),
        "admission.queue_wait_ms.p99": layer("serve.queue_wait", "p99_us", 1e-3),
        "protocol.decode_us.p50": layer("serve.decode", "p50_us", 1),
        "server.write_us.p50": layer("serve.write", "p50_us", 1),
        "batcher.batch_size.mean": agg["batch_size_mean"],
        "batcher.coalesced_frac": (grouped - n_groups + vals.get("serve.coalesced", 0)) / max(1, grouped),
        "handlers.handle_ms.p50": layer("serve.handle", "p50_us", 1e-3),
        "handlers.handle_ms.p99": layer("serve.handle", "p99_us", 1e-3),
        "handlers.prepared_hit_ratio": hits / max(1, hits + misses),
        "handlers.instance_cache_hits": vals.get("serve.instance_cache_hits", 0),
        "vcompile.compiles": compiles,
        "vcompile.kernel_reuse_ratio": reuse / max(1, reuse + compiles),
        "client.late_ms.p99": plain["late_p99_ms"],
        "client.sent": plain["sent"],
        "client.retry_later": plain["retry_later"] + traced["retry_later"],
        "obs.trace_dropped": vals.get("obs.trace_dropped", 0),
        "obs.traced_requests": checked,
        "obs.slices_outside_latency": outside,
        "obs.trace_overhead_frac": traced["p50_ms"] / plain["p50_ms"] - 1,
        "op.samples": plain["answered"],
        "op.tail_ms": plain["tail_ms"],
    }


# ---------------------------------------------------------------------
# churn-recover: Runtime.execute with self-healing, in one process


def churn_process(seed, seconds, trace):
    """One churn runner process: (set-up samples, result)."""
    cmd = [PB, "churn", "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--traced")
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        setup = read_json_line(p.stdout, "churn")["setup_s"]
        res = read_json_line(p.stdout, "churn")
    finally:
        wait_child(p, timeout=170)
    if p.returncode != 0:
        raise BenchError("churn runner failed")
    return setup, res


def churn(seed, seconds, trace):
    if not trace:
        # Two runner processes per run, as with serve-hot's servers: a
        # process's speed (its set-up most of all) varies from launch
        # to launch.
        runs = [churn_process(seed, seconds / CHURN_PROCESSES, False) for _ in range(CHURN_PROCESSES)]
        setup = [x for s, _ in runs for x in s]
        results = [r for _, r in runs]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = failed == 0 and all(q > 0 for r in results for q in r["rounds_to_quiesce"])
        correct = correct and len({r["cert_bits"] for r in results}) == 1
        e2e = {
            "setup_s": metric(median(setup), "s"),
            "p50_ms": metric(1000 * median([x for r in results for x in r["passes_s"]]), "ms"),
            "cpu_ms_per_op": metric(1000 * median([x for r in results for x in r["cpu_s"]]), "ms"),
            "peak_rss_mb": metric(max(r["vm_hwm_kb"] for r in results) / 1024, "MB"),
            "cert_bits": metric(results[0]["cert_bits"], "bits"),
        }
        return correct, attempted, failed, e2e, None
    _, res = churn_process(seed, seconds, True)
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and all(q > 0 for q in res["rounds_to_quiesce"])
    passes = res["passes_s"]
    cases = res["cases"]
    n, rounds = res["n"], res["rounds"]
    total = lambda k: sum(c[k] for c in cases)  # noqa: E731
    round_ms = sorted(res["round_ms"])
    layers = {
        "simulate_s": median(passes),
        "rounds_to_quiesce": max(res["rounds_to_quiesce"]),
        "runtime.checked_frac": total("checked") / (len(cases) * n * rounds),
        "runtime.reverified_frac": total("reverified") / (len(cases) * n * rounds),
        "runtime.round_ms.p50": trace_agg.pct(round_ms, 0.5),
        "recert.adopted": total("adopted"),
        "recert.adopted_frac": total("adopted") / max(1, total("fault_events")),
        "network.wire_bits": total("wire_bits"),
        "fault.events": total("fault_events"),
        "obs.trace_dropped": res["trace_dropped"],
        "obs.trace_overhead_frac": median(res["traced_passes_s"]) / median(passes) - 1,
        "op.samples": len(passes),
        "op.tail_ms": 1000 * max(passes),
    }
    correct = correct and res["trace_dropped"] == 0
    return correct, attempted, failed, None, layers


# ---------------------------------------------------------------------


def per_layer_names():
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        host = host_info()
        warm_host()
        print(json.dumps({"host": host}), flush=True)
        fn = {"certify-stream": certify_stream, "serve-hot": serve_hot, "churn-recover": churn}[a.workload]
        correct, attempted, failed, e2e, layers = fn(a.seed, a.seconds, bool(a.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    if a.trace:
        units = per_layer_names()
        layers["failed_frac"] = failed / attempted
        # Layers a workload does not pass through report 0.
        metrics = {name: metric(float(layers.get(name, 0.0)), unit) for name, unit in units.items()}
        print(json.dumps({"layers": layers}), flush=True)
    else:
        metrics = e2e
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
