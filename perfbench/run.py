#!/usr/bin/env python3
"""End-to-end BlueDove benchmark over a real multi-process cluster.

    python3 perfbench/run.py --workload selective --seed 1 --seconds 18 --trace 0

Builds bluedove_noded and the benchmark's generator from the sources in this
checkout (CMake, Release, into $CARGO_TARGET_DIR or .bench_build), then
deploys one dispatcher with a client edge listener and two matchers whose
delivery sink is that dispatcher, as separate bluedove_noded processes on
127.0.0.1. Only topology flags are set; everything else stays at the shipped
defaults, and every flag is recorded in the provenance line.

perfbench_gen (gen.cpp) drives the cluster through the edge protocol and
checks every delivery against an exact oracle. Workloads (workload.h), both
drawn by the repository's generators of the paper's workload (hot-spot
predicate centres, uniform messages):

  selective  100k narrow 4-dim subscriptions, ~10 matches per publish,
             2000 publishes/s: index probes and matcher lanes do the work
  fanout     2k wide subscriptions, ~260 matches per publish, 200
             publishes/s: return wire, dispatcher hand-off and edge writes

--trace 0 runs INSTANCES fresh clusters, each for --seconds / INSTANCES of
measurement, and prints the end-to-end metrics (see e2e_metrics). --trace 1
runs one untraced and one traced instance (--trace-sample and --stats-json
on the nodes) and prints per-layer metrics: cluster counters scraped before
and after the open-loop phase, /proc readings, recorder hop stamps, the
generator's own health, benchmark-side timings of the index, serde and
partition layers (perfbench_layers), and the tracing overhead (traced minus
untraced values).

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ...,
 "metrics": {name: {"value": ..., "unit": ...}}}.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)

# Independent cluster instances per run. Latency, CPU and capacity shift
# between instances of identical inputs (thread placement on the box and
# the forwarding policy's lane choice persist for an instance's lifetime),
# so a run measures several and reports medians over all their windows.
INSTANCES = 6
# An instance whose generator published later than this behind schedule
# (p99) did not offer the load it claims; it is repeated, then refused.
LATENESS_P99_BOUND_MS = 10.0
RETRY_BUDGET = 4  # repeated instances per run, so a run ends within 180 s
TRACE_PER_SEC = 50  # sampled (--trace-sample) publishes per second
DISPATCHER_ID = 10
MATCHER_IDS = (1000, 1001)

E2E_UNITS = {
    "delivery_p50_ms": "ms",
    "capacity_pubs_per_s": "1/s",
    "server_cpu_ms_per_kpub": "ms",
    "server_rss_mb": "MB",
    "setup_s": "s",
    "delivery_success_rate": "ratio",
}

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "latency.delivery_p99_ms": ("ms", "lower"),
    "index.probe_us_per_msg": ("us", "lower"),
    "index.candidates_per_msg": ("count", "lower"),
    "index.clone_ms": ("ms", "lower"),
    "index.build_s": ("s", "lower"),
    "matcher.queue_wait_p50_ms": ("ms", "lower"),
    "matcher.queue_wait_p99_ms": ("ms", "lower"),
    "matcher.busy_frac": ("ratio", "lower"),
    "matcher.deliveries_per_pub": ("count", "lower"),
    "matcher.cpu_user_s": ("s", "lower"),
    "matcher.cpu_sys_s": ("s", "lower"),
    "exec.run_s": ("s", "lower"),
    "exec.queue_wait_s": ("s", "lower"),
    "exec.steals_per_job": ("ratio", "lower"),
    "exec.rejects": ("count", "lower"),
    "dispatcher.forward_skew": ("ratio", "lower"),
    "dispatcher.dropped_no_candidate": ("count", "lower"),
    "dispatcher.cpu_user_s": ("s", "lower"),
    "dispatcher.cpu_sys_s": ("s", "lower"),
    "dispatcher.ctx_switches_per_kpub": ("count", "lower"),
    "wire.envelopes_per_frame": ("ratio", "higher"),
    "wire.bytes_per_pub": ("B", "lower"),
    "wire.queue_full_drops": ("count", "lower"),
    "wire.send_error_drops": ("count", "lower"),
    "wire.payload_copies": ("count", "lower"),
    "serde.encode_ns_per_delivery": ("ns", "lower"),
    "serde.parse_ns_per_delivery": ("ns", "lower"),
    "partition.assign_us_per_sub": ("us", "lower"),
    "edge.frames_per_delivery": ("ratio", "lower"),
    "edge.bytes_out_per_delivery": ("B", "lower"),
    "edge.flush_p99_ms": ("ms", "lower"),
    "edge.queue_high_water": ("B", "lower"),
    "edge.evictions": ("count", "lower"),
    "edge.replay_overflow": ("count", "lower"),
    "trace.samples": ("count", "higher"),
    "trace.dispatch_p50_ms": ("ms", "lower"),
    "trace.dispatch_p99_ms": ("ms", "lower"),
    "trace.queue_p50_ms": ("ms", "lower"),
    "trace.queue_p99_ms": ("ms", "lower"),
    "trace.match_p50_ms": ("ms", "lower"),
    "trace.match_p99_ms": ("ms", "lower"),
    "trace.deliver_p50_ms": ("ms", "lower"),
    "trace.deliver_p99_ms": ("ms", "lower"),
    "gen.lateness_p99_ms": ("ms", "lower"),
    "gen.lateness_max_ms": ("ms", "lower"),
    "gen.cpu_s": ("s", "lower"),
    "client.publish_call_us_p50": ("us", "lower"),
    "overhead.delivery_p50_ms": ("ms", "lower"),
    "overhead.delivery_p99_ms": ("ms", "lower"),
    "overhead.capacity_pubs_per_s": ("1/s", "higher"),
    "overhead.server_cpu_ms_per_kpub": ("ms", "lower"),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", "")
    d = os.path.abspath(os.path.join(REPO, d)) if d else ""
    if not d or not d.startswith(REPO + os.sep):
        d = os.path.join(REPO, ".bench_build")
    return d


def build(bdir, targets):
    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no BlueDove sources next to perfbench/; nothing to build")
    log = os.path.join(bdir, "build.log")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "a") as out:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", BENCH, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("cmake configure failed, see " + log)
        rc = subprocess.call(
            ["cmake", "--build", bdir, "-j", jobs, "--target"] + targets,
            stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        fail("build failed, see " + log)


def free_ports(n):
    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def noded_default(flag):
    """A bluedove_noded flag's shipped default, read from its source. The
    matchers do not report their index kind, so this is the only place to
    learn it; a source the pattern no longer fits fails the run rather than
    timing some other kind."""
    with open(os.path.join(REPO, "tools", "bluedove_noded.cpp")) as f:
        found = set(re.findall(
            r'args\.get\("%s",\s*"([^"]*)"\)' % re.escape(flag), f.read()))
    if len(found) != 1:
        fail("cannot read the default --%s from tools/bluedove_noded.cpp "
             "(found %s)" % (flag, sorted(found) or "none"))
    return found.pop()


class Cluster:
    """One dispatcher (with edge listener) and two matchers, one process each."""

    def __init__(self, noded, run_dir, trace_sample=0.0):
        self.run_dir = run_dir
        pd, pm0, pm1, pe = free_ports(4)
        self.edge = "127.0.0.1:%d" % pe
        self.dispatcher = "127.0.0.1:%d" % pd
        mports = (pm0, pm1)
        self.matchers = ",".join("%d@127.0.0.1:%d" % (i, p)
                                 for i, p in zip(MATCHER_IDS, mports))
        peers = "%d@127.0.0.1:%d,%s" % (DISPATCHER_ID, pd, self.matchers)
        cluster = ",".join(str(i) for i in MATCHER_IDS)
        self.names = ["dispatcher", "matcher0", "matcher1"]
        self.argv = [
            [noded, "--role=dispatcher", "--id=%d" % DISPATCHER_ID,
             "--port=%d" % pd, "--cluster=" + cluster, "--peers=" + peers,
             "--edge-port=%d" % pe],
        ]
        for i, p in zip(MATCHER_IDS, mports):
            self.argv.append(
                [noded, "--role=matcher", "--id=%d" % i, "--port=%d" % p,
                 "--cluster=" + cluster, "--dispatchers=%d" % DISPATCHER_ID,
                 "--sink=%d" % DISPATCHER_ID, "--peers=" + peers])
        self.stats_files = []
        if trace_sample > 0:
            self.argv[0].append("--trace-sample=%g" % trace_sample)
            for name, argv in zip(self.names, self.argv):
                path = os.path.join(run_dir, "stats_%s.json" % name)
                self.stats_files.append(path)
                argv += ["--stats-json=" + path, "--stats-interval=0.1"]
        self.procs = []

    def start(self):
        os.makedirs(self.run_dir, exist_ok=True)
        logs = []
        for name, argv in zip(self.names, self.argv):
            out = os.path.join(self.run_dir, name + ".out")
            with open(out, "w") as o, \
                    open(os.path.join(self.run_dir, name + ".err"), "w") as e:
                self.procs.append(subprocess.Popen(
                    argv, stdout=o, stderr=e, cwd=self.run_dir))
            logs.append(out)
        want = ["listening on", "listening on", "listening on"]
        deadline = time.time() + 20
        while time.time() < deadline:
            texts = [open(p).read() for p in logs]
            if (all(w in t for w, t in zip(want, texts))
                    and "edge listening" in texts[0]):
                return
            if any(p.poll() is not None for p in self.procs):
                break
            time.sleep(0.02)
        self.stop()
        fail("cluster did not start, see " + self.run_dir)

    def pids(self):
        return ",".join(str(p.pid) for p in self.procs)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        deadline = time.time() + 10
        for p in self.procs:
            try:
                p.wait(timeout=max(0.1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


def run_gen(gen, cluster, args, out, extra=()):
    argv = [gen, "--workload=" + args.workload, "--seed=%d" % args.seed,
            "--seconds=%g" % (args.seconds / INSTANCES),
            "--edge=" + cluster.edge, "--dispatcher=" + cluster.dispatcher,
            "--matchers=" + cluster.matchers, "--pids=" + cluster.pids(),
            "--out=" + out] + list(extra)
    rc = subprocess.call(argv, stdout=subprocess.DEVNULL, timeout=150)
    if rc != 0 and not os.path.exists(out):
        fail("generator failed (exit %d)" % rc)
    with open(out) as f:
        return json.load(f)


def one_cluster_run(bdir, args, tag, trace_sample=0.0):
    noded = os.path.join(bdir, "bluedove", "tools", "bluedove_noded")
    gen = os.path.join(bdir, "perfbench_gen")
    run_dir = os.path.join(bdir, "runs", "%s-s%d-%s" % (args.workload,
                                                       args.seed, tag))
    shutil.rmtree(run_dir, ignore_errors=True)
    cluster = Cluster(noded, run_dir, trace_sample)
    extra = []
    if trace_sample > 0:
        extra = ["--trace=1", "--stats-files=" + ",".join(cluster.stats_files),
                 "--trace-dir=" + run_dir]
    cluster.start()
    try:
        res = run_gen(gen, cluster, args, os.path.join(run_dir, "result.json"),
                      extra)
    finally:
        cluster.stop()
    res["noded_argv"] = [" ".join(a[1:]) for a in cluster.argv]
    res["run_dir"] = run_dir
    return res


retries_left = RETRY_BUDGET


def full_run(bdir, args, tag, trace_sample=0.0):
    """A full (setup + phases) run, repeated if the generator fell behind."""
    global retries_left
    for attempt in range(RETRY_BUDGET + 1):
        res = one_cluster_run(bdir, args, "%s%d" % (tag, attempt),
                              trace_sample)
        if res["gen.lateness_p99_ms"] <= LATENESS_P99_BOUND_MS:
            return res
        print("perfbench: invalid instance, generator lateness p99 %.3f ms "
              "> %.1f" % (res["gen.lateness_p99_ms"], LATENESS_P99_BOUND_MS),
              file=sys.stderr)
        if retries_left == 0:
            break
        retries_left -= 1
    fail("generator could not keep its schedule; no valid run")


def e2e_metrics(runs):
    """End-to-end metrics of full runs, over all measurement windows of
    `runs` (each window has its own delivery p50/p99, capacity and CPU).

    Every window of every valid instance counts, none dropped or picked:
    latency and capacity are medians over all windows, and CPU time per
    publish is the whole open-loop phase's server CPU over its publishes
    (windows carry equal publish counts, up to one, so that is their
    mean). Set-up time and RSS (after set-up) are the median over the
    runs, one fresh-cluster set-up each."""
    def values(k):
        return [v for r in runs for v in r["windows." + k]]
    win = {
        "delivery_p50_ms": statistics.median(values("delivery_p50_ms")),
        "capacity_pubs_per_s": statistics.median(
            values("capacity_pubs_per_s")),
        "server_cpu_ms_per_kpub": statistics.mean(
            values("server_cpu_ms_per_kpub")),
    }
    failed = sum(r["oracle"]["failed"] for r in runs)
    attempted = sum(r["oracle"]["attempted"] for r in runs)
    win.update({
        "server_rss_mb": statistics.median(r["server_rss_mb"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "delivery_success_rate": 1.0 - failed / max(attempted, 1),
    })
    return win


def pct(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(int(q * len(v)), len(v) - 1)]


def trace_stages(run_dir):
    """Per-stage latency of sampled publishes from the nodes' recorder hop
    stamps plus the generator's send/arrival times (one steady clock).

    dispatch = send -> matcher enqueue, queue = enqueue -> probe start,
    match = the probe span, deliver = probe end -> each arrival. The
    matcher stamps match.done only after it has sent every delivery, so
    with hundreds of matches per publish the first ones arrive before it;
    deliver is therefore taken from the probe's end, per delivery."""
    stamps = {}
    for name in ("dispatcher", "matcher0", "matcher1"):
        path = os.path.join(run_dir, "recorder_%s.json" % name)
        if not os.path.exists(path):
            continue
        with open(path) as f:
            events = json.load(f).get("traceEvents", [])
        os.remove(path)  # large; the stage table below is what is kept
        for e in events:
            if e.get("cat") != "trace":
                continue
            key = (e["name"], e["ph"])
            slot = {("match.enqueue", "n"): "enqueue",
                    ("match.probe", "b"): "probe",
                    ("match.probe", "e"): "probe_end"}.get(key)
            if slot:
                stamps.setdefault(int(e["id"], 16), {})[slot] = float(e["ts"])
    sent, arrivals = {}, {}
    with open(os.path.join(run_dir, "traced_deliveries.tsv")) as f:
        for line in f:
            tid, _pub, send_ns, arr_ns, in_open = line.split("\t")
            if in_open.strip() != "1":
                continue
            tid = int(tid)
            sent[tid] = int(send_ns) / 1e3
            arrivals.setdefault(tid, []).append(int(arr_ns) / 1e3)
    stages = {"dispatch": [], "queue": [], "match": [], "deliver": []}
    for tid, t in sent.items():
        s = stamps.get(tid, {})
        if not all(k in s for k in ("enqueue", "probe", "probe_end")):
            continue
        stages["dispatch"].append((s["enqueue"] - t) / 1e3)
        stages["queue"].append((s["probe"] - s["enqueue"]) / 1e3)
        stages["match"].append((s["probe_end"] - s["probe"]) / 1e3)
        stages["deliver"] += [(a - s["probe_end"]) / 1e3
                              for a in arrivals[tid]]
    out = {"trace.samples": len(stages["dispatch"])}
    for name, vals in stages.items():
        out["trace.%s_p50_ms" % name] = pct(vals, 0.50)
        out["trace.%s_p99_ms" % name] = pct(vals, 0.99)
    return out


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(REPO, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, REPO).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def build_type(bdir):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
    return m.group(1) if m else "unknown"


def git_sha():
    try:
        return subprocess.check_output(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["selective", "fanout"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so every started cluster is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    bdir = build_dir()
    targets = ["bluedove_noded", "perfbench_gen"]
    if args.trace:
        targets.append("perfbench_layers")
    build(bdir, targets)

    attempted = failed = 0
    correct = True

    def account(res):
        nonlocal attempted, failed, correct
        o = res["oracle"]
        attempted += int(o["attempted"])
        failed += int(o["failed"])
        correct = correct and o["failed"] == 0 and o["seq_gaps"] == 0

    if not args.trace:
        runs = [full_run(bdir, args, "full%d-" % i) for i in range(INSTANCES)]
        for res in runs:
            account(res)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in
                   e2e_metrics(runs).items()}
        report = runs[-1]
        report["windows"] = {
            k: [v for r in runs for v in r["windows." + k]]
            for k in ("delivery_p50_ms", "delivery_p99_ms", "lateness_p99_ms",
                      "capacity_pubs_per_s", "server_cpu_ms_per_kpub")}
    else:
        base = full_run(bdir, args, "base")
        account(base)
        rate = base["workload"]["rate_per_s"]
        res = full_run(bdir, args, "traced",
                       trace_sample=min(1.0, TRACE_PER_SEC / rate))
        account(res)
        layer = dict(res["layer"])
        for k in ("gen.lateness_p99_ms", "gen.lateness_max_ms", "gen.cpu_s",
                  "client.publish_call_us_p50"):
            layer[k] = res[k]
        layer.update(trace_stages(res["run_dir"]))
        probe = subprocess.run(
            [os.path.join(bdir, "perfbench_layers"),
             "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--index=" + noded_default("index"),
             "--spans=" + os.path.join(res["run_dir"], "spans_layers.json")],
            stdout=subprocess.PIPE, timeout=120)
        layers = json.loads(probe.stdout.decode().strip().splitlines()[-1])
        if probe.returncode != 0:
            correct = False
        layer.update({k: v for k, v in layers.items()
                      if isinstance(v, (int, float))})
        traced_e2e = e2e_metrics([res])
        base_e2e = e2e_metrics([base])
        for k in ("delivery_p50_ms", "capacity_pubs_per_s",
                  "server_cpu_ms_per_kpub"):
            layer["overhead." + k] = traced_e2e[k] - base_e2e[k]
        layer["latency.delivery_p99_ms"] = statistics.median(
            base["windows.delivery_p99_ms"])
        layer["overhead.delivery_p99_ms"] = statistics.median(
            res["windows.delivery_p99_ms"]) - layer["latency.delivery_p99_ms"]
        missing = [k for k in PER_LAYER if k not in layer]
        if missing:
            fail("per-layer metrics not produced: " + ", ".join(missing))
        metrics = {k: (layer[k], u) for k, (u, _) in PER_LAYER.items()}
        report = res

    provenance = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": build_type(bdir),
        "simd_kernel": report["simd_kernel"],
        "nproc": os.cpu_count(),
        "noded_flags": report["noded_argv"],
        "matcher_index_kind": noded_default("index"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": report["workload"],
        "oracle": report["oracle"],
        "latency_samples": report["latency_samples"],
        "instances": INSTANCES if not args.trace else 1,
        "windows": report.get("windows"),
        "open_pubs": report["open_pubs"],
        "closed_pubs": report["closed_pubs"],
        "gen.lateness_p99_ms": report["gen.lateness_p99_ms"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
