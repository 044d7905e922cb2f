#!/usr/bin/env python3
"""Repository benchmark: simulation rate of the 1024-node datacenter.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Builds perfbench_rep (and the simulator libraries) from this checkout,
then repeats the workload's fixed simulated window in fresh processes
for about --seconds seconds and reports medians. Every repetition's
simulated results are reduced to a digest and checked:

  * at the reference seed, against perfbench/reference.json;
  * at any other seed, the 4-thread and 2-shard twins against a
    1-thread, 1-process run of the same inputs made first, and every
    workload's repetitions against each other, plus sanity checks.

A repetition whose digest differs, whose rank exits non-zero or which
loses its peer shard counts as failed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and prints the per-layer metrics, including the
tracing overhead. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Traced runs also leave
their round spans (Chrome trace_event JSON) and per-layer table under
<build dir>/perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

REFERENCE_SEED = 1
FULL_SHAPE = "4,8,32"

# name -> (results family, 1-thread 1-process twin it must equal)
WORKLOADS = {
    "dc-memcached": ("memcached", None),
    "dc-memcached-4t": ("memcached", "dc-memcached"),
    "boot-idle": ("boot", None),
    "boot-idle-2shard": ("boot", "boot-idle"),
}

END_TO_END = [
    ("sim_rate_mhz", "MHz"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("net.fabric.rounds", "count"),
    ("net.fabric.batches", "count"),
    ("net.fabric.batch_allocs", "count"),
    ("net.fabric.round_ns", "ns"),
    ("net.fabric.bookkeeping_ns", "ns"),
    ("net.fabric.between_rounds_ns", "ns"),
    ("net.fabric.advance_span_ns", "ns"),
    ("net.fabric.advance_busy_ns", "ns"),
    ("net.fabric.advance_efficiency", "ratio"),
    ("switchmodel.advance_ns", "ns"),
    ("switchmodel.packets_out", "count"),
    ("switchmodel.packets_dropped", "count"),
    ("switchmodel.bytes_out", "bytes"),
    ("node.advance_ns", "ns"),
    ("node.advance_max_ns", "ns"),
    ("node.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("nic.frames_sent", "count"),
    ("nic.frames_received", "count"),
    ("nic.frames_dropped_rx", "count"),
    ("apps.mutilate.issued", "count"),
    ("apps.mutilate.completed", "count"),
    ("apps.mutilate.completed_ratio", "ratio"),
    ("blockdev.sectors_moved", "count"),
    ("net.remote.stall_ns", "ns"),
    ("net.remote.bytes_tx", "bytes"),
    ("net.remote.batches_tx", "count"),
    ("net.remote.rounds_barriered", "count"),
    ("manager.build_s", "s"),
    ("apps.launch_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

MIN_REPS = 3          # repetitions an untraced run attempts, at least
RUN_BUDGET_S = 165.0  # a run (after the build) must end well inside 180 s


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build perfbench_rep; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_rep",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     cwd=ROOT)
            except OSError as e:
                die("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                die("build failed (%s); see %s" % (" ".join(cmd), log_path))
    return os.path.join(bdir, "perfbench_rep")


def run_rep(binary, workload, seed, trace, opts, timeout, spans=None):
    """One repetition in a fresh process group. Returns the parsed JSON
    line, or None if it failed to run, exited non-zero or timed out."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--shape", opts.shape]
    if opts.target_us:
        cmd += ["--target-us", str(opts.target_us)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: %s repetition timed out" % workload,
              file=sys.stderr)
        return None
    finally:
        # Rank 1 of a sharded run dies with rank 0; make sure of it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        print("perfbench: %s repetition exited with %d"
              % (workload, proc.returncode), file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return rep if rep.get("ok") else None


def nodes_of(shape):
    a, t, s = (int(x) for x in shape.split(","))
    return a * t * s


def sane(rep, family, shape):
    """Seed-independent plausibility of one repetition's results."""
    c = rep["counters"]
    if family == "boot":
        return c["res.powered_down"] == nodes_of(shape)
    return (c["apps.mutilate.completed"] > 0
            and c["apps.mutilate.completed"]
            >= 0.99 * c["apps.mutilate.issued"]
            and c["res.qps"] > 0
            and c["nic.frames_dropped_rx"] == 0)


def reference_key(opts, family, target_cycles):
    return "%s/%s/%d" % (opts.shape, family, int(target_cycles))


def load_reference(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read reference %s: %s" % (path, e))


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, untraced):
    """Median per-layer counters over the traced repetitions, plus the
    derived ratios and the tracing overhead against untraced runs."""
    keys = set()
    for rep in traced:
        keys.update(rep["counters"])
    m = {k: median([rep["counters"].get(k, 0.0) for rep in traced])
         for k in keys}

    def ratio(num, den):
        return num / den if den else 0.0

    m["net.fabric.advance_efficiency"] = ratio(
        m.get("net.fabric.advance_busy_ns", 0.0),
        m.get("net.fabric.advance_capacity_ns", 0.0))
    m["node.ns_per_event"] = ratio(m.get("node.advance_ns", 0.0),
                                   m.get("sim.events", 0.0))
    m["apps.mutilate.completed_ratio"] = ratio(
        m.get("apps.mutilate.completed", 0.0),
        m.get("apps.mutilate.issued", 0.0))
    m["trace.traced_run_s"] = median([r["run_s"] for r in traced])
    m["trace.untraced_run_s"] = median([r["run_s"] for r in untraced])
    m["trace.overhead_ratio"] = ratio(m["trace.traced_run_s"],
                                      m["trace.untraced_run_s"])
    return {name: {"value": m.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER}


def end_to_end_metrics(reps):
    rates = [r["counters"]["target_cycles"] / r["run_s"] / 1e6 for r in reps]
    values = {
        "sim_rate_mhz": median(rates),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", default=FULL_SHAPE,
                    help="threeLevel AGGS,TORS,SERVERS (smoke tests use "
                         "4,2,8)")
    ap.add_argument("--target-us", type=float, default=0.0,
                    help="override the workload's simulated window")
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference.json"))
    opts = ap.parse_args()
    if opts.seed < 0:
        die("--seed must be non-negative")

    family, twin_of = WORKLOADS[opts.workload]
    reference = load_reference(opts.reference)
    binary = build()

    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()

    def remaining():
        return RUN_BUDGET_S - (time.monotonic() - start)

    # The digest every repetition must reproduce: the committed one at
    # the reference seed, else the twin's, else the first repetition's.
    expected = None
    attempted = failed = 0
    ref_digests = None
    if opts.seed == reference.get("seed"):
        ref_digests = reference.get("digests", {})
    elif twin_of:
        base = run_rep(binary, twin_of, opts.seed, False, opts, remaining())
        if base is None or not sane(base, family, opts.shape):
            print("perfbench: %s run at seed %d failed; nothing to check "
                  "against" % (twin_of, opts.seed), file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 0
        expected = base["digest"]

    untraced, traced = [], []
    spans = os.path.join(out_dir, opts.workload + ".spans.json")
    while True:
        trace_this = opts.trace == 1 and attempted % 2 == 1
        rep = run_rep(binary, opts.workload, opts.seed, trace_this, opts,
                      remaining() - 5.0, spans if trace_this else None)
        attempted += 1
        ok = rep is not None and sane(rep, family, opts.shape)
        if ok and expected is None:
            if ref_digests is None:
                expected = rep["digest"]
            else:
                key = reference_key(opts, family,
                                    rep["counters"]["target_cycles"])
                if key not in ref_digests:
                    die("no reference digest for %s" % key)
                expected = ref_digests[key]["digest"]
        if ok and rep["digest"] != expected:
            print("perfbench: %s digest %s != expected %s\n  got: %s"
                  % (opts.workload, rep["digest"], expected, rep["summary"]),
                  file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
        else:
            (traced if trace_this else untraced).append(rep)

        # Stop at the repetition boundary nearest to --seconds.
        elapsed = time.monotonic() - start
        per_rep = elapsed / attempted
        enough = attempted >= (2 if opts.trace else MIN_REPS)
        if ((enough and elapsed + per_rep / 2 >= opts.seconds)
                or rep is None or remaining() < 2.0 * per_rep + 5.0):
            break

    if opts.trace:
        metrics = layer_metrics(traced, untraced) if traced else {}
    else:
        metrics = end_to_end_metrics(untraced) if untraced else {}
    correct = failed == 0 and bool(metrics)

    if metrics:
        print("%s seed=%d shape=%s reps=%d untraced + %d traced"
              % (opts.workload, opts.seed, opts.shape, len(untraced),
                 len(traced)))
        for name, m in metrics.items():
            print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    if opts.trace and metrics:
        with open(os.path.join(out_dir, opts.workload + ".layers.json"),
                  "w") as f:
            json.dump({"workload": opts.workload, "seed": opts.seed,
                       "shape": opts.shape, "traced_reps": len(traced),
                       "untraced_reps": len(untraced), "metrics": metrics},
                      f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
