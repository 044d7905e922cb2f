#!/usr/bin/env python3
"""Smoke test of the repository benchmark at the 64-node shape.

    python3 perfbench/smoke_test.py

Runs every workload that perfbench/run.py knows on threeLevel(4, 2, 8)
with a short simulated window and checks that:

  * an untraced run at the reference seed is correct and emits every
    end-to-end metric of BENCHMARK.json, with its unit;
  * a traced run is correct and emits every per-layer metric of
    BENCHMARK.json, with its unit;
  * a run at another seed is correct (twins checked against their
    1-thread, 1-process run);
  * a run against a reference whose digest was perturbed reports the
    failure (correct false, failed > 0).

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench/run.py: workload and metric tables)

SHAPE = "4,2,8"
WINDOW_US = {"memcached": 2000, "boot": 4000}


def bench(workload, trace=0, seed=run.REFERENCE_SEED, reference=None):
    family = run.WORKLOADS[workload][0]
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
           str(trace), "--shape", SHAPE, "--target-us",
           str(WINDOW_US[family])]
    if reference:
        cmd += ["--reference", reference]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    perturbed = os.path.join(run.build_dir(), "smoke_reference.json")
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    for entry in ref["digests"].values():
        entry["digest"] = "%016x" % (int(entry["digest"], 16) ^ 1)
    os.makedirs(os.path.dirname(perturbed), exist_ok=True)
    with open(perturbed, "w") as f:
        json.dump(ref, f)

    failures = []

    def check(what, ok):
        print("%-60s %s" % (what, "ok" if ok else "FAIL"), flush=True)
        if not ok:
            failures.append(what)

    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            rc, res = bench(workload, trace=trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check("%s trace=%d correct" % (workload, trace),
                  rc == 0 and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1)
            check("%s trace=%d emits every metric with its unit"
                  % (workload, trace), got == want[trace])
        rc, res = bench(workload, seed=7)
        check("%s seed=7 correct" % workload, rc == 0 and res["correct"])
        rc, res = bench(workload, reference=perturbed)
        check("%s perturbed reference is a failure" % workload,
              not res["correct"] and res["failed"] > 0)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
