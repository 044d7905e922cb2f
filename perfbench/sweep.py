#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads A,B] [--seeds 10]
                               [--first-seed 1] [--seconds S]
                               [--write-baseline perfbench/baseline.json]

For every workload it runs perfbench/run.py once per seed (untraced),
then prints, per end-to-end metric, the median of the per-run values
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric
whose spread exceeds its bound in BENCHMARK.json is flagged. With
--write-baseline the medians, quartiles and per-run values are written
as the committed baseline later changes compare against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--write-baseline", default="")
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"run_seconds": opts.seconds, "seeds": opts.seeds,
                "host": "%s, %d CPUs" % (platform.processor()
                                         or platform.machine(),
                                         os.cpu_count() or 0),
                "workloads": {}}
    worst = 0.0
    for workload in opts.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(opts.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print("%s seed %d: FAILED %s" % (workload, seed, result),
                      file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
                if spread > bounds[name] / 3:
                    flag = "  <-- above a third of bound %.2f" % bounds[name]
            print("  %-14s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.3f%s"
                  % (name, med, q1, q3, spread, flag))
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
        baseline["workloads"][workload] = summary
    print("worst spread / bound (setup_s excluded): %.3f" % worst)
    if opts.write_baseline:
        with open(opts.write_baseline, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
