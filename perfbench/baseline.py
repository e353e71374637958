"""Measure the baseline of the benchmark and write baseline.json.

Usage (from the repository root):

    python3 perfbench/baseline.py

For every workload it runs ``run.py --trace 0`` once for each of the seeds
1-10 and one ``run.py --trace 1`` at the default seed, exactly as a user
would, each for the ``run_seconds`` of BENCHMARK.json, and
records for each end-to-end metric the median, the quartiles and the
spread (quartile distance over the median), and the per-layer metrics of
the traced run with each layer's share of the summed self time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import run
import workloads

BASELINE = os.path.join(run.HERE, "baseline.json")
SEEDS = range(1, 11)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {"seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "seconds": seconds,
              "workloads": {}}
    for name in workloads.NAMES:
        values, failed = {}, 0
        for seed in SEEDS:
            result, _ = _run(name, seed, seconds, 0)
            failed += result["failed"]
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(name, seed, " ".join(f"{k}={m['value']:.4g} {m['unit']}"
                                       for k, m in result["metrics"].items()),
                  flush=True)
        traced, detail = _run(name, run.DEFAULT_SEED, seconds, 1)
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        total = sum(layers[f"{layer}.self_s"] for layer in run.LAYER_SELF)
        report["workloads"][name] = {
            "why": workloads.WHY[name],
            "failed": failed + traced["failed"],
            "end_to_end": {k: _summary(v) for k, v in values.items()},
            "per_layer": layers,
            "self_time_share": {layer: layers[f"{layer}.self_s"] / total
                                for layer in run.LAYER_SELF},
        }
        report["provenance"] = detail["provenance"]
    with open(BASELINE, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
