"""Write BENCH_<pr>.json: the benchmark's end-to-end metrics for two commits.

Usage (from the repository root):

    python3 bench/write_bench.py --parent REV --change REV --out BENCH_21.json
        [--workload NAME ...] [--seeds 0,3] [--workdir DIR]

Each revision's committed files are extracted with ``git archive`` into a
directory of its own under --workdir, so the numbers belong to commits,
not to a working tree, and compiled there with ``compileall``, so that no
run of either side compiles a module (a shell that sets
PYTHONDONTWRITEBYTECODE would otherwise recompile every module in every
run).  For every workload (default: every one that
BENCHMARK.json lists) and every seed, the script runs ``perfbench/run.py
--trace 0`` of each checkout for BENCHMARK.json's ``run_seconds`` in
PAIRS alternating pairs, the parent first in even pairs and the change
first in odd ones, so that a drift of the host's speed falls on both
sides alike.  From each run it keeps the
end-to-end metrics (the last stdout line) and the provenance and host
factor (the line before it).

The output holds, per workload and seed, each side's median and
quartiles of every end-to-end metric with the values they come from, and
the number of pairs in which the change was better by BENCHMARK.json's
direction of that metric; each op's raw wall time, the median of its
runs in one benchmark run as the detail line gives them, summarized per
side over the pairs (uncalibrated, so the wall time of each CLI
subcommand); each side's ``src_lines``, the line count of its
``src/circlelab/*.py`` (as ``wc -l`` counts them); and, once per file,
each side's ``tier1``: the wall time, exit status and summary line of one
run of the tier-1 tests (ROADMAP.md's command) in its checkout, with
GIT_DIR set to this repository's, the parent's first, before any
workload runs.

An existing --out file is extended with workloads and seeds it does not
hold yet, so they can be measured by separate invocations; one of other
commits or of another provenance (host, Python, numpy, thread settings)
is refused.  It changes no program output and needs no tracer.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# alternating pairs per workload and seed: a claimed gain must win at
# least nine of ten
PAIRS = 10
# the tier-1 tests, run in a checkout with its src on PYTHONPATH
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev: str, dest: str) -> str:
    """The commit id of `rev`, with its files extracted into `dest` and
    compiled."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    os.makedirs(dest)
    archive = os.path.join(dest, ".archive.tar")
    subprocess.run(["git", "archive", "-o", archive, commit], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)
    compileall.compile_dir(dest, quiet=1)
    return commit


def src_lines(tree: str) -> int:
    """The lines of `tree`'s src/circlelab/*.py, newlines counted as by
    ``wc -l``."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "circlelab", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in `tree`: its metrics, the
    provenance and host lines it printed, and each op's argv with the
    median of its raw wall times."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    *_, detail, result = out.strip().splitlines()
    detail, result = json.loads(detail), json.loads(result)
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "host": detail["host"],
            "provenance": detail["provenance"],
            "ops": [{"argv": op["argv"],
                     "wall_s": statistics.median(op["walls_s"])}
                    for op in detail["ops"]]}


def tier1(tree: str) -> dict:
    """One tier-1 run in `tree`: its wall seconds, exit status and
    pytest's last output line.

    The run's GIT_DIR is the repository this script runs from, where it
    runs from one: `tree`, a `git archive` extraction, has no .git, and
    the tests that extract a commit take it from there.
    """
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")
           + (os.pathsep + path if path else "")}
    git = subprocess.run(["git", "rev-parse", "--absolute-git-dir"],
                         cwd=ROOT, capture_output=True, text=True)
    if git.returncode == 0:
        env["GIT_DIR"] = git.stdout.strip()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method) of the runs' values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def compare(pairs: list, metrics: dict) -> dict:
    """Per metric: each side's summary and the pairs the change won."""
    out = {}
    for name, spec in metrics.items():
        sign = 1 if spec["better"] == "lower" else -1
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": summary(parent), "change": summary(change),
            "pairs_change_better": sum(sign * (c - p) < 0
                                       for p, c in zip(parent, change)),
            "pairs": len(pairs)}
    return out


def op_walls(pairs: list) -> list:
    """Per op, in run order: its argv and each side's summary of the op's
    median raw wall time over the pairs.  Ops are matched by position and
    argv, so an op only one side runs keeps only that side."""
    ops = {}
    for pair in pairs:
        for side in ("parent", "change"):
            for i, op in enumerate(pair[side]["ops"]):
                entry = ops.setdefault((i, tuple(op["argv"])),
                                       {"argv": op["argv"]})
                entry.setdefault(side, []).append(op["wall_s"])
    return [{k: v if k == "argv" else summary(v) for k, v in entry.items()}
            for entry in ops.values()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision")
    p.add_argument("--change", required=True, help="git revision")
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append", default=None,
                   help="repeatable; default every workload")
    p.add_argument("--seeds", default="0")
    p.add_argument("--workdir", default=None,
                   help="where the checkouts go; default a new temp dir")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    workdir = tempfile.mkdtemp(prefix="bench-", dir=args.workdir)
    try:
        doc = measure(args, argv, workdir, metrics, workloads, seeds,
                      bench["run_seconds"],
                      with_tier1=not os.path.exists(args.out))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if os.path.exists(args.out):
        doc = merged(args.out, doc)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def merged(path: str, doc: dict) -> dict:
    """The document at `path` with `doc`'s runs added, when both measure
    the same two commits with the same provenance and `doc` holds no
    workload and seed that `path` has; each invocation's command is kept."""
    with open(path) as fh:
        old = json.load(fh)
    for key, what in (("commits", "other commits"),
                      ("provenance", "with another provenance")):
        if old[key] != doc[key]:
            raise SystemExit(f"error: {path} measures {what}; "
                             "write to a new file")
    for workload, seeds in doc["workloads"].items():
        held = old["workloads"].setdefault(workload, {})
        for seed in seeds:
            if seed in held:
                raise SystemExit(f"error: {path} already holds {workload} "
                                 f"at seed {seed}")
        held.update(seeds)
    old["commands"] += doc["commands"]
    return old


def measure(args, argv, workdir, metrics, workloads, seeds,
            seconds, with_tier1: bool = False) -> dict:
    trees, commits = {}, {}
    for side in ("parent", "change"):
        trees[side] = os.path.join(workdir, side)
        commits[side] = checkout(getattr(args, side), trees[side])
    command = {"argv": ["python3", "bench/write_bench.py",
                        *(argv if argv is not None else sys.argv[1:])],
               "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime())}
    doc = {"commands": [command], "commits": commits, "workloads": {},
           "provenance": {},
           "src_lines": {side: src_lines(trees[side])
                         for side in ("parent", "change")}}
    if with_tier1:
        doc["tier1"] = {side: tier1(trees[side])
                        for side in ("parent", "change")}
    for workload in workloads:
        for seed in seeds:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                pair = {side: run_once(trees[side], workload, seed,
                                       seconds) for side in order}
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}: "
                      + ", ".join(f"{side} wall_s "
                                  f"{pair[side]['metrics']['wall_s']:.3f}"
                                  for side in ("parent", "change")),
                      file=sys.stderr, flush=True)
            for side in ("parent", "change"):
                for run in (pair[side] for pair in pairs):
                    prov = {k: v for k, v in run["provenance"].items()
                            if k != "git_commit"}
                    if doc["provenance"].setdefault(side, prov) != prov:
                        raise SystemExit(f"error: the {side}'s provenance "
                                         "changed between its runs")
            doc["workloads"].setdefault(workload, {})[str(seed)] = {
                "metrics": compare(pairs, metrics),
                "op_raw_wall_s": op_walls(pairs),
                "host_factor": {side: [p[side]["host"]["host_factor"]
                                       for p in pairs]
                                for side in ("parent", "change")},
                "failed_runs": {side: sum(p[side]["failed"] for p in pairs)
                                for side in ("parent", "change")},
                "seconds": seconds}
    command["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime())
    return doc


if __name__ == "__main__":
    sys.exit(main())
