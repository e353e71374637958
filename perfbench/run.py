"""circlelab benchmark: closed loops of CLI experiments, timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

One client runs the workload's ops (see workloads.py) one at a time, each
in a fresh interpreter started through launch.py, and starts the next op
only when the previous one has exited.  The op list is repeated, skipping
any op whose last time would overrun the measuring window, until no op
fits in ``--seconds``; every op runs at least once.  Every run of an op is
checked (checks.py), and against reference.json for the default seed.

With ``--trace 0`` each op run is preceded by a run of calibrate.py, a
fixed small job like an op's but without circlelab.  Each time of an op
run is divided by the time of the calibration just before it and
multiplied by CALIBRATION_REF_S, so the end-to-end metrics are in seconds
of a host on which the calibration takes CALIBRATION_REF_S:

  wall_s       sum over the ops of the median spawn-to-exit time
  cpu_s        sum over the ops of the median user+sys CPU of the process
  setup_s      median over all op runs of spawn until circlelab is
               imported and the arguments are parsed
  peak_rss_mb  the largest peak RSS of any op process
  ok_frac      op runs that passed every check / op runs attempted

On a shared 2-vCPU machine other tenants slow the whole host by up to
1.5x, for seconds or for many minutes, and the calibration slows with
it.  Two 10-seed sets of raw times, taken 25 minutes apart, differed by
up to 31%.  In a 12-minute loop of six ops, each run just after a
calibration, the medians of six consecutive runs of an op spread by
14-24% (quartile distance over median) in raw wall time and by 4-16% as
ratios to the calibration; the loop's second half read 4-22% slower than
its first in raw time and -4% to +19% in ratios.  Over ten seeds of each
workload, the raw times of the same runs spread by 7-18% and the
calibrated ones by 4-7%.  The raw medians, the calibration times and the
host factor (median calibration over CALIBRATION_REF_S) are in the
detail line.

With ``--trace 1`` every op runs untraced and then traced (spans.py).  The
traced document must equal the untraced one byte for byte, the spans
must nest (each inside its parent, siblings apart), and the layers' self
times must add up to the traced op's wall time within SUM_TOL_FRAC of it
plus SUM_TOL_S.  The self times add up to the root span, which ends when
the CLI's ``main`` returns, so the last check bounds the time from there
to the process's exit: writing the spans and interpreter teardown.  The
per-layer metrics are reported:
self seconds per layer and the work counters, summed over the ops from
the fastest traced run of each, their ratios, and ``trace.overhead_frac``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
per-op detail and the provenance of the run.  Thread variables such as
OPENBLAS_NUM_THREADS are recorded, never set.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
LAUNCHER = os.path.join(HERE, "launch.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
# the scale of the reported times: a host on which calibrate.py takes this
# long; on a 2-vCPU Intel Xeon at 2.1 GHz it took 0.52-0.83 s
CALIBRATION_REF_S = 0.55
REFERENCE = os.path.join(HERE, "reference.json")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OP_TIMEOUT_S = 150.0
SUM_TOL_FRAC = 0.05
SUM_TOL_S = 0.05
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "CIRCLELAB_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
LAYER_SELF = ("cli", "verify", "spectral", "varnorm", "expsum", "arith",
              "torus", "fft")
COUNTS = ("arith.classify_calls", "verify.classify_calls",
          "verify.classify_major", "expsum.phase_terms", "expsum.tail_terms",
          "varnorm.calls", "varnorm.dp_cells", "fft.points",
          "spectral.multiplier_calls", "spectral.multiplier_keys",
          "spectral.grid_points", "torus.objective_evals")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "cli.import_s": "s",
    "arith.classify_calls": "count",
    "verify.rejection_frac": "ratio",
    "expsum.phase_terms": "count",
    "expsum.ns_per_term": "ns",
    "expsum.tail_terms": "count",
    "varnorm.calls": "count",
    "varnorm.dp_cells": "count",
    "varnorm.ns_per_cell": "ns",
    "fft.points": "count",
    "fft.ns_per_point": "ns",
    "spectral.multiplier_calls": "count",
    "spectral.multiplier_hit_frac": "ratio",
    "spectral.grid_points": "count",
    "torus.objective_evals": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class OpRun:
    """One finished op process: its timings, output and stamps."""

    argv: list
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: str
    stamps: dict
    spawn_t: float
    layers: Optional[dict] = None  # per-layer metrics, for a traced run
    calibration: Optional[float] = None  # calibrate.py's time just before

    @property
    def setup_s(self):
        end = self.stamps.get("setup_end")
        return None if end is None else end - self.spawn_t


def spawn(argv, op_id: int, tmp: str, spans_path: str = "-") -> OpRun:
    """Run one op to completion in a fresh interpreter and measure it."""
    stamps_path = os.path.join(tmp, f"stamps-{op_id}.json")
    out_path = os.path.join(tmp, f"stdout-{op_id}")
    err_path = os.path.join(tmp, f"stderr-{op_id}")
    cmd = [sys.executable, LAUNCHER, "", stamps_path, spans_path, str(op_id),
           *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_t = time.perf_counter()
        cmd[2] = repr(spawn_t)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exit_t = time.perf_counter()
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    try:
        with open(stamps_path) as fh:
            stamps = json.load(fh)
    except (OSError, ValueError):
        stamps = {}
    return OpRun(argv, proc.returncode, exit_t - spawn_t,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 stdout, stderr, stamps, spawn_t)


def calibrate() -> float:
    """Wall seconds of one run of calibrate.py."""
    start = time.perf_counter()
    subprocess.run([sys.executable, CALIBRATE], cwd=ROOT, check=True,
                   timeout=OP_TIMEOUT_S)
    return time.perf_counter() - start


def judge(run: OpRun, reference) -> list:
    """Every problem with one op run; an empty list means it passed."""
    problems, doc = checks.invariants(run.argv, run.code, run.stdout)
    if run.code != 0 and run.stderr.strip():
        problems.append(run.stderr.strip().splitlines()[-1])
    if not problems and reference is not None:
        problems = checks.against_reference(doc["results"], reference)
    if run.code == 0 and run.setup_s is None:
        problems.append("launcher recorded no set-up stamp")
    return problems


def traced_problems(plain: OpRun, traced: OpRun) -> list:
    """Same bytes as the untraced run; self times add up to the wall."""
    problems = []
    if traced.stdout != plain.stdout:
        problems.append("traced document differs from the untraced one")
    total = sum(traced.layers[f"{layer}.self_s"] for layer in LAYER_SELF)
    if abs(total - traced.wall) > SUM_TOL_FRAC * traced.wall + SUM_TOL_S:
        problems.append(f"layer self times sum to {total:.3f} s, "
                        f"traced wall is {traced.wall:.3f} s")
    return problems


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _least(runs, key):
    return min((getattr(r, key) for r in runs), default=0.0)


def _times(runs_per_op, scale):
    """wall_s, cpu_s and setup_s, each op run's times multiplied by
    `scale(run)`."""
    def median(runs, key):
        return statistics.median(getattr(r, key) * scale(r) for r in runs)

    setups = [r.setup_s * scale(r) for runs in runs_per_op for r in runs
              if r.setup_s is not None]
    return {
        "wall_s": sum(median(runs, "wall") for runs in runs_per_op),
        "cpu_s": sum(median(runs, "cpu") for runs in runs_per_op),
        "setup_s": statistics.median(setups) if setups else 0.0,
    }


def end_to_end(runs_per_op, attempted: int, failed: int):
    """The end-to-end metrics, and the raw times for the detail line."""
    every = [r for runs in runs_per_op for r in runs]
    metrics = _times(runs_per_op,
                     lambda r: CALIBRATION_REF_S / r.calibration)
    metrics["peak_rss_mb"] = max(r.rss_mb for r in every)
    metrics["ok_frac"] = (attempted - failed) / attempted
    calibration = [r.calibration for r in every]
    return metrics, {
        "raw": _times(runs_per_op, lambda r: 1.0),
        "host_factor": statistics.median(calibration) / CALIBRATION_REF_S,
        "calibration_s": [round(t, 4) for t in calibration]}


def per_layer(plain_per_op, traced_per_op) -> dict:
    """Layer metrics summed over the ops, each from its fastest traced run."""
    fastest = [min((r for r in runs if r.layers), key=lambda r: r.wall).layers
               for runs in traced_per_op if any(r.layers for r in runs)]
    tot = {k: sum(lm.get(k, 0) for lm in fastest)
           for k in [f"{layer}.self_s" for layer in LAYER_SELF] + list(COUNTS)}
    plain = sum(_least(runs, "wall") for runs in plain_per_op)
    traced = sum(_least(runs, "wall") for runs in traced_per_op)
    imports = [r.layers["cli.import_s"] for runs in traced_per_op
               for r in runs if r.layers]
    out = {k: tot[k] for k in PER_LAYER if k in tot}
    out.update({
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "verify.rejection_frac": _ratio(tot["verify.classify_major"],
                                        tot["verify.classify_calls"]),
        "expsum.ns_per_term": _ratio(tot["expsum.self_s"],
                                     tot["expsum.phase_terms"], 1e9),
        "varnorm.ns_per_cell": _ratio(tot["varnorm.self_s"],
                                      tot["varnorm.dp_cells"], 1e9),
        "fft.ns_per_point": _ratio(tot["fft.self_s"], tot["fft.points"], 1e9),
        "spectral.multiplier_hit_frac": 1.0 - _ratio(
            tot["spectral.multiplier_keys"], tot["spectral.multiplier_calls"])
        if tot["spectral.multiplier_calls"] else 0.0,
        "trace.overhead_frac": _ratio(traced - plain, plain),
    })
    return {k: out[k] for k in PER_LAYER}


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cache_sizes():
    sizes = {}
    cpu0 = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(glob.glob(os.path.join(cpu0, "index*"))):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        if level and kind != "Instruction":
            sizes[f"L{level}"] = _read(os.path.join(index, "size")).strip()
    return sizes


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    models = [line.split(":", 1)[1].strip()
              for line in _read("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
        "cache": _cache_sizes(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def remove_tmp(tmp: str):
    """Delete a run's scratch directory, and TMP once it is empty."""
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(TMP)
    except OSError:
        pass


def load_reference(workload: str):
    """argv (as a tuple) -> reference results, for the default seed."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return {tuple(op["argv"]): op["results"]
            for op in ref["workloads"].get(workload, [])}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp: str) -> dict:
    ops = workloads.ops(workload, seed)
    refs = load_reference(workload) if seed == DEFAULT_SEED else {}
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]
    failures = [[] for _ in ops]
    counts = {"attempted": 0, "failed": 0}

    def record(i, problems):
        counts["attempted"] += 1
        if problems:
            counts["failed"] += 1
            failures[i].append(problems)

    def run_op(i):
        op_id = counts["attempted"]
        calibration = None if trace else calibrate()
        run = spawn(ops[i], op_id, tmp)
        run.calibration = calibration
        plain[i].append(run)
        record(i, judge(run, refs.get(tuple(ops[i]))))
        if not trace:
            return
        spans_path = os.path.join(tmp, f"spans-{op_id}.npz")
        t = spawn(ops[i], op_id + 1, tmp, spans_path)
        traced[i].append(t)
        problems = judge(t, None)
        if not problems and t.stamps.get("names"):
            t.layers = spans.layer_metrics(spans_path, t.stamps)
            t.layers["cli.import_s"] = t.stamps["import_end"] - t.spawn_t
            problems = (traced_problems(run, t)
                        + spans.nesting_problems(spans_path))
        elif not problems:
            problems = ["traced op wrote no spans"]
        record(i, problems)

    deadline = time.perf_counter() + seconds
    for i in range(len(ops)):
        run_op(i)
    while True:
        ran = False
        for i in range(len(ops)):
            cost = sum(runs[i][-1].wall for runs in (plain, traced)
                       if runs[i])
            cost += plain[i][-1].calibration or 0.0
            if time.perf_counter() + cost <= deadline:
                run_op(i)
                ran = True
        if not ran:
            break

    host = {}
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in per_layer(plain, traced).items()}
    else:
        values, host = end_to_end(plain, **counts)
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    detail = [{"argv": op, "runs": len(plain[i]),
               "walls_s": [round(r.wall, 4) for r in plain[i]],
               "cpus_s": [round(r.cpu, 4) for r in plain[i]],
               "peak_rss_mb": max(r.rss_mb for r in plain[i]),
               "failures": failures[i][:3]}
              for i, op in enumerate(ops)]
    return {"result": {"correct": counts["failed"] == 0, **counts,
                       "metrics": metrics},
            "ops": detail, "host": host}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "circlelab", "cli.py")):
        print(f"error: no circlelab sources under {ROOT}/src", file=sys.stderr)
        return 2
    tmp = os.path.join(TMP, f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), tmp)
    finally:
        remove_tmp(tmp)
    result = out["result"]
    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:30s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "ops": out["ops"],
                      "host": out["host"],
                      "provenance": provenance()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
