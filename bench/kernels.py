"""Time circlelab's kernels in-process, at pinned shapes.

Usage (from the repository root):

    python3 bench/kernels.py [--repeats 9] [--src DIR]

Every DP shape is timed as the experiments call it: `variation_values`
on the (rows, S) transposed view of a C-ordered (S, rows) complex array
of standard complex Gaussians (seed 0), so no copy is made, and large
calls split across the process's CPUs as they do in a run.  The inverse
FFT is `multiplier_variation`'s batched in-place transform of a (6, 2^18)
stack, restored from a copy outside the timed region.  The coefficient
search's phase matrix is `torus._independent_phase_matrix` at L = 5 and
8192 samples, seed 0; the Weyl prefixes are `est` part 2's call at
n = 12, `weyl_sum_prefixes` of squares at 64 int64 alphas k / 2^53
(seed 0) to t_max = 2^13 - 1, every block drawn.  Each kernel runs once
untimed, then --repeats times; the script prints one JSON document with
each kernel's median and quartiles in seconds, and ns per DP cell
(rows * S(S-1)/2 cells), per FFT point or per term.  --src times another
tree's package (its ``src`` directory), so a parent commit and a change
can be measured by one script on one host.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (rows, S, r): the search's serial 8192 x 4 and 8192 x 5 (L = 4 and 5),
# entropy's 2^18 x 6 at its default r = 3, average's 2^18 x 12, the split
# gate's 16384 x 16, smooth's 256 x 256, and 12288 x 12, a split call of
# three blocks' worth of columns
DP_SHAPES = ((8192, 4, 2.0), (8192, 5, 2.0), (1 << 18, 6, 3.0),
             (1 << 18, 12, 2.0), (16384, 16, 2.0), (256, 256, 2.0),
             (12288, 12, 2.0))
IFFT_SHAPE = (6, 1 << 18)
# (L, samples, seed) of the search's phase matrix
PHASE_MATRIX = (5, 8192, 0)
# est part 2's prefix call at n = 12: alphas, each k / 2^53, and t_max
PREFIX_ALPHAS, PREFIX_DEN, PREFIX_T_MAX = 64, 1 << 53, (1 << 13) - 1


def timings(fn, repeats: int, reset=None) -> list:
    """Wall seconds of `repeats` calls of fn after one untimed call;
    reset(), when given, runs before each call, outside the timing."""
    out = []
    for i in range(repeats + 1):
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        fn()
        if i:
            out.append(time.perf_counter() - t0)
    return out


def summary(seconds: list, work: int, unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3,
            f"ns_per_{unit}": median / work * 1e9, unit + "s": work,
            "repeats": len(seconds)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="the src directory of the tree to time")
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be at least 2, for quartiles")
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from circlelab import IntPoly, variation_values, weyl_sum_prefixes
    from circlelab.torus import _independent_phase_matrix

    rng = np.random.default_rng(0)
    kernels = []
    for rows, S, r in DP_SHAPES:
        v = (rng.standard_normal((S, rows))
             + 1j * rng.standard_normal((S, rows)))
        secs = timings(lambda: variation_values(v.T, r), args.repeats)
        kernels.append({"kernel": "variation_values", "rows": rows, "S": S,
                        "r": r, **summary(secs, rows * (S * (S - 1) // 2),
                                          "cell")})
    src = (rng.standard_normal(IFFT_SHAPE)
           + 1j * rng.standard_normal(IFFT_SHAPE))
    stack = np.empty_like(src)
    secs = timings(lambda: np.fft.ifft(stack, axis=1, out=stack),
                   args.repeats, lambda: np.copyto(stack, src))
    kernels.append({"kernel": "ifft", "shape": list(IFFT_SHAPE),
                    **summary(secs, stack.size, "point")})
    L, samples, seed = PHASE_MATRIX
    secs = timings(lambda: _independent_phase_matrix(L, samples, seed),
                   args.repeats)
    kernels.append({"kernel": "_independent_phase_matrix", "L": L,
                    "samples": samples, **summary(secs, L * samples, "term")})
    k = (np.random.default_rng(0).random(PREFIX_ALPHAS)
         * PREFIX_DEN).astype(np.int64)
    squares = IntPoly([0, 0, 1])
    secs = timings(lambda: collections.deque(weyl_sum_prefixes(
        squares, PREFIX_T_MAX, k, PREFIX_DEN), maxlen=0), args.repeats)
    kernels.append({"kernel": "weyl_sum_prefixes", "alphas": PREFIX_ALPHAS,
                    "t_max": PREFIX_T_MAX,
                    **summary(secs, PREFIX_ALPHAS * PREFIX_T_MAX, "term")})
    print(json.dumps({
        "src": os.path.abspath(args.src),
        "provenance": {"python": platform.python_version(),
                       "numpy": np.__version__,
                       "machine": platform.machine(),
                       "cpus": len(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity")
                       else os.cpu_count()},
        "kernels": kernels}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
