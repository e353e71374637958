"""Time circlelab's kernels in-process, at pinned shapes.

Usage (from the repository root):

    python3 bench/kernels.py [--repeats 9] [--src DIR] [--kernel NAME ...]
    python3 bench/kernels.py --parent DIR --change DIR [--pairs 10]
        [--repeats 9] [--kernel NAME ...]

Every DP shape is timed as the experiments call it: `variation_values`
on the (rows, S) transposed view of a C-ordered (S, rows) complex array
of standard complex Gaussians (seed 0), so no copy is made, and large
calls split across the process's CPUs as they do in a run.  The chain-mode
DP is `varnorm._best_power_sums` with a predecessor table on such an
(S, rows) array, in one workspace held across calls, as the coefficient
search runs it; the one-column chain is `varnorm._optimal_chain` on 1024
such Gaussians at r = 2, as `variation --values` runs it.  The inverse
FFT is `multiplier_variation`'s batched in-place transform of a (6, 2^18)
stack, restored from a copy outside the timed region.  The coefficient search's phase matrix is
`torus._independent_phase_matrix` at L = 5 and 8192 samples, seed 0; the
Weyl prefixes are `est` part 2's call at n = 12, `weyl_sum_prefixes` of
squares at 64 int64 alphas k / 2^53 (seed 0) to t_max = 2^13 - 1, every
block drawn; the searches are `search_coefficients` at the arguments of
the benchmark's ladder ops, seed 0; the entropy pipeline is
`verify_entropy` at the spectrum workload's entropy op's arguments (16
frequencies, sigma = 2, r = 3, its default 8 trials), seed 0, and the
projections kernel one of its trials' `multiplier_variation` calls, on
the (6, 2^18) masks of k = 12..17 as the tree's `verify_entropy` passes
them (`spectral.projections` of the masks), with trial 0's fhat and a
work stack held across calls.  Each kernel runs once untimed, then
--repeats times; the script prints one JSON document with each kernel's
median and quartiles in seconds, and ns per DP cell (rows * S(S-1)/2
cells), per FFT point, per term or per search run.  --src times another
tree's package (its ``src`` directory), which must have every kernel.  A
--src, --parent or --change directory with no ``circlelab`` package in
it (a checkout's root, say) is refused with one line and exit status 2
before any kernel runs.  --kernel picks kernels by name (default: all).

With --parent and --change, each kernel is timed in fresh processes of
this script, one per tree and pair, for --pairs alternating pairs (the
parent first in even pairs and the change first in odd ones, so that a
drift of the host's speed falls on both sides alike).  The document then
holds, per kernel, each side's median and quartiles of the runs' medians
and the number of pairs in which the change's median was lower.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
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
# (rows, S, r) of the chain-mode DP: search steps at L = 3 (counterexample
# --L 3) and L = 5
CHAIN_SHAPES = ((8192, 3, 2.0), (8192, 5, 2.0))
# (S, r) of the one-column chain
CHAIN_VALUES = (1024, 2.0)
IFFT_SHAPE = (6, 1 << 18)
# (L, samples, seed) of the search's phase matrix
PHASE_MATRIX = (5, 8192, 0)
# est part 2's prefix call at n = 12: alphas, each k / 2^53, and t_max
PREFIX_ALPHAS, PREFIX_DEN, PREFIX_T_MAX = 64, 1 << 53, (1 << 13) - 1
# (L, iterations, restarts) of the ladder ops' searches: counterexample
# --L 3's one start, search-coeffs' defaults at L = 4, and search-coeffs
# --L 5 --iterations 100
SEARCHES = ((3, 200, 0), (4, 200, 2), (5, 100, 2))
# (num_freqs, sigma, r, seed) of the spectrum workload's entropy op
ENTROPY = (16, 2.0, 3.0, 0)
# its admissible k: sigma^-k < tau/100 = 1/3200 and sigma^k <= M/2 = 2^17
ENTROPY_KS = range(12, 18)


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


def _gaussians(shape):
    import numpy as np
    rng = np.random.default_rng(0)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dp(rows, S, r):
    from circlelab import variation_values
    v = _gaussians((S, rows))
    return (lambda: variation_values(v.T, r), None,
            rows * (S * (S - 1) // 2), "cell",
            {"kernel": "variation_values", "rows": rows, "S": S, "r": r})


def _chain_dp(rows, S, r):
    import numpy as np
    from circlelab.varnorm import _best_power_sums, _dp_workspace
    v = _gaussians((S, rows))
    work = _dp_workspace(S, rows)
    pred = np.empty((S, rows), dtype=np.intp)
    return (lambda: _best_power_sums(v, r, work, pred), None,
            rows * (S * (S - 1) // 2), "cell",
            {"kernel": "_best_power_sums chain mode", "rows": rows, "S": S,
             "r": r})


def _chain(S, r):
    from circlelab.varnorm import _optimal_chain
    v = _gaussians(S)
    return (lambda: _optimal_chain(v, r), None, S * (S - 1) // 2, "cell",
            {"kernel": "_optimal_chain", "S": S, "r": r})


def _ifft():
    import numpy as np
    src = _gaussians(IFFT_SHAPE)
    stack = np.empty_like(src)
    return (lambda: np.fft.ifft(stack, axis=1, out=stack),
            lambda: np.copyto(stack, src), stack.size, "point",
            {"kernel": "ifft", "shape": list(IFFT_SHAPE)})


def _phase_matrix():
    from circlelab.torus import _independent_phase_matrix
    L, samples, seed = PHASE_MATRIX
    return (lambda: _independent_phase_matrix(L, samples, seed), None,
            L * samples, "term",
            {"kernel": "_independent_phase_matrix", "L": L,
             "samples": samples})


def _prefixes():
    import numpy as np
    from circlelab import IntPoly, weyl_sum_prefixes
    k = (np.random.default_rng(0).random(PREFIX_ALPHAS)
         * PREFIX_DEN).astype(np.int64)
    squares = IntPoly([0, 0, 1])
    return (lambda: collections.deque(weyl_sum_prefixes(
        squares, PREFIX_T_MAX, k, PREFIX_DEN), maxlen=0), None,
        PREFIX_ALPHAS * PREFIX_T_MAX, "term",
        {"kernel": "weyl_sum_prefixes", "alphas": PREFIX_ALPHAS,
         "t_max": PREFIX_T_MAX})


def _search(L, iterations, restarts):
    from circlelab import search_coefficients
    return (lambda: search_coefficients(L, iterations, restarts, 0), None,
            1, "run",
            {"kernel": "search_coefficients", "L": L,
             "iterations": iterations, "restarts": restarts})


def _entropy(num_freqs, sigma, r, seed):
    from circlelab import verify_entropy
    return (lambda: verify_entropy(num_freqs, sigma, r, seed), None, 1,
            "run", {"kernel": "verify_entropy", "num_freqs": num_freqs,
                    "sigma": sigma, "r": r, "seed": seed})


def _projections(num_freqs, sigma, r, seed):
    import numpy as np
    from circlelab import spectral
    from circlelab.verify import (_circular_distance,
                                  _place_separated_frequencies)
    M = num_freqs << 14
    rng = np.random.default_rng(seed)
    dmin = _circular_distance(_place_separated_frequencies(num_freqs, M, rng),
                              M)
    masks = np.stack([dmin <= sigma ** (-k) * M for k in ENTROPY_KS])
    mults = spectral.projections(masks)
    fhat = np.fft.fft(spectral._complex_normal(rng, M))
    work = np.empty(masks.shape, dtype=complex)
    return (lambda: spectral.multiplier_variation(fhat, mults, r, work),
            None, masks.size, "point",
            {"kernel": "multiplier_variation", "S": len(masks), "M": M,
             "r": r})


# name -> (setup, args): a setup imports what it times and returns (fn,
# reset, work, unit, fields)
KERNELS = {
    **{f"dp-{rows}x{S}-r{r:g}": (_dp, (rows, S, r))
       for rows, S, r in DP_SHAPES},
    **{f"chain-dp-{rows}x{S}-r{r:g}": (_chain_dp, (rows, S, r))
       for rows, S, r in CHAIN_SHAPES},
    "chain-{}-r{:g}".format(*CHAIN_VALUES): (_chain, CHAIN_VALUES),
    "ifft-{}x{}".format(*IFFT_SHAPE): (_ifft, ()),
    "phase-matrix": (_phase_matrix, ()),
    "weyl-prefixes": (_prefixes, ()),
    **{f"search-L{L}-{it}-{rs}": (_search, (L, it, rs))
       for L, it, rs in SEARCHES},
    "entropy": (_entropy, ENTROPY),
    "projections": (_projections, ENTROPY),
}


def provenance() -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count()}


def time_kernels(names, repeats: int) -> list:
    out = []
    for name in names:
        setup, args = KERNELS[name]
        fn, reset, work, unit, fields = setup(*args)
        out.append({"name": name, **fields,
                    **summary(timings(fn, repeats, reset), work, unit)})
    return out


def run_child(src: str, name: str, repeats: int) -> dict:
    """One kernel's entry from a fresh process timing `src`'s package."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src,
         "--kernel", name, "--repeats", str(repeats)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)["kernels"][0]


def compare_trees(srcs: dict, names, pairs: int, repeats: int) -> list:
    """Per kernel: each side's summary of its runs' medians over the
    alternating pairs and the pairs the change won."""
    from write_bench import summary as run_summary
    out = []
    for name in names:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            pair = {side: run_child(srcs[side], name, repeats)
                    for side in order}
            for side, entry in pair.items():
                runs[side].append(entry["median_s"])
            print(f"{name} pair {i + 1}/{pairs}: " + ", ".join(
                f"{side} {pair[side]['median_s']:.6f} s"
                for side in ("parent", "change")), file=sys.stderr, flush=True)
        out.append({**{k: v for k, v in pair["change"].items()
                       if not k.endswith("_s") and not k.startswith("ns_per_")},
                    **{side: run_summary(v) for side, v in runs.items()},
                    "pairs_change_better": sum(
                        c < p for p, c in zip(runs["parent"], runs["change"])),
                    "pairs": pairs})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="the src directory of the tree to time")
    p.add_argument("--kernel", action="append", choices=sorted(KERNELS),
                   help="repeatable; default every kernel")
    p.add_argument("--parent", help="src directory: compare two trees")
    p.add_argument("--change", help="src directory: compare two trees")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be at least 2, for quartiles")
    if (args.parent is None) != (args.change is None):
        p.error("--parent and --change go together")
    for flag in ("src", "parent", "change"):
        src = getattr(args, flag)
        if src is not None and not os.path.isfile(
                os.path.join(src, "circlelab", "__init__.py")):
            print(f"{p.prog}: error: --{flag} {src} holds no circlelab "
                  "package; give a tree's src directory", file=sys.stderr)
            return 2
    names = args.kernel or list(KERNELS)
    if args.parent is not None:
        if args.pairs < 1:
            p.error("--pairs must be at least 1")
        srcs = {"parent": os.path.abspath(args.parent),
                "change": os.path.abspath(args.change)}
        kernels = compare_trees(srcs, names, args.pairs, args.repeats)
        doc = {**{f"{side}_src": src for side, src in srcs.items()},
               "pairs": args.pairs, "repeats": args.repeats}
    else:
        sys.path.insert(0, os.path.abspath(args.src))
        kernels = time_kernels(names, args.repeats)
        doc = {"src": os.path.abspath(args.src)}
    print(json.dumps({**doc, "provenance": provenance(),
                      "kernels": kernels}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
