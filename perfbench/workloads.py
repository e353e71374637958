"""The benchmark's workloads: lists of circlelab CLI ops drawn from a seed.

Each op is the argument list a user would pass to ``circlelab``.  Every
input that varies (the ``--seed`` handed to the program, drawn alpha
values, small offsets of t) comes from ``random.Random`` seeded with the
workload name and the benchmark seed, so the same seed always yields the
same op lists and the program itself never sees the benchmark seed.
Sizes are fixed per workload so that the amount of work barely depends on
the seed, and small enough (1-5 s an op) that every op runs about three
times or more in a 30 s window.
"""

from __future__ import annotations

import random

WHY = {
    "decomp": "per-point arc classification (arith) dominates and variation "
              "runs on tall Mx16 arrays; the only workload where a grid arc "
              "classifier or a bounded multiplier memo shows",
    "weyl": "exact phase reduction (expsum) takes ~70% of the time, ~97% of "
            "what follows set-up, over dyadic <= 2^53, dyadic > 2^64 and "
            "non-dyadic denominators; no variation DP",
    "spectrum": "tall variation arrays larger than L2 and large FFTs, with "
                "no arith or expsum work",
    "ladder": "the variation DP on many small L2-resident arrays and one "
              "long-S case, plus the 2^22-term dyadic Gauss tail",
}

NAMES = tuple(WHY)

# main-decomp (poly, modulus, n_max); n_min is 8 throughout
_DECOMP = (("0,0,1", 1 << 14, 10), ("0,1,3", 1 << 13, 9))
_DYADIC_SCALES = ",".join(str(1 << i) for i in range(12))


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 31))


def _decomp(rng):
    return [["main-decomp", "--poly", poly, "--modulus", str(M),
             "--n-min", "8", "--n-max", str(n_max), "--seed", _seed(rng)]
            for poly, M, n_max in _DECOMP]


def _weyl(rng):
    # a non-dyadic rational alpha = a/q with q < 2^31 and q odd
    q = rng.randrange(1 << 29, 1 << 30) | 1
    a = rng.randrange(1, q)
    # a float alpha, passed as its exact value: a dyadic a/2^k, k <= 53
    x = "%d/%d" % rng.random().as_integer_ratio()
    return [
        ["est", "--poly", "0,0,1", "--n-min", "8", "--n-max", "12",
         "--seed", _seed(rng)],
        ["est", "--poly", "0,0,0,1", "--n-min", "8", "--n-max", "12",
         "--seed", _seed(rng)],
        ["weyl-sum", "--poly", "0,0,1", "--t",
         str((1 << 20) + rng.randrange(1024)), "--alpha", f"{a}/{q}"],
        ["weyl-sum", "--poly", "0,0,0,1", "--t",
         str((1 << 20) - rng.randrange(1024)), "--alpha", x],
    ]


def _spectrum(rng):
    return [
        # M = 16 * 2^14 = 2^18 rows, the fewest that keep the variation
        # arrays (M x 6 complex) far larger than L2
        ["entropy", "--num-freqs", "16", "--seed", _seed(rng)],
        ["average", "--poly", "0,0,1", "--modulus", str(1 << 18),
         "--scales", _DYADIC_SCALES, "--seed", _seed(rng)],
    ]


def _ladder(rng):
    return [
        ["search-coeffs", "--L", "5", "--iterations", "100",
         "--seed", _seed(rng)],
        ["counterexample", "--L", "3", "--R", "47", "--seed", _seed(rng)],
        ["smooth", "--N", "256", "--a", "0.05", "--seed", _seed(rng)],
        ["search-coeffs", "--L", "4", "--seed", _seed(rng)],
    ]


_BUILDERS = {"decomp": _decomp, "weyl": _weyl, "spectrum": _spectrum,
             "ladder": _ladder}


def ops(workload: str, seed: int) -> list:
    """The op argument lists of `workload` for benchmark seed `seed`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(NAMES)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
