"""Acceptance gate: one quantitative criterion per test, pinned tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output on failure).
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from circlelab import (IndexedSeq, IntPoly, ReducedFraction, build_sequences,
                       eta_error, fast_dyadic_quadratic_weyl, gauss_weight,
                       long_variation, search_coefficients, short_variation,
                       variation, variation_experiment, verify_entropy,
                       verify_est, verify_smooth)
from oracles import (fit_power_law, polynomial_average,
                     polynomial_average_direct, quadratic_gauss_row)

SQUARES = IntPoly([0, 0, 1])


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def est_reports():
    return verify_est(SQUARES, 8, 14, 0.05, 256, 0)


def stability_factor(rep):
    """max/min of a report's positive per-scale values (non-growth)."""
    vals = [v for v in rep.values if v > 0]
    if not vals:
        return 1.0
    return max(vals) / min(vals)


def brute_force_variation(values, r):
    best = 0.0
    n = len(values)
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            total = sum(abs(values[b] - values[a]) ** r
                        for a, b in zip(combo, combo[1:]))
            best = max(best, total)
    return best ** (1.0 / r)


def test_01_variation_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seq = IndexedSeq.from_values(values)
        for r in (1.5, 2.0, 2.5, 4.0):
            got = variation(seq, r).value
            want = brute_force_variation(list(values), r)
            worst = max(worst, abs(got - want))
    elapsed = time.time() - start
    report(1, "variation-oracle", worst <= 1e-12 and elapsed < 10.0,
           f"max|dp-oracle|={worst:.2e} runtime={elapsed:.1f}s")


def test_02_split_inequality():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(500):
        # full index range 1..n with n >= 16: spans >= 4 dyadic blocks
        n = int(rng.integers(16, 65))
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seq = IndexedSeq.from_values(values)
        for r in (2.0, 3.0):
            full = variation(seq, r).value
            split = long_variation(seq, r).value + \
                short_variation(seq, r).value
            if split > 0:
                worst = max(worst, full / split)
            else:
                worst = max(worst, 1.0 if full > 1e-12 else 0.0)
    report(2, "split-inequality", worst <= 3.0 + 1e-9,
           f"max V/(long+short)={worst:.4f} (bound 3)")


def test_03_gauss_weights():
    worst = 0.0
    for q in range(1, 513):
        row = quadratic_gauss_row(q)
        reduced = [a for a in range(1, q) if math.gcd(a, q) == 1]
        if reduced:
            excess = np.abs(row[reduced]).max() * math.sqrt(q) / math.sqrt(2)
            worst = max(worst, float(excess))
    s_half = gauss_weight(SQUARES, ReducedFraction(1, 2), 0)
    s_quarter = gauss_weight(SQUARES, ReducedFraction(1, 4), 0)
    exact = abs(s_half) <= 1e-12 and \
        abs(s_quarter - complex(0.5, -0.5)) <= 1e-12
    report(3, "gauss-weights", worst <= 1.0 + 1e-9 and exact,
           f"max|S|*sqrt(q)/sqrt(2)={worst:.6f}, "
           f"S(1/2)={s_half:.2e}, S(1/4)-(1-i)/2 exact={exact}")


def test_04_diagonalization():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(2, 257))
        N = int(rng.integers(1, 65))
        d = int(rng.integers(1, 4))
        coeffs = rng.integers(-3, 4, size=d + 1).tolist()
        coeffs[-1] = int(rng.integers(1, 4))
        P = IntPoly(coeffs)
        f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        fast = polynomial_average(f, P, N)
        direct = polynomial_average_direct(f, P, N)
        worst = max(worst, float(np.abs(fast - direct).max()))
    report(4, "diagonalization", worst <= 1e-12, f"max err={worst:.2e}")


def test_05_fast_dyadic_weyl():
    rng = np.random.default_rng(505)
    worst = 0.0
    for R in range(0, 17):
        for k in range(0, R + 1):
            for N in sorted({1, 2, 3, 1 << max(R - k, 0),
                             (1 << max(R - k, 0)) + 1,
                             int(rng.integers(1, 1 << 12))}):
                direct = sum(
                    cmath.exp(2j * math.pi *
                              ((n * n * (1 << k)) % (1 << R)) / (1 << R))
                    for n in range(1, N + 1)) / N
                fast = fast_dyadic_quadratic_weyl(k, R, N)
                worst = max(worst, abs(fast - direct))
    start = time.time()
    fast_dyadic_quadratic_weyl(0, 20, 1 << 30)
    elapsed = time.time() - start
    report(5, "fast-dyadic-weyl", worst <= 1e-12 and elapsed < 1.0,
           f"max err={worst:.2e}, N=2^30 runtime={elapsed * 1000:.2f}ms")


def test_06_minor_arc_decay(est_reports):
    start = time.time()
    _, rep2, _ = est_reports
    elapsed = time.time() - start  # fixture timing dominated elsewhere
    slope = rep2.slope
    report(6, "minor-arc-decay", slope <= -0.1,
           f"fitted slope={slope:.4f} (need <= -0.1)")


def test_07_major_arc_asymptotics(est_reports):
    _, _, rep3 = est_reports
    factor = stability_factor(rep3)
    report(7, "major-arc-asymptotics", factor <= 4.0,
           f"constant stability factor={factor:.3f} (need <= 4)")


def test_08_smooth_lemma():
    consts = []
    for N in (16, 64, 256):
        rep = verify_smooth(N=N, A=1.0, a=1.0 / N, trials=20, seed=808)
        consts.append(rep.constant)
    factor = max(consts) / min(consts)
    report(8, "smooth-lemma", factor <= 2.0,
           f"C per N={['%.4f' % c for c in consts]} factor={factor:.3f}")


def test_09_entropy_envelope():
    consts = []
    for N in (4, 16, 64):
        rep = verify_entropy(N, sigma=2.0, r=3.0, seed=909, trials=8)
        consts.append(rep.constant)  # ratio / (log N)^2-envelope
    # one-sided: growth in N must not exceed the envelope by more than x4
    # relative to the smallest N (growing slower than (log N)^2 is fine)
    ok = all(c <= 4.0 * consts[0] for c in consts)
    report(9, "entropy-envelope", ok,
           f"normalized C={['%.4f' % c for c in consts]} "
           f"(each must be <= 4x the first)")


def test_10_lacunary_boundedness():
    rng = np.random.default_rng(1010)
    points = []
    scales = [1 << s for s in range(0, 11)]
    for m in (10, 12, 14, 16):
        M = 1 << m
        ratios = []
        for _ in range(20):
            f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            ratios.append(variation_experiment(f, SQUARES, scales, 3.0))
        points.append((m, float(np.mean(ratios))))
    slope = fit_power_law(points)
    report(10, "lacunary-boundedness", abs(slope) <= 0.05,
           f"log-slope in M={slope:.4f} (need |slope| <= 0.05)")


def test_11_construction_identities():
    ok = True
    detail = ""
    params = build_sequences(2, 14)
    if params.k != (8, 0) or params.j != (2, 6):
        ok, detail = False, f"L=2,R=14 gave k={params.k} j={params.j}"
    checked = 0
    for L in range(1, 9):
        for R in range(1, 4097):
            try:
                p = build_sequences(L, R)
            except Exception:
                continue
            coupling, closure = p.identity_defects()
            if any(c != 0 for c in coupling) or \
                    any(c not in (0, 1) for c in closure):
                ok, detail = False, f"identity defect at L={L} R={R}"
                break
            checked += 1
    report(11, "construction-identities", ok,
           detail or f"k=(8,0) j=(2,6) at (2,14); {checked} (L,R) pairs exact")


def test_12_construction_trend():
    # cold searches at L = 2..5; L = 3's coefficients drive the R-ladder
    found = [search_coefficients(L, iterations=300, restarts=2, seed=12)
             for L in (2, 3, 4, 5)]

    # eta sup non-increasing along an admissible three-rung R-ladder, L = 3
    rungs = (29, 37, 45)
    coeffs = found[1][0]
    sups = []
    for R in rungs:
        params = build_sequences(3, R)
        sup, _ = eta_error(coeffs, params, 1 << 13, seed=7)
        sups.append(sup)
    eta_ok = all(b <= a + 1e-9 for a, b in zip(sups, sups[1:]))

    # search objective rising strictly in L, L = 2..5
    objs = [obj for _, obj in found]
    l2_ok = abs(objs[0] - 1.0) <= 0.01
    rise_ok = all(b > a for a, b in zip(objs, objs[1:]))
    report(12, "construction-trend", eta_ok and l2_ok and rise_ok,
           f"eta sups={['%.4f' % s for s in sups]} "
           f"L=2 optimum ok={l2_ok} cold rise ok={rise_ok}")
