"""Reference computations that only the tests need.

`eval_poly` evaluates an integer polynomial exactly, by Horner's rule.
`average_multiplier` is the multiplier of one K_N on Z/M, one DFT of its
hit counts, the oracle of the rows of `spectral.average_multipliers`.
`polynomial_average` applies K_N to a signal on Z/M (a 1-D complex
array) through that multiplier; `polynomial_average_direct` sums the
shifted signal term by term, so the two check each other (acceptance
criterion 04).
`per_row_multiplier_variation` fills the variation stack of a multiplier
family one `ifft` at a time, the oracle of `multiplier_variation`.
`quadratic_gauss_row` gives every quadratic Gauss sum mod q by one DFT
(acceptance criterion 03); `fit_power_law` is the log-log slope that
acceptance criterion 10 bounds.
`cumsum_partial_sum_objective` is the ladder search's objective on
sample-major phases, by reversed cumulative sums.
`recomputed_predecessors` and `recomputed_chain` read the variation DP's
first maximal predecessors back by recomputing each candidate from the
default mode's table, the oracles of the DP's chain mode.
`chain_gradient` is the gradient of the ladder objective's square,
sample by sample along `recomputed_chain`'s chains.
`torus_distance` is the exact distance of a `Fraction` to the nearest
integer.  `farey_level` builds the Farey level s, every reduced a/q
with q in [2^s, 2^(s+1)), and `fractions_near` finds the level-s
fractions within a radius of a point by bisection over the level's
values.  `level_scan_labels` is the level loop that `arith.arc_labels`
ran before its continued fractions, the bitwise oracle of all its
fields up to level 9.
`classify_arc` scans the admitted Farey levels for one point through
them, in `Fraction` arithmetic, the oracle of `arith.arc_labels`'
Major/Minor labels and admitting fractions; `shell_index` and
`annulus_label` give one point's dyadic distance shell, the oracle of
`arc_labels(...).shell`.
`bigint_phase_chunks` reduces every phase on Python ints by finite
differences, the oracle of the residue kernel's phases.
`complete_dyadic_gauss` is the complete sum of e(n^2/2^m) over a period
in closed form; over 2^m it pins the bits of `dyadic.dyadic_gauss_mean`.
`direct_dyadic_tail_mean` sums a dyadic tail term by term on exact
phases, as `fast_dyadic_quadratic_weyl` did before its fast regimes, the
oracle of each regime at its gate edges.
`per_sample_ladder_phases` draws the ladder's sample points one
`Generator.bytes` call at a time, the oracle of `torus._ladder_phases`.
`exp_terms` is numpy's complex exp of -2 pi i ph, the oracle of the
table-driven e(-ph) kernel.
`l2_norm`, `eval_dyadic` and `eval_float` evaluate a lacunary polynomial,
given by its frequencies and their coefficients, term by term.
`sequential_entropy` is `verify.verify_entropy` with its trials run one
after another in the calling thread, each signal drawn, transformed into
a new array and normalized only when its trial starts, the oracle of
the draw-ahead pipeline.
`assert_pin_moved` bounds how far a re-recorded float.hex pin moved from
the one it replaces, in ulps.
"""

import cmath
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Optional

import numpy as np

from circlelab import (ArcParams, IntPoly, ParameterError, ReducedFraction,
                       variation_values)
from circlelab.arith import ArcLabels, _arc_dtype
from circlelab.expsum import (_PHASE_CHUNK, _esum, _phase_chunks,
                              residue_counts)
from circlelab.spectral import (_complex_normal, _pairwise_norm,
                                multiplier_variation, projections)
from circlelab.varnorm import _best_power_sums, _dp_workspace, _power
from circlelab.verify import (BoundFitReport, _circular_distance,
                              _place_separated_frequencies, _power_fit)


def eval_poly(P: IntPoly, n: int) -> int:
    """Exact evaluation of P at an integer (Horner, arbitrary width)."""
    n = int(n)
    acc = 0
    for c in reversed(P.coeffs):
        acc = acc * n + c
    return acc


def average_multiplier(P: IntPoly, N: int, M: int) -> np.ndarray:
    """Fourier multiplier of K_N on Z/M: conj(weyl_sum(P, N, j/M)) at entry j.

    The DFT of the exact hit counts of P(n) mod M gives all M frequencies
    at once; the multiplier is its conjugate over N.
    """
    return np.conj(np.fft.fft(residue_counts(P.coeffs, N, M))) / N


def polynomial_average(f: np.ndarray, P: IntPoly, N: int) -> np.ndarray:
    """K_N * f(x) = (1/N) sum_{n<=N} f(x + P(n) mod M), via diagonalization."""
    mult = average_multiplier(P, N, len(f))
    return np.fft.ifft(np.fft.fft(f) * mult)


def polynomial_average_direct(f: np.ndarray, P: IntPoly,
                              N: int) -> np.ndarray:
    """Direct spatial-summation oracle for polynomial_average."""
    if N < 1:
        raise ParameterError("N must be >= 1")
    M = len(f)
    out = np.zeros(M, dtype=complex)
    for n in range(1, N + 1):
        out += np.roll(f, -(eval_poly(P, n) % M))
    return out / N


def per_row_multiplier_variation(fhat: np.ndarray, mults, r: float) -> float:
    """||V^r(ifft(fhat * m) : m in mults)||_2, one ifft per multiplier row.

    The norm is the library's own: this oracle checks the stack and the
    ifft, not the summation order of the norm.
    """
    spatial = np.empty((len(mults), len(fhat)), dtype=complex)
    for idx, m in enumerate(mults):
        spatial[idx] = np.fft.ifft(fhat * m)
    return _pairwise_norm(variation_values(spatial.T, r))


def sequential_entropy(num_freqs: int, sigma: float, r: float, seed: int,
                       trials: int, grid_factor: int) -> BoundFitReport:
    """`verify_entropy`'s report, trials one after another (sigma > 1,
    r > 2)."""
    N = num_freqs
    tau = 1.0 / (2 * N)
    M = N * grid_factor
    rng = np.random.default_rng(seed)
    k_min = int(math.floor(math.log(100.0 / tau) / math.log(sigma))) + 1
    k_max = int(math.floor(math.log(M / 2.0) / math.log(sigma)))
    if k_max < k_min:
        raise ParameterError("no admissible k")
    dmin = _circular_distance(_place_separated_frequencies(N, M, rng), M)
    proj = projections(np.stack([dmin <= sigma ** (-k) * M
                                 for k in range(k_min, k_max + 1)]))
    work = np.empty(proj.shape, dtype=complex)
    ratios = []
    for _ in range(trials):
        f = _complex_normal(rng, M)
        v = multiplier_variation(np.fft.fft(f), proj, r, out=work)
        ratios.append(v / _pairwise_norm(f))
    value = max(ratios)
    envelope = (r / (r - 2.0) * max(math.log(N), 1.0)) ** 2 / (sigma - 1.0)
    return BoundFitReport("entropy_surrogate", (N,), (value,),
                          value / envelope, 0.0, 0.0)


def quadratic_gauss_row(q: int) -> np.ndarray:
    """S(a/q) = (1/q) sum_r e(-a r^2/q) for every a = 0..q-1, via one DFT.

    The sum depends only on the counts of r^2 mod q, and evaluating the
    count vector at all a at once is exactly a length-q DFT.
    """
    return np.fft.fft(residue_counts((0, 0, 1), q, q)) / q


def fit_power_law(points) -> float:
    """Slope of log v against n log 2, so slope -nu means v ~ 2^(-nu n)."""
    slope, _ = _power_fit([p[0] for p in points], [p[1] for p in points])
    return slope


def cumsum_partial_sum_objective(coeffs: np.ndarray, z: np.ndarray) -> float:
    """||V^2(S_m f)||_2 over (samples, L) phases z, S_m f summed by cumsum."""
    partial = np.cumsum((z * coeffs[None, :])[:, ::-1], axis=1)[:, ::-1]
    v = variation_values(partial, 2.0)
    return float(np.sqrt(np.mean(v ** 2)))


def recomputed_predecessors(v: np.ndarray, r: float) -> np.ndarray:
    """pred[j, c] for the (S, cols) family columns of v: the first i < j
    whose candidate best[i] + |v_j - v_i|^r, recomputed column by column
    with the DP's own expression from its default-mode table, is largest;
    row 0 is 0."""
    S, cols = v.shape
    best = _best_power_sums(v, r, _dp_workspace(S, cols))
    pred = np.zeros((S, cols), dtype=np.intp)
    with np.errstate(over="ignore"):
        for c in range(cols):
            col = np.ascontiguousarray(v[:, c])
            for j in range(1, S):
                pred[j, c] = np.argmax(
                    best[:j, c] + _power(col[j:j + 1] - col[:j], r))
    return pred


def recomputed_chain(values, r: float):
    """Max over increasing chains of sum |f_j - f_i|^r, and one such chain:
    it ends at the first maximal slot, and the predecessor of j is the
    first i whose candidate, recomputed with the DP's own expression, is
    largest, until a slot whose best power sum is 0."""
    v = np.asarray(values, dtype=complex)
    best = _best_power_sums(v[:, None], r, _dp_workspace(len(v), 1))[:, 0]
    end = j = int(np.argmax(best))
    chain = [end]
    with np.errstate(over="ignore"):
        while best[j] > 0:
            j = int(np.argmax(best[:j] + _power(v[j:j + 1] - v[:j], r)))
            chain.append(j)
    return float(best[end]), chain[::-1]


def chain_gradient(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The gradient of the mean over the samples of V^2(S f)^2 in the real
    coefficients, for (L, samples) phases z: t in a block [i, j) of a
    sample's `recomputed_chain` gains 2 Re(conj(S_i f - S_j f) z_t),
    summed sample by sample in Python floats."""
    L, n = z.shape
    p = np.cumsum((z * coeffs[:, None])[::-1], axis=0)[::-1]
    g = [0.0] * L
    for s in range(n):
        _, chain = recomputed_chain(p[:, s], 2.0)
        for i, j in zip(chain, chain[1:]):
            d = complex(p[i, s] - p[j, s])
            for t in range(i, j):
                g[t] += 2.0 * (d.conjugate() * complex(z[t, s])).real
    return np.array(g) / n


def torus_distance(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, exactly."""
    f = x - math.floor(x)
    return min(f, 1 - f)


@lru_cache(maxsize=None)
def farey_level(s: int) -> tuple:
    """All reduced a/q with q in [2^s, 2^(s+1)); level 0 is just {0/1}.

    Returned sorted by value so callers can bisect for neighbours.  The
    cost grows about 4x a level; level 9 takes about half a second.
    """
    if s < 0:
        raise ParameterError("level must be non-negative")
    if s == 0:
        return (ReducedFraction(0, 1),)
    out = []
    for q in range(1 << s, 1 << (s + 1)):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                out.append(ReducedFraction(a, q))
    # level fractions lie over 4^-(s+1) apart, far above the rounding of
    # a / q, so the float key sorts them exactly as their values
    out.sort(key=lambda fr: fr.a / fr.q)
    return tuple(out)


@lru_cache(maxsize=None)
def _level_arrays(s: int):
    """Level s as int64 arrays a and q, and the float values a / q."""
    a, q = np.array([(fr.a, fr.q) for fr in farey_level(s)]).T
    return a, q, a / q


def level_scan_labels(P: IntPoly, params: ArcParams, k, D: int) -> ArcLabels:
    """`arith.arc_labels` by the level loop it replaced: at every level s
    <= s_max, the point's two neighbours among the level's fractions,
    found by bisection of the float X/D, each kept when its distance,
    rounded once, is below the best so far (so the lower level, then the
    left neighbour, wins a tie).

    The caller checks the parameters; the levels are built in order while
    some point is not yet Major.
    """
    D = int(D)
    w = params.width
    dtype = _arc_dtype((2 << params.s_max) - 1, D, P.leading)
    if dtype == object or not isinstance(k, np.ndarray):
        k = np.array(k, dtype=object)
    X = (k % D).astype(dtype, copy=False) * (P.leading % D) % D
    x = np.asarray(X / D, dtype=float)
    tie = 2 * math.ulp(w)
    dist = np.full(len(X), np.inf)
    major = np.zeros(len(X), dtype=bool)
    near_a = np.zeros(len(X), dtype=dtype)
    near_q = np.ones(len(X), dtype=dtype)
    for s in range(params.s_max + 1):
        if major.all():
            break  # no later level changes a Major point's data
        a, q, values = _level_arrays(s)
        right = np.searchsorted(values, x)
        a, q = a.astype(dtype), q.astype(dtype)
        for c in ((right - 1) % len(a), right % len(a)):
            qD = q[c] * D
            r = (X * q[c] - a[c] * D) % qD
            near = np.asarray(np.minimum(r, qD - r) / qD, dtype=float)
            closer = near < dist
            dist[closer] = near[closer]
            near_a[closer] = a[c][closer]
            near_q[closer] = q[c][closer]
        major = (dist < w) & (w - dist > tie)
    shell = np.where(dist == 0, np.inf, 1 - np.frexp(dist)[1])
    return ArcLabels(major, dist, shell, near_a, near_q)


def fractions_near(s: int, x: Fraction, radius: float) -> list:
    """Level-s fractions within torus distance <= radius of x (x in [0,1)).

    Needs radius <= 2^-(s+1), as every caller has: no level-s fraction but
    0/1 lies that near 0 == 1, so the window never needs to wrap around.
    Returned sorted by value.
    """
    fracs = farey_level(s)
    r = Fraction(radius)
    lo = bisect_left(fracs, x - r, key=attrgetter("value"))
    hi = bisect_left(fracs, x + r, key=attrgetter("value"))
    return [fr for fr in fracs[max(lo - 1, 0):hi + 1]
            if torus_distance(x - fr.value) <= radius]


@dataclass(frozen=True)
class ArcLabel:
    kind: str
    fraction: Optional[ReducedFraction] = None
    s: Optional[int] = None
    pre_interval: Optional[int] = None

    @property
    def is_major(self) -> bool:
        return self.kind == "major"


def _major_distance(alpha: Fraction, bd: int, frac: ReducedFraction):
    """Exact torus distance of {b_d alpha} to a/q."""
    x = bd * alpha
    x -= math.floor(x)
    return torus_distance(x - frac.value)


def classify_arc(alpha, P: IntPoly, params: ArcParams) -> ArcLabel:
    """Major/Minor classification of one alpha (int, float or Fraction).

    Scans every admitted level s <= floor(n delta) in value order for a
    fraction whose exact distance, rounded once, is below the width by
    more than 2 ulp; the first one found admits alpha.
    """
    if params.degree != P.degree:
        raise ParameterError("params.degree must match the polynomial degree")
    a = Fraction(alpha)
    a -= math.floor(a)
    bd = P.leading
    w = params.width
    if w >= 1.0 / (2 * bd):
        raise ParameterError(
            "scale too small for distinct pre-intervals; increase n")
    i = min(int(math.floor(bd * a)), bd - 1)
    tie = 2 * math.ulp(w)
    for s in range(params.s_max + 1):
        for fr in fractions_near(s, bd * a - math.floor(bd * a), w):
            dist = float(_major_distance(a, bd, fr))
            if dist < w and (w - dist) > tie:
                return ArcLabel("major", fraction=fr, s=s, pre_interval=i)
    return ArcLabel("minor")


def shell_index(dist: float) -> float:
    """Least k with 2^(-k) <= dist (i.e. dist in [2^-k, 2^-k+1)); inf at 0."""
    if dist < 0:
        raise ParameterError("distance must be non-negative")
    if dist == 0:
        return math.inf
    m, e = math.frexp(dist)  # dist = m * 2^e, m in [0.5, 1)
    return 1 - e


def annulus_label(alpha, P: IntPoly, params: ArcParams,
                  label: ArcLabel) -> float:
    """Dyadic shell index k of the distance |{b_d alpha} - a/q|.

    k is the least integer with 2^(-k) <= distance, so a distance of
    exactly 2^(-21) gets k = 21.  Distance zero returns the +inf sentinel.
    """
    if not label.is_major:
        raise ParameterError("annulus labels only apply to major arcs")
    dist = float(_major_distance(Fraction(alpha), P.leading, label.fraction))
    return shell_index(dist)


def bigint_phase_chunks(P: IntPoly, t: int, num: int, den: int):
    """frac(num * P(n) / den) for n = 1..t, in chunks, any num and den.

    Uses the finite-difference table of n -> num * P(n): after d forward
    differences the increments are constant integers, so each step is a
    handful of big-int additions and one reduction mod den.
    """
    d = P.degree
    diffs = [num * eval_poly(P, n) for n in range(1, d + 2)]
    # forward differences D_0 .. D_d at n = 1
    for lvl in range(1, d + 1):
        for j in range(d, lvl - 1, -1):
            diffs[j] = diffs[j] - diffs[j - 1]
    for start in range(0, t, _PHASE_CHUNK):
        out = np.empty(min(_PHASE_CHUNK, t - start), dtype=float)
        for n in range(len(out)):
            out[n] = (diffs[0] % den) / den
            for j in range(d):
                diffs[j] += diffs[j + 1]
        yield out


def complete_dyadic_gauss(m: int) -> complex:
    """The complete sum sum_{n=1}^{2^m} e(n^2 / 2^m), in closed form.

    m = 0 -> 1; m = 1 -> 0; even m >= 2 -> 2^(m/2) (1+i);
    odd m >= 3 -> 2^((m+1)/2) e(1/8).  Over 2^m it is the expression that
    `dyadic.dyadic_gauss_mean` replaced, a float only up to m = 1023.
    """
    if m == 0:
        return 1.0 + 0.0j
    if m == 1:
        return 0.0 + 0.0j
    if m % 2 == 0:
        return 2.0 ** (m // 2) * (1.0 + 1.0j)
    return 2.0 ** ((m + 1) // 2) * cmath.exp(1j * math.pi / 4.0)


def direct_dyadic_tail_mean(m: int, T: int) -> complex:
    """(1/T) sum_{n=1}^T e(n^2/2^m), term by term: each phase reduced
    exactly, as the conjugate of the Weyl sum of n^2 at 1/2^m."""
    return (_esum(_phase_chunks((0, 0, 1), T, 1, 1 << m)) / T).conjugate()


def per_sample_ladder_phases(params, sample_count: int, seed: int):
    """(L, samples) ladder phases, one `rng.bytes` draw per sample point;
    returns them with the generator, to compare its next draw."""
    bits = params.R + 64
    rng = np.random.default_rng(seed)
    mask = (1 << bits) - 1
    den = 1 << bits
    phases = np.empty((params.L, sample_count), dtype=float)
    for s in range(sample_count):
        numer = int.from_bytes(rng.bytes((bits + 7) // 8), "big") & mask
        for i, ki in enumerate(params.k):
            # int / int rounds once, correctly, at any width
            phases[i, s] = ((numer << ki) & mask) / den
    return phases, rng


def exp_terms(ph: np.ndarray) -> np.ndarray:
    """e(-ph) for every phase, as np.exp(-2 pi i ph)."""
    return np.exp(-2j * math.pi * ph)


def l2_norm(coeffs) -> float:
    """Parseval: distinct frequencies are orthonormal in L^2(T)."""
    return math.sqrt(sum(abs(v) ** 2 for v in coeffs))


def eval_dyadic(freqs, coeffs, numer: int, bits: int) -> complex:
    """f = sum coeffs[i] e(freqs[i] x) at x = numer / 2^bits, with exact
    phase reduction."""
    mask = (1 << bits) - 1
    scale = 2.0 ** (-bits)
    total = 0.0 + 0.0j
    for k, v in zip(freqs, coeffs):
        phase = (numer * k) & mask
        total += v * np.exp(2j * math.pi * (phase * scale))
    return total


def eval_float(freqs, coeffs, x: float) -> complex:
    """Plain double-precision evaluation (dense-grid oracle, small freqs)."""
    return complex(sum(v * np.exp(2j * math.pi * ((k * x) % 1.0))
                       for k, v in zip(freqs, coeffs)))


def _ordered_bits(x: float) -> int:
    """The bits of x as an int that orders like the doubles themselves."""
    (i,) = struct.unpack("<q", struct.pack("<d", x))
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def assert_pin_moved(new, old, max_ulps: int = 8):
    """Every float.hex leaf of pin `new` is within `max_ulps` of the same
    leaf of `old`; every other leaf is equal."""
    if isinstance(new, str):
        gap = abs(_ordered_bits(float.fromhex(new))
                  - _ordered_bits(float.fromhex(old)))
        assert gap <= max_ulps, f"{new} is {gap} ulps from {old}"
    elif isinstance(new, (list, tuple)):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert_pin_moved(a, b, max_ulps)
    else:
        assert new == old
