"""Cyclic-group l^2 laboratory: DFTs, polynomial averages, arc projections.

Z/M is used as an exactly-diagonalizable proxy for l^2(Z): the averaging
operator K_N wraps around cyclically, so its Fourier multiplier at
frequency j/M is exactly the conjugated Weyl sum, and everything can be
cross-checked to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .arith import ArcKind, ArcParams, IntPoly, eval_poly, farey_level
from .errors import ParameterError, ResourceError
from .expsum import DIRECT_SUM_BUDGET, residue_counts
from .varnorm import check_dp_cells, variation_values


@dataclass(frozen=True)
class CyclicSignal:
    """A complex-valued function on Z/M."""

    modulus: int
    values: np.ndarray

    def __init__(self, modulus: int, values: Sequence[complex]):
        v = np.asarray(values, dtype=complex)
        if modulus < 1 or v.shape != (modulus,):
            raise ParameterError("values must have length M >= 1")
        if not np.isfinite(v).all():
            raise ParameterError("values must be finite")
        object.__setattr__(self, "modulus", int(modulus))
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class FrequencyMultiplier:
    """Samples of a torus multiplier at the frequencies j/M."""

    modulus: int
    samples: np.ndarray

    def __init__(self, modulus: int, samples: Sequence[complex]):
        v = np.asarray(samples, dtype=complex)
        if modulus < 1 or v.shape != (modulus,):
            raise ParameterError("samples must have length M >= 1")
        object.__setattr__(self, "modulus", int(modulus))
        object.__setattr__(self, "samples", v)


def check_modulus(M: int) -> int:
    """M as an int, refused unless 1 <= M <= DIRECT_SUM_BUDGET.

    Callers check before they allocate anything of length M; the cap also
    keeps q * M below 2^32 in `grid_arcs`.
    """
    M = int(M)
    if M < 1:
        raise ParameterError("modulus M must be >= 1")
    if M > DIRECT_SUM_BUDGET:
        raise ResourceError(f"modulus M={M} exceeds the budget "
                            f"{DIRECT_SUM_BUDGET}; lower M")
    return M


def dft(f: CyclicSignal) -> CyclicSignal:
    """Unitary DFT: entry j is M^(-1/2) sum_x f(x) e(-jx/M)."""
    return CyclicSignal(f.modulus, np.fft.fft(f.values) / math.sqrt(f.modulus))


def idft(f: CyclicSignal) -> CyclicSignal:
    return CyclicSignal(f.modulus, np.fft.ifft(f.values) * math.sqrt(f.modulus))


def average_multiplier(P: IntPoly, N: int, M: int) -> np.ndarray:
    """Fourier multiplier of K_N on Z/M: conj(weyl_sum(P, N, j/M)) at entry j.

    Computed through the exact hit counts of P(n) mod M, whose DFT gives
    all M frequencies at once.
    """
    if N < 1:
        raise ParameterError("N must be >= 1")
    if N > DIRECT_SUM_BUDGET:
        raise ResourceError(f"N={N} exceeds the direct-summation budget "
                            f"{DIRECT_SUM_BUDGET}; lower N")
    counts = residue_counts(P.coeffs, N, check_modulus(M))
    # fft gives sum_y c_y e(-jy/M); the multiplier is its conjugate / N
    return np.conj(np.fft.fft(counts)) / N


def polynomial_average(f: CyclicSignal, P: IntPoly, N: int) -> CyclicSignal:
    """K_N * f(x) = (1/N) sum_{n<=N} f(x + P(n) mod M), via diagonalization."""
    mult = average_multiplier(P, N, f.modulus)
    return CyclicSignal(f.modulus, np.fft.ifft(np.fft.fft(f.values) * mult))


def polynomial_average_direct(f: CyclicSignal, P: IntPoly, N: int) -> CyclicSignal:
    """Direct spatial-summation oracle for polynomial_average."""
    if N < 1:
        raise ParameterError("N must be >= 1")
    M = f.modulus
    out = np.zeros(M, dtype=complex)
    for n in range(1, N + 1):
        out += np.roll(f.values, -(eval_poly(P, n) % M))
    return CyclicSignal(M, out / N)


def apply_multiplier(f: CyclicSignal, m: FrequencyMultiplier) -> CyclicSignal:
    if f.modulus != m.modulus:
        raise ParameterError("signal and multiplier moduli must match")
    return CyclicSignal(f.modulus,
                        np.fft.ifft(np.fft.fft(f.values) * m.samples))


class Annulus(NamedTuple):
    s: int
    k: float


Selector = Union[str, Annulus]


class GridArcs(NamedTuple):
    """Arc data of every frequency j/M of a grid, indexed by j."""

    major: np.ndarray  # classify_arc(j/M).is_major
    s: np.ndarray      # level of the admitting fraction; -1 on Minor
    k: np.ndarray      # annulus_label(j/M) on Major; nan on Minor
    dist: np.ndarray   # distance of {b_d j/M} to the nearest admitted a/q


def grid_arcs(P: IntPoly, params: ArcParams, M: int) -> GridArcs:
    """`classify_arc` and `annulus_label` at all j/M at once, exactly.

    With X = b_d j mod M, the torus distance of {b_d j/M} to a/q is
    min(r, qM - r)/(qM), r = (Xq - aM) mod qM, in int64: q < 2^10 (the
    Farey budget) and M <= 2^22 keep qM < 2^32, so the float quotient is
    the correctly rounded distance that classify_arc compares, under the
    same 2-ulp tie rule.  Admitted fractions lie more than 4^-(s_max+1)
    > 2w apart (s_max >= 1 forces n >= 8 as delta <= 1/8), so at most one
    is within w of a point: at its level, the nearer of the point's two
    neighbours in value order, found by bisection.
    """
    if params.degree != P.degree:
        raise ParameterError("params.degree must match the polynomial degree")
    M = check_modulus(M)
    w = params.width
    if w >= 1.0 / (2 * P.leading):
        raise ParameterError(
            "scale too small for distinct pre-intervals; increase n")
    farey_level(params.s_max)  # refuses an over-budget s_max before work
    X = np.arange(M, dtype=np.int64) * (P.leading % M) % M
    x = X / M
    tie = 2 * math.ulp(w)
    major = np.zeros(M, dtype=bool)
    s_of = np.full(M, -1, dtype=np.int64)
    k = np.full(M, np.nan)
    dist = np.full(M, np.inf)
    for s in range(params.s_max + 1):
        level = farey_level(s)
        a = np.array([fr.a for fr in level], dtype=np.int64)
        q = np.array([fr.q for fr in level], dtype=np.int64)
        right = np.searchsorted(a / q, x)
        near = np.full(M, np.inf)
        for c in ((right - 1) % len(level), right % len(level)):
            qM = q[c] * M
            r = (X * q[c] - a[c] * M) % qM
            np.minimum(near, np.minimum(r, qM - r) / qM, out=near)
        hit = (near < w) & (w - near > tie)
        major |= hit
        s_of[hit] = s
        d = near[hit]
        k[hit] = np.where(d == 0, np.inf, 1 - np.frexp(d)[1])
        np.minimum(dist, near, out=dist)
    return GridArcs(major, s_of, k, dist)


def arc_projection_multiplier(P: IntPoly, params: ArcParams,
                              selector: Selector, M: int) -> FrequencyMultiplier:
    """0/1 multiplier selecting Major, Minor, or a single annulus R_{s,k}.

    The Major and Minor indicators partition the grid; Annulus(s, k)
    refines Major (frequencies whose fraction sits at level s and whose
    distance shell index is k).
    """
    arcs = grid_arcs(P, params, M)
    if selector == ArcKind.MAJOR:
        hit = arcs.major
    elif selector == ArcKind.MINOR:
        hit = ~arcs.major
    elif isinstance(selector, Annulus):
        hit = arcs.major & (arcs.s == selector.s) & (arcs.k == selector.k)
    else:
        raise ParameterError(f"unknown selector {selector!r}")
    return FrequencyMultiplier(M, hit.astype(complex))


def variation_experiment(f: CyclicSignal, P: IntPoly,
                         scales: Sequence[int], r: float) -> float:
    """||V^r(K_N * f : N in scales)||_2 / ||f||_2 on Z/M.

    The averages are computed by diagonalization; the pointwise variation
    runs vectorized over all M spatial points.
    """
    scales = [int(N) for N in scales]
    if any(b <= a for a, b in zip(scales, scales[1:])) or not scales:
        raise ParameterError("scales must be non-empty and increasing")
    M = f.modulus
    check_dp_cells(M, len(scales))
    fhat = np.fft.fft(f.values)
    spatial = np.empty((M, len(scales)), dtype=complex)
    for idx, N in enumerate(scales):
        mult = average_multiplier(P, N, M)
        spatial[:, idx] = np.fft.ifft(fhat * mult)
    pointwise = variation_values(spatial, r)
    denom = f.norm()
    if denom == 0:
        raise ParameterError("signal must be non-zero")
    return float(np.linalg.norm(pointwise) / denom)
