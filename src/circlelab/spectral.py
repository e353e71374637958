"""Cyclic-group l^2 laboratory: average multipliers, grid arcs, variation.

Z/M is used as an exactly-diagonalizable proxy for l^2(Z): the averaging
operator K_N wraps around cyclically, so its Fourier multiplier at
frequency j/M is exactly the conjugated Weyl sum, and everything can be
cross-checked to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .arith import ArcParams, IntPoly, farey_level
from .errors import ParameterError, ResourceError
from .expsum import DIRECT_SUM_BUDGET, residue_counts
from .varnorm import check_dp_cells, check_r, variation_values


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
        return _pairwise_norm(self.values)


def _pairwise_norm(x: np.ndarray) -> float:
    """||x||_2, the square root of numpy's pairwise sum of squares.

    The sum runs over the float64 view (re, im interleaved for complex x)
    in numpy's fixed pairwise order, so its bits do not depend on a BLAS
    thread count and no BLAS thread is woken, as `np.linalg.norm`'s dot
    would.  Unscaled, like `np.linalg.norm`: a square that overflows
    gives inf.
    """
    v = np.ascontiguousarray(x).view(np.float64)
    with np.errstate(over="ignore"):
        return math.sqrt(np.sum(v * v))


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


def _check_length(N: int) -> int:
    """N, refused unless 1 <= N <= DIRECT_SUM_BUDGET."""
    if N < 1:
        raise ParameterError("N must be >= 1")
    if N > DIRECT_SUM_BUDGET:
        raise ResourceError(f"N={N} exceeds the direct-summation budget "
                            f"{DIRECT_SUM_BUDGET}; lower N")
    return N


def average_multiplier(P: IntPoly, N: int, M: int) -> np.ndarray:
    """Fourier multiplier of K_N on Z/M: conj(weyl_sum(P, N, j/M)) at entry j.

    Computed through the exact hit counts of P(n) mod M, whose DFT gives
    all M frequencies at once.
    """
    counts = residue_counts(P.coeffs, _check_length(N), check_modulus(M))
    # fft gives sum_y c_y e(-jy/M); the multiplier is its conjugate / N
    return np.conj(np.fft.fft(counts)) / N


class GridArcs(NamedTuple):
    """Arc data of every frequency j/M of a grid, indexed by j."""

    major: np.ndarray  # classify_arc(j/M).is_major
    dist: np.ndarray   # distance of {b_d j/M} to the nearest admitted a/q
    shell: np.ndarray  # least k with 2^-k <= dist; inf where dist is 0


def grid_arcs(P: IntPoly, params: ArcParams, M: int) -> GridArcs:
    """`classify_arc` and the dyadic distance shells at all j/M, exactly.

    With X = b_d j mod M, the torus distance of {b_d j/M} to a/q is
    min(r, qM - r)/(qM), r = (Xq - aM) mod qM, in int64: q < 2^10 (the
    Farey budget) and M <= 2^22 keep qM < 2^32, so the float quotient is
    the correctly rounded distance that classify_arc compares, under the
    same 2-ulp tie rule.  Admitted fractions lie more than 4^-(s_max+1)
    > 2w apart (s_max >= 1 forces n >= 8 as delta <= 1/8), so at most one
    is within w of a point: at its level, the nearer of the point's two
    neighbours in value order, found by bisection.  On Major points the
    nearest admitted fraction is the admitting one, so `shell` is the
    annulus index of the arc decomposition there.
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
        major |= (near < w) & (w - near > tie)
        np.minimum(dist, near, out=dist)
    # dist = m 2^e with m in [1/2, 1) lies in [2^-k, 2^-k+1) for k = 1 - e
    shell = np.where(dist == 0, np.inf, 1 - np.frexp(dist)[1])
    return GridArcs(major, dist, shell)


def multiplier_variation(fhat: np.ndarray, row, S: int, r: float) -> float:
    """||V^r(ifft(fhat * row(k)) : k < S)||_2 on Z/M, DP cells checked first.

    `fhat * m`, never `m * fhat`: the two can differ in the last bit.
    """
    check_dp_cells(len(fhat), S)
    stack = np.empty((S, len(fhat)), dtype=complex)
    for k in range(S):  # in place, one multiplier alive at a time
        np.multiply(fhat, row(k), out=stack[k])
        np.fft.ifft(stack[k], out=stack[k])
    return _pairwise_norm(variation_values(stack.T, r))


def variation_experiment(f: CyclicSignal, P: IntPoly,
                         scales: Sequence[int], r: float) -> float:
    """||V^r(K_N * f : N in scales)||_2 / ||f||_2 on Z/M.

    The averages are computed by diagonalization; the pointwise variation
    runs vectorized over all M spatial points.  r, every scale and the
    signal are checked before the first FFT.
    """
    check_r(r)
    scales = [int(N) for N in scales]
    if any(b <= a for a, b in zip(scales, scales[1:])) or not scales:
        raise ParameterError("scales must be non-empty and increasing")
    M = f.modulus
    check_dp_cells(M, len(scales))
    for N in (scales[0], scales[-1]):
        _check_length(N)
    denom = f.norm()
    if denom == 0:
        raise ParameterError("signal must be non-zero")
    return multiplier_variation(
        np.fft.fft(f.values),
        lambda k: average_multiplier(P, scales[k], M), len(scales), r) / denom
