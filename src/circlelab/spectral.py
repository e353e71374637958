"""Cyclic-group l^2 laboratory: average multipliers and their variation.

Z/M is used as an exactly-diagonalizable proxy for l^2(Z): the averaging
operator K_N wraps around cyclically, so its Fourier multiplier at
frequency j/M is exactly the conjugated Weyl sum, and everything can be
cross-checked to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import IntPoly
from .errors import ParameterError
from .expsum import DIRECT_SUM_BUDGET, check_count, residue_counts
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


def average_multiplier(P: IntPoly, N: int, M: int) -> np.ndarray:
    """Fourier multiplier of K_N on Z/M: conj(weyl_sum(P, N, j/M)) at entry j.

    Computed through the exact hit counts of P(n) mod M, whose DFT gives
    all M frequencies at once.
    """
    counts = residue_counts(
        P.coeffs, check_count(N, "N", DIRECT_SUM_BUDGET, "direct-summation"),
        check_count(M, "modulus M", DIRECT_SUM_BUDGET, "direct-summation"))
    # fft gives sum_y c_y e(-jy/M); the multiplier is its conjugate / N
    return np.conj(np.fft.fft(counts)) / N


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
        check_count(N, "N", DIRECT_SUM_BUDGET, "direct-summation")
    denom = f.norm()
    if denom == 0:
        raise ParameterError("signal must be non-zero")
    return multiplier_variation(
        np.fft.fft(f.values),
        lambda k: average_multiplier(P, scales[k], M), len(scales), r) / denom
