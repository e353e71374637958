"""Cyclic-group l^2 laboratory: average multipliers and their variation.

Z/M is used as an exactly-diagonalizable proxy for l^2(Z): the averaging
operator K_N wraps around cyclically, so its Fourier multiplier at
frequency j/M is exactly the conjugated Weyl sum, and everything can be
cross-checked to machine precision.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .arith import IntPoly
from .errors import LENGTH_BUDGET, ParameterError
from .expsum import _e_pos, check_count, residue_counts
from .varnorm import check_dp_cells, check_r, variation_values


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


def _complex_normal(rng: np.random.Generator, M: int) -> np.ndarray:
    """M standard complex Gaussians: real parts drawn first, then imaginary.

    Bitwise `rng.standard_normal(M) + 1j * rng.standard_normal(M)`, with
    the generator left in the same state, but written into one array.
    """
    z = np.empty(M, dtype=complex)
    z.real = rng.standard_normal(M)
    z.imag = rng.standard_normal(M)
    return z


def average_multipliers(P: IntPoly, Ns: Sequence[int], M: int) -> np.ndarray:
    """(S, M) stack of the Fourier multipliers of K_N on Z/M, N in Ns.

    Row k, entry j is conj(weyl_sum(P, Ns[k], j/M)), computed through the
    exact hit counts of P(n) mod M, whose DFT gives all M frequencies at
    once.  Every N and M are checked before the stack is allocated; the
    stack is transformed, conjugated and scaled in place.
    """
    M = check_count(M, "modulus M", LENGTH_BUDGET)
    Ns = [check_count(N, "N", LENGTH_BUDGET, "the scales") for N in Ns]
    m = np.empty((len(Ns), M), dtype=complex)
    for row, N in zip(m, Ns):
        row[:] = residue_counts(P.coeffs, N, M)
    # fft gives sum_y c_y e(-jy/M); the multiplier is its conjugate / N
    np.fft.fft(m, axis=1, out=m)
    np.conjugate(m, out=m)
    for row, N in zip(m, Ns):
        row /= N
    return m


# the most points of Z/M that one projection's inverse FFT folds into a
# twiddle: the decimation factor Q is gcd(M, DECIMATION)
DECIMATION = 64


class Projections(NamedTuple):
    """An (S, M) stack of 0/1 frequency masks, kept on its support.

    With Q = gcd(M, DECIMATION) and K = M/Q, the point x = x0 + Q m of
    ifft(fhat * mask) is the length-K inverse FFT, at m, of the sums over
    the mask's xi = rho mod K of fhat[xi] e(xi x0 / M) / Q.
    """
    shape: tuple           # (S, M)
    Q: int
    support: np.ndarray    # (U,) the union of the rows' supports
    twiddles: np.ndarray   # (Q, U): e(xi x0 / M) / Q at xi = support
    take: np.ndarray       # (E,) each term's place in twiddles' flat view
    index: np.ndarray      # (E,) its place in the flat (S, Q, K) stack


def projections(masks: np.ndarray) -> Projections:
    """The `Projections` of an (S, M) boolean stack, for
    `multiplier_variation`: a term for each row, x0 < Q and xi of the
    row's support, added into x0 K + (xi mod K) of the row; terms that
    meet there are added in increasing xi."""
    S, M = masks.shape
    Q = math.gcd(M, DECIMATION)
    K = M // Q
    rows, xi = np.nonzero(masks)
    support, pos = np.unique(xi, return_inverse=True)
    x0 = np.arange(Q)[:, None]
    # exact integer phases (xi x0 mod M) / M, each rounded once
    twiddles = _e_pos(x0 * support % M / M)
    twiddles /= Q
    take = (x0 * len(support) + pos).reshape(-1)
    index = (x0 * K + (rows * M + xi % K)).reshape(-1)
    return Projections((S, M), Q, support, twiddles, take, index)


def multiplier_variation(fhat: np.ndarray, mults, r: float,
                         out: np.ndarray) -> float:
    """||V^r(ifft(fhat * mults[k]) : k < S)||_2 on Z/M, DP cells checked first.

    `mults` is an (S, M) stack, or the `Projections` of a 0/1 one.  The
    products, or the projections' scattered terms, and one inverse FFT
    over all rows run in `out`, a C-ordered (S, M) complex array that may
    be a dense `mults` itself.  A row's point x0 + Q m lands in column
    x0 K + m (Q = 1 for a dense stack); the DP reads the columns as they
    are, and the pointwise V^r and its norm do not depend on their order.
    `fhat * m`, never `m * fhat`: the two can differ in the last bit.
    """
    S, M = mults.shape
    check_dp_cells(M, S, "the modulus or the number of multipliers")
    if isinstance(mults, Projections):
        Q = mults.Q
        out.fill(0)
        terms = fhat[mults.support] * mults.twiddles
        np.add.at(out.reshape(-1), mults.index, terms.reshape(-1)[mults.take])
    else:
        Q = 1
        np.multiply(fhat, mults, out=out)
    rows = out.reshape(S, Q, M // Q)
    np.fft.ifft(rows, axis=-1, out=rows)
    return _pairwise_norm(variation_values(out.T, r))


def variation_experiment(f: np.ndarray, P: IntPoly,
                         scales: Sequence[int], r: float) -> float:
    """||V^r(K_N * f : N in scales)||_2 / ||f||_2 on Z/M.

    f is the signal on Z/M, a 1-D complex array of length M.  The
    averages are computed by diagonalization; the pointwise variation
    runs vectorized over all M spatial points.  The signal (non-empty,
    finite, non-zero), r and every scale are checked before the first FFT.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise ParameterError("signal must be a 1-D array")
    M = check_count(len(f), "modulus M", LENGTH_BUDGET)
    if not np.isfinite(f).all():
        raise ParameterError("signal must be finite")
    check_r(r)
    scales = [int(N) for N in scales]
    if any(b <= a for a, b in zip(scales, scales[1:])) or not scales:
        raise ParameterError("scales must be non-empty and increasing")
    check_dp_cells(M, len(scales), "the modulus or the number of scales")
    for N in (scales[0], scales[-1]):
        check_count(N, "N", LENGTH_BUDGET, "the scales")
    denom = _pairwise_norm(f)
    if denom == 0:
        raise ParameterError("signal must be non-zero")
    fhat = np.fft.fft(f)
    mults = average_multipliers(P, scales, M)
    return multiplier_variation(fhat, mults, r, mults) / denom
