"""Cyclic-group l^2 laboratory: DFTs, polynomial averages, arc projections.

Z/M is used as an exactly-diagonalizable proxy for l^2(Z): the averaging
operator K_N wraps around cyclically, so its Fourier multiplier at
frequency j/M is exactly the conjugated Weyl sum, and everything can be
cross-checked to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .arith import (ArcKind, ArcParams, IntPoly, annulus_label, classify_arc,
                    eval_poly)
from .errors import ParameterError
from .varnorm import variation_values


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
    counts = np.zeros(M, dtype=float)
    for n in range(1, N + 1):
        counts[eval_poly(P, n) % M] += 1.0
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


def _grid_labels(P: IntPoly, params: ArcParams, M: int):
    labels = []
    for j in range(M):
        lab = classify_arc(Fraction(j, M), P, params)
        ann = annulus_label(Fraction(j, M), P, params, lab) if lab.is_major \
            else None
        labels.append((lab, ann))
    return labels


def arc_projection_multiplier(P: IntPoly, params: ArcParams,
                              selector: Selector, M: int) -> FrequencyMultiplier:
    """0/1 multiplier selecting Major, Minor, or a single annulus R_{s,k}.

    The Major and Minor indicators partition the grid; Annulus(s, k)
    refines Major (frequencies whose fraction sits at level s and whose
    distance shell index is k).
    """
    labels = _grid_labels(P, params, M)
    out = np.zeros(M, dtype=complex)
    for j, (lab, ann) in enumerate(labels):
        if selector == ArcKind.MAJOR:
            hit = lab.is_major
        elif selector == ArcKind.MINOR:
            hit = not lab.is_major
        elif isinstance(selector, Annulus):
            hit = lab.is_major and lab.s == selector.s and ann == selector.k
        else:
            raise ParameterError(f"unknown selector {selector!r}")
        if hit:
            out[j] = 1.0
    return FrequencyMultiplier(M, out)


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
