"""Multiplier-side objects: Weyl sums, Gauss weights, oscillatory integrals.

Phase arithmetic is exact: alpha is treated as the exact rational it is
(floats are dyadic rationals), and alpha * P(n) is reduced mod 1 with
integer arithmetic before ever touching floating point, so normalized
sums are correct to machine precision even when P(n) is huge.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .arith import IntPoly, ReducedFraction, congruence_data, fractions_near
from .errors import NumericError, ParameterError, ResourceError

RealLike = Union[int, float, Fraction]

# vt: switch from panel quadrature to the closed form above this many cycles
_VT_PERIOD_BUDGET = 2000.0
# the most terms or frequencies one direct evaluation may take: the tail
# that fast_dyadic_quadratic_weyl sums term by term (~0.4 us a term on
# the object-array path, m > 64), and in `spectral` the modulus M (arrays
# of length M; q * M < 2^32 in grid_arcs) and the average length N
DIRECT_SUM_BUDGET = 1 << 22
# weyl_sum / weyl_sum_prefix: most terms one call may ask for, checked
# before any work (a 2^28-term prefix is a 4 GB array); it also keeps
# n < 2^31, which the int64 phase kernel needs
PHASE_TERM_BUDGET = 1 << 28
# phases are produced and consumed in chunks of this many terms
_PHASE_CHUNK = 1 << 16
_SQUARES = IntPoly([0, 0, 1])


def _check_terms(t: int, name: str) -> int:
    """t as an int, refused unless 1 <= t <= PHASE_TERM_BUDGET."""
    t = int(t)
    if t < 1:
        raise ParameterError(f"{name} must be a positive integer")
    if t > PHASE_TERM_BUDGET:
        raise ResourceError(
            f"{name}={t} exceeds the phase-term budget {PHASE_TERM_BUDGET}; "
            f"lower {name}")
    return t


def _residue_chunks(coeffs, t: int, den: int) -> Iterator[np.ndarray]:
    """Q(n) mod den for n = 1..t, Q(n) = sum_j coeffs[j] n^j, in chunks.

    The coefficients are any Python ints (the leading one may vanish mod
    den).  Horner runs in uint64 with wraparound and a mask for den = 2^e,
    e <= 64, mod den in int64 for other den < 2^31 (callers keep
    t <= PHASE_TERM_BUDGET < 2^31, so every product stays below 2^62), and
    mod den on Python ints in an object array for any other den.
    """
    if den & (den - 1) == 0 and den <= 1 << 64:
        # uint64 products wrap mod 2^64, and mod den = 2^e factors through it
        dtype = np.uint64
        mask = np.uint64(den - 1)

        def reduce(acc):
            np.bitwise_and(acc, mask, out=acc)
    else:
        dtype = np.int64 if den < 1 << 31 else object

        def reduce(acc):
            np.remainder(acc, den, out=acc)
    cs = np.array([c % den for c in reversed(coeffs)], dtype=dtype)

    def horner(start: int) -> np.ndarray:
        n = np.arange(start, min(start + _PHASE_CHUNK, t + 1), dtype=dtype)
        acc = np.full(len(n), cs[0], dtype=dtype)
        for c in cs[1:]:
            acc *= n
            acc += c
            reduce(acc)
        return acc

    return map(horner, range(1, t + 1, _PHASE_CHUNK))


def residue_counts(coeffs, t: int, q: int) -> np.ndarray:
    """How often Q(n) = sum_j coeffs[j] n^j hits each residue mod q, n = 1..t.

    Both t and q must fit PHASE_TERM_BUDGET, which keeps q < 2^31.
    """
    t, q = _check_terms(t, "t"), _check_terms(q, "q")
    counts = np.zeros(q, dtype=np.int64)
    for r in _residue_chunks(coeffs, t, q):
        counts += np.bincount(r.astype(np.intp), minlength=q)
    return counts


def _phase_chunks(P: IntPoly, t: int, alpha: RealLike) -> Iterator[np.ndarray]:
    """frac(alpha * P(n)) for n = 1..t, reduced exactly, in chunks.

    alpha = num/den is read as the exact rational it is, num * P(n) is
    reduced mod den by `_residue_chunks`, and each residue r becomes r/den
    correctly rounded.
    """
    a = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    num, den = a.numerator, a.denominator
    for r in _residue_chunks([num * c for c in P.coeffs], t, den):
        # Python ints divide correctly rounded; on uint64 a power-of-two den
        # scales the correctly rounded float(r) exactly, and on int64 r and
        # den < 2^31 are exact floats, so one rounding
        yield (r / den).astype(float, copy=False)


def _esum(phase_chunks) -> complex:
    """sum e(-ph) over every phase of every chunk."""
    total = 0.0 + 0.0j
    for ph in phase_chunks:
        total += complex(np.exp(-2j * math.pi * ph).sum())
    return total


def weyl_sum(P: IntPoly, t: int, alpha: RealLike) -> complex:
    """The normalized exponential sum (1/t) sum_{n=1}^t e(-alpha P(n))."""
    t = _check_terms(t, "t")
    return _esum(_phase_chunks(P, t, alpha)) / t


def weyl_sum_prefix(P: IntPoly, t_max: int, alpha: RealLike) -> np.ndarray:
    """All K_hat_t for t = 1..t_max at once (index t-1), via one phase pass."""
    t_max = _check_terms(t_max, "t_max")
    sums = np.empty(t_max, dtype=complex)
    start = 0
    for ph in _phase_chunks(P, t_max, alpha):
        np.exp(-2j * math.pi * ph, out=sums[start:start + len(ph)])
        start += len(ph)
    np.cumsum(sums, out=sums)
    sums /= np.arange(1, t_max + 1)
    return sums


def gauss_weight(P: IntPoly, frac: ReducedFraction, i: int) -> complex:
    """Complete normalized sum S_P^i(a/q) over residues mod q_i.

    For monic quadratic P this reduces to (1/q) sum_r e(-a r^2 / q).  A
    q_i above PHASE_TERM_BUDGET is refused before any work.
    """
    cd = congruence_data(P, frac, i)
    qi = _check_terms(cd.q_i, "q_i")
    # phases are a_d r^d + ... + a_1 r, no constant term
    coeffs = (0,) + cd.numerators[::-1]
    return _esum(r / qi for r in _residue_chunks(coeffs, qi, qi)) / qi


def quadratic_gauss_row(q: int) -> np.ndarray:
    """S(a/q) = (1/q) sum_r e(-a r^2/q) for every a = 0..q-1, via one DFT.

    The sum depends only on the counts of r^2 mod q, and evaluating the
    count vector at all a at once is exactly a length-q DFT.
    """
    return np.fft.fft(residue_counts((0, 0, 1), q, q)) / q


def _vt_quadrature(cycles: float, d: int, tol: float = 1e-10) -> complex:
    """Panel Gauss-Legendre quadrature of int_0^1 e(-cycles s^d) ds.

    Panels resolve the oscillation (>= 8 per period) and the result is
    accepted once doubling the panel count moves it by less than tol.
    """
    nodes, weights = np.polynomial.legendre.leggauss(12)

    def compute(panels: int) -> complex:
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1] - edges[0])
        s = mid + half * nodes[None, :]
        vals = np.exp(-2j * math.pi * cycles * s ** d)
        return complex((vals * weights[None, :]).sum() * half)

    panels = max(8, int(8 * abs(cycles)) + 8)
    prev = compute(panels)
    for _ in range(4):
        panels *= 2
        cur = compute(panels)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise NumericError(
        f"oscillatory quadrature failed to converge (cycles={cycles})")


def _vt_closed_form(cycles: float, d: int) -> complex:
    """Closed-form evaluation for strongly oscillatory arguments.

    d = 1 integrates directly, d = 2 goes through Fresnel integrals, and
    general d through the lower incomplete gamma function along the
    imaginary axis.
    """
    if cycles < 0:
        return _vt_closed_form(-cycles, d).conjugate()
    if d == 1:
        # (1 - e(-c)) / (2 pi i c)
        return (1.0 - cmath.exp(-2j * math.pi * cycles)) / (2j * math.pi * cycles)
    if d == 2:
        from scipy.special import fresnel
        z = 2.0 * math.sqrt(cycles)
        s, c = fresnel(z)
        return complex(c, -s) / z
    import mpmath as mp
    with mp.workdps(30):
        a = 2 * mp.pi * cycles
        g = mp.gammainc(mp.mpf(1) / d, 0, 1j * a)
        val = g * a ** (-mp.mpf(1) / d) * mp.exp(-1j * mp.pi / (2 * d)) / d
    return complex(val)


def vt(beta: float, t: float, d: int) -> complex:
    """The oscillatory pseudo-projection v_t(beta) = int_0^1 e(-beta t^d s^d) ds.

    Adaptive panel quadrature below a cycle budget; beyond it the exact
    closed form takes over (the two paths agree to 1e-9 where they overlap,
    see the test suite).
    """
    if d < 1:
        raise ParameterError("d must be >= 1")
    cycles = float(beta) * float(t) ** d
    if cycles == 0.0:
        return 1.0 + 0.0j
    if abs(cycles) <= _VT_PERIOD_BUDGET:
        return _vt_quadrature(cycles, d)
    return _vt_closed_form(cycles, d)


def smooth_cutoff_eval(x: float) -> float:
    """Smooth bump: 1 on [-0.1, 0.1], 0 outside [-0.2, 0.2].

    The ramp is the standard C^infinity partition-of-unity profile built
    from exp(-1/u).
    """
    u = (abs(float(x)) - 0.1) / 0.1
    if u <= 0.0:
        return 1.0
    if u >= 1.0:
        return 0.0
    h0 = math.exp(-1.0 / (1.0 - u))
    h1 = math.exp(-1.0 / u)
    return h0 / (h0 + h1)


def approx_multiplier(P: IntPoly, t: float, alpha: RealLike, s_max: int) -> complex:
    """The circle-method approximant L_hat_t(alpha), truncated at level s_max.

    L_hat_t = sum_{s <= s_max} sum_{a/q in R_s} S_P^i(a/q) v_t(x - a/q)
    phi(10^s (x - a/q)) with x = {b_d alpha}; only fractions inside the
    cutoff support (distance <= 0.2 * 10^-s) can contribute.
    """
    if s_max < 0:
        raise ParameterError("s_max must be non-negative")
    a = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    a -= math.floor(a)
    bd = P.leading
    i = min(int(math.floor(bd * a)), bd - 1)
    x = bd * a
    x -= math.floor(x)
    total = 0.0 + 0.0j
    for s in range(s_max + 1):
        radius = 0.2 * 10.0 ** (-s)
        for fr in fractions_near(s, x, radius):
            diff = x - fr.value
            # signed representative of the torus difference
            if diff > Fraction(1, 2):
                diff -= 1
            elif diff < Fraction(-1, 2):
                diff += 1
            beta = float(diff)
            total += (gauss_weight(P, fr, i)
                      * vt(beta, t, P.degree)
                      * smooth_cutoff_eval(10.0 ** s * beta))
    return complex(total)


def complete_dyadic_gauss(m: int) -> complex:
    """The complete sum sum_{n=1}^{2^m} e(n^2 / 2^m), in closed form.

    m = 0 -> 1; m = 1 -> 0; even m >= 2 -> 2^(m/2) (1+i);
    odd m >= 3 -> 2^((m+1)/2) e(1/8).
    """
    if m < 0:
        raise ParameterError("m must be non-negative")
    if m == 0:
        return 1.0 + 0.0j
    if m == 1:
        return 0.0 + 0.0j
    if m % 2 == 0:
        return 2.0 ** (m // 2) * (1.0 + 1.0j)
    return 2.0 ** ((m + 1) // 2) * cmath.exp(1j * math.pi / 4.0)


def fast_dyadic_quadratic_weyl(k: int, R: int, N: int) -> complex:
    """(1/N) sum_{n=1}^N e(2^(k-R) n^2), exactly, exploiting periodicity.

    The summand has period 2^(R-k) in n: full periods contribute the
    closed-form complete Gauss sum, and the remaining tail (which must fit
    the direct-summation budget) is summed outright.
    """
    if not 0 <= k <= R:
        raise ParameterError("need 0 <= k <= R")
    if N < 1:
        raise ParameterError("N must be a positive integer")
    m = R - k
    if m == 0:
        return 1.0 + 0.0j
    period = 1 << m
    full, tail = divmod(N, period)
    if tail > DIRECT_SUM_BUDGET:
        raise ResourceError(
            f"tail of length {tail} exceeds the direct-summation budget "
            f"{DIRECT_SUM_BUDGET}; lower N mod 2^(R-k)")
    total = 0.0 + 0.0j
    if full:
        total += float(Fraction(full * period, N)) * \
            (complete_dyadic_gauss(m) / period)
    if tail:
        # sum_{n <= tail} e(n^2 / 2^m) is tail * conj(weyl_sum) at 1/2^m
        total += (weyl_sum(_SQUARES, tail, Fraction(1, period)).conjugate()
                  * float(Fraction(tail, N)))
    return complex(total)
