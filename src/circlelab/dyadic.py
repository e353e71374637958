"""Dyadic quadratic Weyl sums (1/N) sum_{n<=N} e(n^2 / 2^m), in closed form.

Full periods take the complete Gauss sum; a tail of T < 2^m terms takes
Euler-Maclaurin (O(1)) or the square-root split (O(2^(m/2))), decided
from exponents, and any other tail is refused.  Its own module, so the
subcommands that never sum a dyadic tail do not load it.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ParameterError, ResourceError
from .expsum import _PHASE_CHUNK, _e_neg, _e_pos, _e_work


def dyadic_gauss_mean(m: int) -> complex:
    """The complete sum over a period, 2^-m sum_{n=1}^{2^m} e(n^2 / 2^m).

    In closed form: m = 0 -> 1; m = 1 -> 0; even m >= 2 -> 2^(-m/2) (1+i);
    odd m >= 3 -> 2^(-(m-1)/2) e(1/8), the complete sums 2^(m/2) (1+i)
    and 2^((m+1)/2) e(1/8) over 2^m.  The power of two goes into the
    exponent (math.ldexp): the mean is a float at every m (0 from m = 2150
    on, where it underflows), while 2^m is none from m = 1024 on.
    """
    if m < 0:
        raise ParameterError("m must be non-negative")
    if m == 0:
        return 1.0 + 0.0j
    if m == 1:
        return 0.0 + 0.0j
    z = 1.0 + 1.0j if m % 2 == 0 else complex(_e_pos(0.125))
    return complex(math.ldexp(z.real, -(m // 2)),
                   math.ldexp(z.imag, -(m // 2)))


# the Euler-Maclaurin form's gate: m >= 27 and a tail below 2^(m - 16),
# from its remainder (see `check_tail_regime`); the sqrt split's reach
_EM_MIN_M = 27
_EM_TAIL_GAP = 16
_SPLIT_MAX_M = 44
# pi * 2^256 rounded down: the fixed-point pi of `_fresnel_mean`'s series
_PI_FIXED = (0x3_243F6A88_85A308D3_13198A2E_03707344 << 128
             | 0xA4093822_299F31D0_082EFA98_EC4E6C89)
_FIXED_BITS = 256
# `_fresnel_mean` takes its asymptotic series from c = 2^_FRESNEL_SWITCH
# on, cut after _FRESNEL_TERMS terms
_FRESNEL_SWITCH = 3
_FRESNEL_TERMS = 12


def check_tail_regime(m: int, tail_bits: int) -> str:
    """How `fast_dyadic_quadratic_weyl` sums a tail of T terms of e(n^2/2^m),
    0 < T < 2^m, given tail_bits = T.bit_length(): "euler-maclaurin" or
    "split", or a ResourceError for a tail that no regime computes.
    Decided from exponents only.

    Euler-Maclaurin takes T < 2^(m-16), where f'(T) = 2T/2^m <= 2^-15, and
    m >= 27: past its three terms the remainder is within
    1.32 4^-m + 4.8 f'(T)^2 2^-m, about 1e-16 at m = 27 (at m = 17, T = 1
    it would be 4e-11).  The sqrt split takes any tail with m <= 44, in
    O(min(T, 2^(m/2))).  A tail neither takes has m > 44 and T >= 2^29,
    and is refused: no tail is summed term by term.
    """
    if m >= _EM_MIN_M and tail_bits <= m - _EM_TAIL_GAP:
        return "euler-maclaurin"
    if m <= _SPLIT_MAX_M:
        return "split"
    raise ResourceError(
        f"no regime computes a tail of length >= 2^{tail_bits - 1} "
        f"terms, at least 2^(R-k-16), at R-k > 44; lower R or N")


def _dyadic_frac(num: int, m: int) -> float:
    """frac(num / 2^m) correctly rounded, for num >= 0; 2^m is formed only
    when it is at most num, so m may have more digits than an int can."""
    b = num.bit_length()
    if b > m:
        num &= (1 << m) - 1
        b = num.bit_length()
    # an int over an int divides correctly rounded, and ldexp is exact
    # (or underflows to 0)
    return math.ldexp(num / (1 << b), b - m)


def _fresnel_mean(num: int, m: int) -> complex:
    """int_0^1 e(c s^2) ds at c = num / 2^m, num >= 0, within about 2e-17.

    Below c = 8 it sums sum_n (2 pi i c)^n / (n! (2n+1)) in 256-bit fixed
    point: the terms stay below 2^69 there, so the cancellation between
    them costs none of the bits a float keeps.  From c = 8 on it takes
    (1+i)/(4 sqrt c) - e(c) (y^2 G(y^2) + i y F(y^2)), y = 1/(4 pi c),
    with the asymptotic series of the Fresnel auxiliary functions
    F(u) = sum (-1)^n (4n-1)!! u^n and G(u) = sum (-1)^n (4n+1)!! u^n cut
    after 12 terms (below 1e-20 from c = 8).
    """
    if num.bit_length() <= m + _FRESNEL_SWITCH:
        x = (2 * _PI_FIXED * ((num << _FIXED_BITS) >> m)) >> _FIXED_BITS
        parts = [0, 0, 0, 0]  # the terms with n = 0, 1, 2, 3 mod 4
        t, n = 1 << _FIXED_BITS, 0
        while t:
            parts[n % 4] += t // (2 * n + 1)
            n += 1
            t = t * x // (n << _FIXED_BITS)
        one = 1 << _FIXED_BITS
        return complex((parts[0] - parts[2]) / one,
                       (parts[1] - parts[3]) / one)
    coeffs, f_n, g_n = [], 1, 1
    for n in range(_FRESNEL_TERMS):
        coeffs.append((f_n, g_n))
        f_n *= -(4 * n + 1) * (4 * n + 3)
        g_n *= -(4 * n + 3) * (4 * n + 5)
    inv_c = (1 << m) / num
    y = inv_c / (4.0 * math.pi)
    u = y * y
    F = G = 0.0
    for f_n, g_n in reversed(coeffs):
        F = F * u + f_n
        G = G * u + g_n
    half = math.sqrt(inv_c) / 4.0
    ec = complex(_e_pos(_dyadic_frac(num, m)))
    return complex(half, half) - ec * complex(u * G, y * F)


def _euler_maclaurin_mean(m: int, T: int) -> complex:
    """(1/T) sum_{n=1}^T e(n^2/2^m) by Euler-Maclaurin with g(t) =
    e(t^2/2^m): conj(int_0^1 e(-c s^2) ds) + (e(c) - 1)/(2T) + g'(T)/(12T),
    c = T^2/2^m, where g'(T)/(12T) = (pi i / 3) 2^-m e(c).  The odd
    derivatives of g vanish at 0, so no other boundary term appears."""
    sq = T * T
    ec = complex(_e_pos(_dyadic_frac(sq, m)))
    # 1/(2T) as an int quotient: T may be past the float range
    return (_fresnel_mean(sq, m) + (ec - 1.0) * (1 / (2 * T))
            + complex(0.0, math.ldexp(math.pi / 3.0, -m)) * ec)


def _sin_pi(r: np.ndarray, e: int) -> np.ndarray:
    """sin(pi r / 2^e) for int64 r >= 0 and e >= 1; r is reduced in
    integers first, so that sin sees an angle in [0, pi/2]."""
    r = r & ((2 << e) - 1)
    sign = np.where(r >= 1 << e, -1.0, 1.0)
    r &= (1 << e) - 1
    r = np.minimum(r, (1 << e) - r)
    return sign * np.sin(np.pi * (r / float(1 << e)))


def _split_sum(m: int, T: int) -> complex:
    """sum_{n=1}^T e(n^2/2^m) for 0 < T < 2^m <= 2^44, in O(min(T, 2^h)).

    n = 2^h u + v with h = ceil(m/2) and 0 <= v < 2^h, so n^2 = v^2 +
    2^(h+1) u v mod 2^m, and the K_v admissible u give a geometric sum in
    w = e(v / 2^(t-1)), t = floor(m/2): it is K_v where w = 1 and else
    e((K_v - 1) v / 2^t) sin(pi K_v v / 2^(t-1)) / sin(pi v / 2^(t-1)).
    Each phase is reduced in int64 (v, K_v <= 2^22 + 1) before it becomes
    a float.
    """
    h, t = (m + 1) // 2, m // 2
    U, V = divmod(T, 1 << h)
    count = min(1 << h, T + 1)  # the v with at least one u
    e = t - 1
    size = min(count, _PHASE_CHUNK)
    buf, work = np.empty(size, dtype=complex), _e_work(size)
    total = 0.0 + 0.0j
    for lo in range(0, count, _PHASE_CHUNK):
        v = np.arange(lo, min(lo + _PHASE_CHUNK, count), dtype=np.int64)
        K = U + (v <= V)
        num = v * v
        ratio = K.astype(float)
        if e >= 1:  # else w = 1 at every v
            turning = (v & ((1 << e) - 1)) != 0
            vt, Kt = v[turning], K[turning]
            ratio[turning] = _sin_pi(Kt * vt, e) / _sin_pi(vt, e)
            num[turning] += (((Kt - 1) * vt) & ((1 << t) - 1)) << h
        ph = (num & ((1 << m) - 1)) / float(1 << m)
        z = _e_neg(ph, buf[:len(v)], work)
        z *= ratio
        total += complex(z.sum())
    # _e_neg gives e(-ph); n = 0 (u = v = 0) is not in the sum
    return total.conjugate() - 1.0


def fast_dyadic_quadratic_weyl(k: int, R: int, N: int) -> complex:
    """(1/N) sum_{n=1}^N e(2^(k-R) n^2), exploiting periodicity.

    With m = R - k the summand has period 2^m in n: full periods give the
    closed-form `dyadic_gauss_mean(m)`, and the tail of N mod 2^m terms
    takes the first regime of `check_tail_regime` that admits it,
    Euler-Maclaurin in O(1) or the sqrt split in O(2^(m/2)), or is
    refused by it.  2^m is formed only when it is at most N.
    """
    # Python ints: a numpy int would wrap in 1 << m and has no bit_length
    k, R, N = map(operator.index, (k, R, N))
    if not 0 <= k <= R:
        raise ParameterError("need 0 <= k <= R")
    if N < 1:
        raise ParameterError("N must be a positive integer")
    m = R - k
    full, tail = divmod(N, 1 << m) if N.bit_length() > m else (0, N)
    total = 0.0 + 0.0j
    if full:  # an int over an int divides correctly rounded
        total += (N - tail) / N * dyadic_gauss_mean(m)
    if tail:
        regime = check_tail_regime(m, tail.bit_length())
        mean = (_euler_maclaurin_mean(m, tail) if regime == "euler-maclaurin"
                else _split_sum(m, tail) / tail)
        total += mean * (tail / N)
    return complex(total)
