"""Integer polynomials, reduced rationals, Farey-level exhaustions and arcs.

Everything in here is exact: polynomials are evaluated with arbitrary-width
integers, fractions are `fractions.Fraction` under the hood, and arc
classification reduces every distance in integers and rounds it to a float
once, at the final comparison against the (irrational) arc width, where
ties within 2 ulp of the boundary are resolved toward Minor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ResourceError

# farey_level: largest size bound 4^s of a level we build (so s <= 9 and
# q < 2^10; the cost grows about 4x a level, and level 9 takes seconds
# already)
FAREY_LEVEL_BUDGET = 1 << 18


class IntPoly(NamedTuple("IntPoly", [("coeffs", tuple)])):
    """P(n) = b_d n^d + ... + b_1 n + b_0 with integer b_j and b_d > 0;
    coeffs = (b_0, b_1, ..., b_d)."""

    __slots__ = ()

    def __new__(cls, coeffs):
        cs = tuple(int(c) for c in coeffs)
        if len(cs) < 2:
            raise ParameterError("polynomial must have degree >= 1")
        if cs[-1] <= 0:
            raise ParameterError("leading coefficient must be positive")
        return super().__new__(cls, cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, n: int) -> int:
        return eval_poly(self, n)


def eval_poly(P: IntPoly, n: int) -> int:
    """Exact evaluation of P at an integer (Horner, arbitrary width)."""
    n = int(n)
    acc = 0
    for c in reversed(P.coeffs):
        acc = acc * n + c
    return acc


class ReducedFraction(NamedTuple("ReducedFraction", [("a", int),
                                                       ("q", int)])):
    """a/q in lowest terms with 0 <= a < q; 0/1 stands for the point 0 == 1.

    Ordered as the tuple (a, q), not by value.
    """

    __slots__ = ()

    def __new__(cls, a: int, q: int):
        if q <= 0:
            raise ParameterError("denominator must be positive")
        if not (0 <= a < q) and not (a == 0 and q == 1):
            raise ParameterError("numerator must satisfy 0 <= a < q")
        if math.gcd(a, q) != 1:
            raise ParameterError(f"{a}/{q} is not reduced")
        return super().__new__(cls, a, q)

    @classmethod
    def make(cls, a: int, q: int) -> "ReducedFraction":
        """Reduce and wrap a/q onto the torus (1/1 collapses to 0/1)."""
        if q == 0:
            raise ParameterError("denominator must be nonzero")
        fr = Fraction(a, q)
        fr -= math.floor(fr)
        return cls(fr.numerator, fr.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def level(self) -> int:
        """The Farey level s with q in [2^s, 2^(s+1))."""
        return self.q.bit_length() - 1

    def __str__(self) -> str:
        return f"{self.a}/{self.q}"


ZERO_FRACTION = ReducedFraction(0, 1)


@lru_cache(maxsize=None)
def farey_level(s: int) -> tuple:
    """All reduced a/q with q in [2^s, 2^(s+1)); level 0 is just {0/1}.

    Returned sorted by value so callers can bisect for neighbours.  A level
    whose size bound 4^s exceeds FAREY_LEVEL_BUDGET is refused.
    """
    if s < 0:
        raise ParameterError("level must be non-negative")
    if 4 ** s > FAREY_LEVEL_BUDGET:
        raise ResourceError(
            f"Farey level {s} may hold up to 4^{s} fractions, over the "
            f"budget {FAREY_LEVEL_BUDGET}; lower n * delta")
    if s == 0:
        return (ZERO_FRACTION,)
    out = []
    for q in range(1 << s, 1 << (s + 1)):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                out.append(ReducedFraction(a, q))
    # level fractions lie over 4^-(s+1) apart, far above the rounding of
    # a / q, so the float key sorts them exactly as their values
    out.sort(key=lambda fr: fr.a / fr.q)
    return tuple(out)


class ArcParams(NamedTuple("ArcParams", [("n", int), ("delta", float),
                                           ("degree", int)])):
    """Scale exponent n (t ~ 2^n), the width parameter delta, and deg P."""

    __slots__ = ()

    def __new__(cls, n: int, delta: float, degree: int):
        if n < 1:
            raise ParameterError("scale exponent n must be positive")
        if not (0 < delta <= 0.125):
            raise ParameterError("delta must lie in (0, 1/8]")
        if degree < 1:
            raise ParameterError("degree must be >= 1")
        # below 2^-1022 the width is subnormal or 0 and labels go wrong; as
        # d - delta >= 7/8, capping n at 2048 refuses the same n and keeps
        # a huge n from overflowing the float product
        if min(n, 2048) * (degree - delta) > 1022:
            raise ParameterError(
                f"n={n} puts the arc width 2^-n(d-delta) below "
                f"2^-1022; lower n")
        return super().__new__(cls, n, delta, degree)

    @property
    def width(self) -> float:
        """Arc half-width 2^(-n(d - delta))."""
        return 2.0 ** (-self.n * (self.degree - self.delta))

    @property
    def s_max(self) -> int:
        """Largest admitted Farey level, floor(n * delta)."""
        return int(math.floor(self.n * self.delta))

    @property
    def critical_annulus_index(self) -> float:
        """The distance index l_n = n d / 2 where the two decay regimes meet."""
        return self.n * self.degree / 2.0


class ArcLabels(NamedTuple):
    """Arc data of points k/D, indexed like k."""

    major: np.ndarray  # the point lies on a Major arc
    dist: np.ndarray   # distance of {b_d k/D} to the nearest admitted a/q
    shell: np.ndarray  # least l with 2^-l <= dist; inf where dist is 0
    a: np.ndarray      # that nearest a/q, the admitting one on Major points
    q: np.ndarray


def _arc_dtype(q_max: int, D: int, bd: int) -> np.dtype:
    """The dtype `arc_labels` reduces in: int64 when every product fits
    and every distance is a quotient of two exact floats, else Python ints.

    int64 needs q_max D <= 2^53 (X q, a D and q D, and so the distance's
    numerator and denominator, are exact floats) and (D - 1)(b_d mod D)
    < 2^63 (the product before X = b_d k mod D).  On Python ints an int/int
    division is correctly rounded.
    """
    if q_max * D <= 1 << 53 and (D - 1) * (bd % D) < 1 << 63:
        return np.dtype(np.int64)
    return np.dtype(object)


def arc_labels(P: IntPoly, params: ArcParams, k, D: int) -> ArcLabels:
    """Major/Minor labels and distance shells of every point alpha = k/D.

    k is a 1-D integer array, or a list of any ints, and D >= 1.  alpha
    is Major when {b_d alpha} lies within the width w of an admitted a/q,
    of a level s <= floor(n delta); a distance within 2 ulp of w goes to
    Minor, so labels do not depend on float jitter.  With X = b_d k mod D,
    the torus distance of {b_d alpha} to a/q is min(r, qD - r)/(qD),
    r = (Xq - aD) mod qD, computed on the `_arc_dtype` path and rounded
    once.  Admitted fractions lie more than 4^-(s_max+1) > 2w apart
    (s_max >= 1 forces n >= 8 as delta <= 1/8), so at most one is within
    w of a point: at its level, the nearer of the point's two neighbours
    in value order, found by bisection.  On Major points the nearest
    admitted fraction (a, q) is the admitting one, and `shell` is the
    annulus index of the arc decomposition.  Levels are built in order
    while a point is not yet Major, so a batch admitted low never asks
    for a level over the budget.
    """
    if params.degree != P.degree:
        raise ParameterError("params.degree must match the polynomial degree")
    D = int(D)
    if D < 1:
        raise ParameterError("denominator D must be >= 1")
    w = params.width
    if w >= 1.0 / (2 * P.leading):
        raise ParameterError(
            "scale too small for distinct pre-intervals; increase n")
    dtype = _arc_dtype((2 << params.s_max) - 1, D, P.leading)
    if dtype == object or not isinstance(k, np.ndarray):
        k = np.array(k, dtype=object)  # Python ints, exact at any size
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
        level = farey_level(s)
        a, q = np.array([(fr.a, fr.q) for fr in level]).T
        right = np.searchsorted(a / q, x)
        a, q = a.astype(dtype), q.astype(dtype)
        for c in ((right - 1) % len(level), right % len(level)):
            qD = q[c] * D
            r = (X * q[c] - a[c] * D) % qD
            near = np.asarray(np.minimum(r, qD - r) / qD, dtype=float)
            closer = near < dist
            dist[closer] = near[closer]
            near_a[closer] = a[c][closer]
            near_q[closer] = q[c][closer]
        major = (dist < w) & (w - dist > tie)
    # dist = m 2^e with m in [1/2, 1) lies in [2^-l, 2^-l+1) for l = 1 - e
    shell = np.where(dist == 0, np.inf, 1 - np.frexp(dist)[1])
    return ArcLabels(major, dist, shell, near_a, near_q)


class CongruenceData(NamedTuple):
    """Least common denominator q_i and numerators (a^i_d, ..., a^i_1)."""

    q_i: int
    numerators: tuple  # (a^i_d, a^i_{d-1}, ..., a^i_1)


def congruence_data(P: IntPoly, frac: ReducedFraction, i: int) -> CongruenceData:
    """Congruence data for the weight S_P^i(a/q), by exact rational arithmetic.

    The component list is (a/q, b_{d-1}/b_d (a/q + i), ..., b_1/b_d (a/q + i));
    q_i is the lcm of the reduced component denominators and the numerators
    are the components rescaled to that common denominator.  They share no
    factor with q_i: for each prime p | q_i some reduced component u/v has
    v carrying the full power of p in q_i, so p divides neither u nor q_i/v.
    """
    bd = P.leading
    if not 0 <= i < bd:
        raise ParameterError(f"pre-interval index {i} out of [0, {bd})")
    base = frac.value
    shifted = base + i
    comps = [base]
    for j in range(P.degree - 1, 0, -1):
        comps.append(Fraction(P.coeffs[j], bd) * shifted)
    q_i = 1
    for c in comps:
        q_i = q_i * c.denominator // math.gcd(q_i, c.denominator)
    nums = tuple(int(c * q_i) for c in comps)
    return CongruenceData(q_i, nums)
