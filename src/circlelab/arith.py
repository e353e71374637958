"""Integer polynomials, reduced rationals, arcs and congruence data.

Everything in here is exact: polynomials are evaluated with arbitrary-width
integers, fractions are `fractions.Fraction` under the hood, and arc
classification finds each point's nearest admitted fraction by continued
fractions, reduces its distance in integers and rounds it to a float once,
at the final comparison against the (irrational) arc width, where ties
within 2 ulp of the boundary are resolved toward Minor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ParameterError


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


class ReducedFraction(NamedTuple("ReducedFraction", [("a", int),
                                                       ("q", int)])):
    """a/q in lowest terms with 0 <= a < q; 0/1 stands for the point 0 == 1.

    Ordered as the tuple (a, q), not by value.
    """

    __slots__ = ()

    def __new__(cls, a: int, q: int):
        if q <= 0:
            raise ParameterError("denominator must be positive")
        if not 0 <= a < q:
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


def _torus_distances(X, D: int, a, q) -> np.ndarray:
    """Torus distance of every X/D in [0, 1) to its a/q in [0, 1],
    min(r, qD - r)/(qD) with r = |Xq - aD| <= qD, rounded once."""
    qD = q * D
    r = np.abs(X * q - a * D)
    return np.asarray(np.minimum(r, qD - r) / qD, dtype=float)


def arc_labels(P: IntPoly, params: ArcParams, k, D: int) -> ArcLabels:
    """Major/Minor labels and distance shells of every point alpha = k/D.

    k is a 1-D integer array, or a list of any ints, and D >= 1.  alpha
    is Major when {b_d alpha} lies within the width w of an admitted a/q,
    one with q <= Q = 2^(s_max+1) - 1; a distance within 2 ulp of w goes
    to Minor, so labels do not depend on float jitter.  With X = b_d k
    mod D, the admitted fraction nearest X/D is one of its two neighbours
    in the Farey sequence of order Q, which the continued fraction of X/D
    gives (Hardy-Wright, ch. 3 and 10): the last convergent p1/q1 with
    q1 <= Q and the semiconvergent (p0 + t p1)/(q0 + t q1), t = floor((Q
    - q0)/q1), where p0/q0 is the convergent before p1/q1.  The expansion
    runs on all points at once, one partial quotient a step, on the
    `_arc_dtype` path.  Each neighbour's distance is reduced in integers
    and rounded once; the nearer one is kept, and on an equal float the
    one of lower level, then the left one (1/1 is 0/1, of level 0).  On
    Major points (a, q) is the admitting fraction, and `shell` is the
    annulus index of the arc decomposition.
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
    Q = (2 << params.s_max) - 1
    dtype = _arc_dtype(Q, D, P.leading)
    if dtype == object or not isinstance(k, np.ndarray):
        k = np.array(k, dtype=object)  # Python ints, exact at any size
    X = (k % D).astype(dtype, copy=False) * (P.leading % D) % D
    n = len(X)
    # p1/q1 the last convergent, p0/q0 the one before (1/0 at the start),
    # and u/v the complete quotient of each point still expanding
    p0, q0 = np.ones(n, dtype), np.zeros(n, dtype)
    p1, q1 = np.zeros(n, dtype), np.ones(n, dtype)
    live = np.flatnonzero(X)
    u, v = np.full(len(live), D, dtype), X[live]
    while len(live):
        step = u // v
        q2 = step * q1[live] + q0[live]
        go = q2 <= Q
        live, step, q2, u, v = live[go], step[go], q2[go], u[go], v[go]
        p = p1[live]
        p0[live], p1[live] = p, step * p + p0[live]
        q0[live], q1[live] = q1[live], q2
        u, v = v, u - step * v
        go = v != 0  # X/D = p1/q1
        live, u, v = live[go], u[go], v[go]
    t = (Q - q0) // q1
    ps, qs = p0 + t * p1, q0 + t * q1
    dc = _torus_distances(X, D, p1, q1)
    ds = _torus_distances(X, D, ps, qs)
    semi = ds < dc
    # equal q: 0/1 and 1/1 at s_max 0, the same point
    tie = np.flatnonzero((ds == dc) & (qs != q1))
    if len(tie):
        lc, ls = (np.array([int(x).bit_length() for x in q[tie]])
                  for q in (q1, qs))
        left = ps[tie] * D < X[tie] * qs[tie]  # ps/qs < X/D
        semi[tie] = (ls < lc) | ((ls == lc) & left)
    q = np.where(semi, qs, q1)
    a = np.where(semi, ps, p1)
    a[a == q] = 0  # 1/1
    dist = np.where(semi, ds, dc)
    major = (dist < w) & (w - dist > 2 * math.ulp(w))
    # dist = m 2^e with m in [1/2, 1) lies in [2^-l, 2^-l+1) for l = 1 - e
    shell = np.where(dist == 0, np.inf, 1 - np.frexp(dist)[1])
    return ArcLabels(major, dist, shell, a, q)


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
