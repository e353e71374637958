"""Exact arithmetic layer: polynomials, fractions, arcs, congruence data;
and the Farey-level oracles the arc kernel is checked against."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circlelab import (ArcParams, IntPoly, ParameterError, ReducedFraction,
                       arc_labels, congruence_data)
from circlelab.arith import _arc_dtype
from circlelab.cli import main
from oracles import (annulus_label, classify_arc, eval_poly, farey_level,
                     fractions_near, level_scan_labels, shell_index,
                     torus_distance)

SQUARES = IntPoly([0, 0, 1])
LINEAR = IntPoly([0, 1])


class TestPoly:
    def test_eval_examples(self):
        assert eval_poly(SQUARES, 7) == 49
        assert eval_poly(IntPoly([1, 2, 3]), 2) == 1 + 4 + 12
        assert eval_poly(IntPoly([0, -5, 0, 2]), 10) == 2000 - 50

    def test_huge_argument_exact(self):
        n = 10 ** 30
        assert eval_poly(SQUARES, n) == n * n

    def test_validation(self):
        with pytest.raises(ParameterError):
            IntPoly([3])  # constant
        with pytest.raises(ParameterError):
            IntPoly([0, 0, -1])  # negative leading


class TestFractions:
    def test_make_reduces_and_wraps(self):
        assert ReducedFraction.make(2, 4) == ReducedFraction(1, 2)
        assert ReducedFraction.make(5, 4) == ReducedFraction(1, 4)
        assert ReducedFraction.make(4, 4) == ReducedFraction(0, 1)
        assert ReducedFraction.make(-1, 3) == ReducedFraction(2, 3)

    def test_make_refuses_denominator_zero(self):
        with pytest.raises(ParameterError, match="nonzero"):
            ReducedFraction.make(1, 0)

    def test_level(self):
        assert ReducedFraction(0, 1).level == 0
        assert ReducedFraction(1, 2).level == 1
        assert ReducedFraction(1, 3).level == 1
        assert ReducedFraction(1, 4).level == 2

    def test_farey_level_zero(self):
        assert farey_level(0) == (ReducedFraction(0, 1),)

    def test_farey_level_one(self):
        assert set(farey_level(1)) == {ReducedFraction(1, 2),
                                       ReducedFraction(1, 3),
                                       ReducedFraction(2, 3)}

    @pytest.mark.parametrize("s", range(1, 9))
    def test_level_size_bound(self, s):
        level = farey_level(s)
        assert 0 < len(level) <= 4 ** s
        assert all(fr.level == s for fr in level)
        assert list(level) == sorted(level, key=lambda fr: fr.value)

    def test_levels_disjoint(self):
        seen = set()
        for s in range(6):
            cur = set(farey_level(s))
            assert not (cur & seen)
            seen |= cur

    def test_fractions_near_wraparound(self):
        near = fractions_near(1, Fraction(99, 100), 0.05)
        assert ReducedFraction(2, 3) not in near
        # 0.99 is within 0.05 of 1 == 0, but level 1 has no fraction at 0
        near0 = fractions_near(0, Fraction(99, 100), 0.05)
        assert near0 == [ReducedFraction(0, 1)]

    @given(s=st.integers(0, 5),
           x=st.one_of(st.fractions(0, 1).filter(lambda x: x < 1),
                       st.integers(0, 10 ** 6).map(
                           lambda k: Fraction(k, 10 ** 9)),
                       st.integers(1, 10 ** 6).map(
                           lambda k: 1 - Fraction(k, 10 ** 9))),
           u=st.one_of(st.floats(0, 1),
                       st.integers(0, 40).map(lambda e: 2.0 ** -e)))
    @settings(max_examples=300, deadline=None)
    def test_fractions_near_matches_scan(self, s, x, u):
        # every level-s fraction, kept by its exact torus distance to x
        radius = u * 2.0 ** -(s + 1)
        want = [fr for fr in farey_level(s)
                if torus_distance(x - fr.value) <= radius]
        assert fractions_near(s, x, radius) == want


def one_label(alpha, P, params):
    """arc_labels at the one point alpha, as (major, dist, shell, a, q)."""
    x = Fraction(alpha)
    arcs = arc_labels(P, params, [x.numerator], x.denominator)
    return tuple(v[0] for v in arcs)


def admitted(params):
    return [fr for s in range(params.s_max + 1) for fr in farey_level(s)]


def assert_matches_oracle(P, params, ks, D, arcs):
    """Every point k/D labelled as the per-point oracle labels it; dist is
    the correctly rounded distance to the nearest admitted fraction, and
    (a, q) is a fraction at that distance."""
    fracs = admitted(params)
    for i, k in enumerate(ks):
        alpha = Fraction(int(k), D)
        x = P.leading * alpha
        x -= math.floor(x)
        lab = classify_arc(alpha, P, params)
        assert arcs.major[i] == lab.is_major
        assert arcs.dist[i] == min(float(torus_distance(x - fr.value))
                                   for fr in fracs)
        a, q = int(arcs.a[i]), int(arcs.q[i])
        assert float(torus_distance(x - Fraction(a, q))) == arcs.dist[i]
        assert arcs.shell[i] == shell_index(arcs.dist[i])
        if lab.is_major:
            assert ReducedFraction(a, q) == lab.fraction
            assert arcs.shell[i] == annulus_label(alpha, P, params, lab)


class TestArcs:
    def test_zero_is_major(self):
        params = ArcParams(10, 0.05, 2)
        major, dist, shell, a, q = one_label(0, SQUARES, params)
        assert major and dist == 0 and shell == math.inf
        assert (a, q) == (0, 1)

    def test_near_one_third_major_when_level_admitted(self):
        # s_max = floor(n delta) must reach level 1 for 1/3 to be admitted
        params = ArcParams(20, 0.05, 2)
        assert params.s_max == 1
        alpha = Fraction(1, 3) + Fraction(1, 2 ** 45)
        major, dist, shell, a, q = one_label(alpha, SQUARES, params)
        assert major and (a, q) == (1, 3)
        assert dist == 2.0 ** -45 and shell == 45

    def test_one_third_minor_when_level_excluded(self):
        params = ArcParams(10, 0.05, 2)
        assert params.s_max == 0
        alpha = Fraction(1, 3) + Fraction(1, 2 ** 21)
        assert not one_label(alpha, SQUARES, params)[0]

    def test_generic_point_minor(self):
        params = ArcParams(10, 0.05, 2)
        assert not one_label(0.41, SQUARES, params)[0]

    def test_width_and_smax(self):
        params = ArcParams(10, 0.05, 2)
        assert params.width == pytest.approx(2.0 ** -19.5)
        assert params.s_max == 0
        assert params.critical_annulus_index == 10.0

    def test_pre_interval_with_larger_leading(self, capsys):
        P = IntPoly([0, 0, 3])  # b_2 = 3
        params = ArcParams(10, 0.05, 2)
        # {3 alpha} = 0 at alpha = 1/3, in the pre-interval [1/3, 2/3)
        assert one_label(Fraction(1, 3), P, params)[::3] == (True, 0)
        assert main(["arcs", "--poly", "0,0,3", "--alpha", "1/3",
                     "--n", "10"]) == 0
        value = json.loads(capsys.readouterr().out)["results"][0]["value"]
        assert value == {"kind": "major", "fraction": "0/1", "s": 0,
                         "pre_interval": 1}

    def test_boundary_tie_is_minor(self):
        params = ArcParams(10, 0.05, 2)
        w = params.width
        alpha = Fraction(w)  # distance to 0/1 exactly the width
        assert not one_label(alpha, SQUARES, params)[0]

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            ArcParams(10, 0.2, 2)
        with pytest.raises(ParameterError):
            ArcParams(10, 0.0, 2)

    @pytest.mark.parametrize("degree,delta", [
        (1, 0.125), (2, 0.001), (2, 0.125), (3, 0.05), (7, 1e-9)])
    def test_width_stays_a_normal_float(self, degree, delta):
        # the largest admitted n has a normal width; one more is refused
        n = 1
        while (n + 1) * (degree - delta) <= 1022:
            n += 1
        assert ArcParams(n, delta, degree).width >= sys.float_info.min
        with pytest.raises(ParameterError, match="lower n"):
            ArcParams(n + 1, delta, degree)

    @pytest.mark.parametrize("n", [537, 600,
                                   pytest.param(10 ** 400, id="10^400")])
    def test_underflowing_width_refused(self, n):
        # 5e-324 (subnormal) at n = 537 and 0.0 at n = 600 used to label
        # the point 0 Minor; an n past the float range is refused too
        with pytest.raises(ParameterError):
            ArcParams(n, 0.001, 2)

    def test_last_normal_width_labels_zero_major(self):
        params = ArcParams(511, 0.001, 2)
        assert one_label(0, SQUARES, params)[0]

    @given(st.floats(min_value=0, max_value=1, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_classification_deterministic_and_single(self, alpha):
        params = ArcParams(12, 0.1, 2)
        lab1 = one_label(alpha, SQUARES, params)
        assert one_label(alpha, SQUARES, params) == lab1
        major, dist, _, a, q = lab1
        assert major == classify_arc(alpha, SQUARES, params).is_major
        if major:
            exact = torus_distance(Fraction(alpha) - Fraction(a, q))
            assert float(exact) == dist < params.width


def draws_near(data, P, params, D, size):
    """k with k/D uniform or near (a/q + i)/b_d for admitted a/q, within a
    few widths, so both labels show up."""
    bd, w = P.leading, params.width
    fracs = admitted(params)
    ks = []
    for _ in range(size):
        if data.draw(st.booleans()):
            ks.append(data.draw(st.integers(0, D - 1)))
            continue
        fr = data.draw(st.sampled_from(fracs))
        i = data.draw(st.integers(0, bd - 1))
        centre = (fr.value + i) * D // bd
        spread = max(1, math.ceil(2 * w * D / bd))
        ks.append(centre + data.draw(st.integers(-spread, spread)))
    return ks


class TestArcLabels:
    """The vectorized kernel against the per-point `Fraction` oracle."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3),
           bd=st.one_of(st.integers(1, 1 << 12), st.integers(1000, 1050)),
           n=st.integers(1, 60), delta=st.floats(0.01, 0.125),
           data=st.data())
    @example(d=2, bd=1 << 10, n=20, delta=0.05, data=None)
    @example(d=2, bd=(1 << 10) + 1, n=20, delta=0.05, data=None)
    def test_est_draws(self, d, bd, n, delta, data):
        # est classifies its draws as k / 2^53; b_d >= 2^10 + 1 or s_max >=
        # 1 takes the object path
        P = IntPoly([0] * d + [bd])
        params = ArcParams(n, delta, d)
        assume(params.s_max <= 4 and params.width < 1.0 / (2 * bd))
        D = 1 << 53
        if data is None:
            ks = [0, 1, D - 1, D // 3, (D // bd) * 5 % D]
        else:
            ks = draws_near(data, P, params, D, 24)
        arcs = arc_labels(P, params, np.array(ks, dtype=np.int64), D)
        assert_matches_oracle(P, params, ks, D, arcs)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), bd=st.integers(1, 40),
           n=st.integers(1, 60), delta=st.floats(0.01, 0.125),
           D=st.one_of(st.integers(1, 1 << 200),
                       st.integers(0, 200).map(lambda e: 1 << e),
                       st.integers((1 << 52) - 9, (1 << 54) + 9)),
           data=st.data())
    def test_rationals(self, d, bd, n, delta, D, data):
        P = IntPoly([1] * d + [bd])
        params = ArcParams(n, delta, d)
        assume(params.s_max <= 4 and params.width < 1.0 / (2 * bd))
        ks = draws_near(data, P, params, D, 12)
        ks += data.draw(st.lists(st.integers(-(1 << 210), 1 << 210),
                                 max_size=4))
        assert_matches_oracle(P, params, ks, D,
                              arc_labels(P, params, ks, D))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), bd=st.integers(1, 40),
           n=st.integers(1, 60), delta=st.floats(0.01, 0.125),
           ulps=st.integers(-4, 4), sign=st.sampled_from([-1, 1]),
           data=st.data())
    @example(d=2, bd=1, n=10, delta=0.05, ulps=-2, sign=1, data=None)
    @example(d=2, bd=1, n=10, delta=0.05, ulps=-3, sign=-1, data=None)
    @example(d=2, bd=3, n=10, delta=0.05, ulps=0, sign=1, data=None)
    def test_within_a_few_ulp_of_the_width(self, d, bd, n, delta, ulps, sign,
                                           data):
        # distance w + ulps ulp(w) from an admitted a/q, exactly; at
        # w - 2 ulp(w), the tie bound itself, the point is Minor
        P = IntPoly([0] * d + [bd])
        params = ArcParams(n, delta, d)
        assume(params.s_max <= 4 and params.width < 1.0 / (2 * bd))
        w = params.width
        fr, i = ReducedFraction(0, 1), bd - 1
        if data is not None:
            fr = data.draw(st.sampled_from(admitted(params)))
            i = data.draw(st.integers(0, bd - 1))
        alpha = (fr.value + i + sign * Fraction(w + ulps * math.ulp(w))) / bd
        arcs = arc_labels(P, params, [alpha.numerator], alpha.denominator)
        assert_matches_oracle(P, params, [alpha.numerator],
                              alpha.denominator, arcs)
        assert arcs.major[0] == (ulps < -2)

    @pytest.mark.parametrize("q_max,D,bd,dtype", [
        (1, 1 << 53, 1, np.int64), (1, (1 << 53) + 1, 1, object),
        (3, (1 << 53) // 3, 5, np.int64), (3, (1 << 53) // 3 + 1, 5, object),
        (1, 1 << 53, 1 << 10, np.int64), (1, 1 << 53, (1 << 10) + 1, object),
        (1, 1 << 53, (1 << 53) + (1 << 10), np.int64),
        (1, 1 << 200, 1, object)])
    def test_dtype_guard(self, q_max, D, bd, dtype):
        assert _arc_dtype(q_max, D, bd) == dtype

    def test_exact_past_the_int64_guard(self):
        # D = 2^53 + 1 is no float: on int64, X / D would round twice
        params = ArcParams(10, 0.05, 1)
        assert params.s_max == 0
        D = (1 << 53) + 1
        ks = list(range(1, 40)) + [D // 2, D // 3, D - 7]
        assert_matches_oracle(LINEAR, params, ks, D,
                              arc_labels(LINEAR, params, ks, D))

    def test_big_ints_stay_exact(self):
        # numpy would make [0, 2^63] a float64 array
        P, params, D = IntPoly([1, 1]), ArcParams(24, 0.125, 1), 10 ** 15 + 37
        ks = [0, 1 << 63, -(1 << 70) + 5, 3 * 10 ** 40]
        assert_matches_oracle(P, params, ks, D, arc_labels(P, params, ks, D))

    def test_validation(self):
        params = ArcParams(10, 0.05, 2)
        with pytest.raises(ParameterError):
            arc_labels(SQUARES, params, [0], 0)
        with pytest.raises(ParameterError):
            arc_labels(IntPoly([0, 1]), params, [0], 1)
        with pytest.raises(ParameterError):  # w >= 1/(2 b_d)
            arc_labels(IntPoly([0, 0, 2]), ArcParams(1, 0.05, 2), [0], 1)


def assert_same_labels(new, old):
    """Every field equal bit for bit, with its dtype; on the object path
    each a and q is the same Python int."""
    for name, x, y in zip(new._fields, new, old):
        assert x.dtype == y.dtype, name
        if x.dtype == object:
            assert [(type(i), i) for i in x] == [(type(j), j) for j in y], \
                name
        else:
            assert x.tobytes() == y.tobytes(), name


def right_neighbour(fr: Fraction, Q: int) -> Fraction:
    """The next fraction after fr in [0, 1] with denominator <= Q: c/d
    with cq - ad = 1 and d as large as Q allows."""
    a, q = fr.numerator, fr.denominator
    d = -pow(a, -1, q) % q
    d += q * ((Q - d) // q)
    return Fraction((a * d + 1) // q, d)


def left_neighbour(fr: Fraction, Q: int) -> Fraction:
    """The fraction before fr in [0, 1] with denominator <= Q (fr > 0)."""
    c, d = fr.numerator, fr.denominator
    q = pow(c, -1, d) % d
    q += d * ((Q - q) // d)
    return Fraction((c * q - 1) // d, q)


def arc_scale(data, levels):
    """(d, b_d, params) with s_max in `levels` and w < 1/(2 b_d)."""
    d = data.draw(st.integers(1, 3))
    bd = data.draw(st.one_of(st.integers(1, 7), st.sampled_from(
        [1024, 1025, 3 ** 20])))
    delta = data.draw(st.sampled_from([0.125, 0.1, 0.05, 0.03125]))
    lo, hi = levels
    n_hi = min(int((hi + 1) / delta), int(1022 / (d - delta)))
    n = data.draw(st.integers(max(1, math.ceil(lo / delta)), n_hi))
    params = ArcParams(n, delta, d)
    assume(lo <= params.s_max <= hi and params.width < 1.0 / (2 * bd))
    return d, bd, params


def admitted_fraction(data, params) -> Fraction:
    Q = (2 << params.s_max) - 1
    q = data.draw(st.integers(1, Q))
    return Fraction(data.draw(st.integers(0, q - 1)), q)


class TestContinuedFractions:
    """arc_labels against the level loop it replaced (s_max <= 9, bit for
    bit) and `Fraction.limit_denominator` beyond it."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), D=st.one_of(
        st.integers(12, 53).map(lambda e: 1 << e),
        st.sampled_from([1000003, 3 ** 33, (1 << 53) + 1]),
        st.integers(1, 1 << 200)))
    def test_matches_the_level_scan(self, data, D):
        d, bd, params = arc_scale(data, (0, 9))
        P = IntPoly([0] * d + [bd])
        w = params.width
        ks = data.draw(st.lists(st.integers(0, D - 1), max_size=16))
        for _ in range(16):
            i = data.draw(st.integers(0, bd - 1))
            centre = (admitted_fraction(data, params) + i) * D // bd
            spread = max(1, math.ceil(2 * w * D / bd))
            ks.append(centre + data.draw(st.integers(-spread, spread)))
        if D <= 1 << 53 and data.draw(st.booleans()):
            ks = np.array(ks, dtype=np.int64)
        assert_same_labels(arc_labels(P, params, ks, D),
                           level_scan_labels(P, params, ks, D))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), exact=st.booleans())
    def test_ties_match_the_level_scan(self, data, exact):
        # X/D at, or within 2^-60 relative of, the midpoint of two Farey
        # neighbours: both distances round to one float, and the lower
        # level, then the left one, must win as in the level loop
        d, bd, params = arc_scale(data, (0, 9))
        P = IntPoly([0] * d + [bd])
        Q = (2 << params.s_max) - 1
        left = admitted_fraction(data, params)
        mid = (left + right_neighbour(left, Q)) / 2
        alpha = (mid + data.draw(st.integers(0, bd - 1))) / bd
        scale = data.draw(st.integers(1, 5)) if exact else 1 << 60
        D = alpha.denominator * scale
        ks = [alpha.numerator * scale + j for j in range(-2, 3)]
        arcs = arc_labels(P, params, ks, D)
        assert_same_labels(arcs, level_scan_labels(P, params, ks, D))
        if exact:
            assert Fraction(int(arcs.a[2]), int(arcs.q[2])) in (
                left, right_neighbour(left, Q) % 1)

    @pytest.mark.parametrize("n,alpha,a,q", [
        # s_max 1 (Q = 3): 5/12 and 7/12 sit midway between two level-1
        # neighbours, the left one wins whether it is the convergent (1/2
        # of 7/12) or the semiconvergent (1/3 of 5/12); 1/6 sits midway
        # between 0/1 and 1/3, and the lower level wins
        (8, Fraction(5, 12), 1, 3), (8, Fraction(7, 12), 1, 2),
        (8, Fraction(1, 6), 0, 1),
        # 1/1 is reported as 0/1, at s_max 0 (Q = 1) and 1
        (4, Fraction(3, 4), 0, 1), (8, Fraction(9, 10), 0, 1),
        (4, Fraction(1, 2), 0, 1), (4, Fraction(1, 4), 0, 1),
        (24, Fraction(0), 0, 1), (24, Fraction(6, 7), 6, 7)])
    def test_tie_order_and_the_wrap(self, n, alpha, a, q):
        params = ArcParams(n, 0.125, 1)
        assert params.s_max == n // 8
        arcs = arc_labels(LINEAR, params, [alpha.numerator],
                          alpha.denominator)
        assert (arcs.a[0], arcs.q[0]) == (a, q)
        assert_same_labels(arcs, level_scan_labels(
            LINEAR, params, [alpha.numerator], alpha.denominator))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), D=st.one_of(
        st.integers(0, 400).map(lambda e: 1 << e),
        st.integers(1, 1 << 400),
        st.integers(1, 120).map(lambda e: 10 ** e + 7)))
    def test_beyond_level_nine(self, data, D):
        # the nearest fraction with q <= Q by `limit_denominator`; when
        # its other Farey neighbour lies at the same float distance,
        # either may be reported
        d, bd, params = arc_scale(data, (10, 146))
        P = IntPoly([0] * d + [bd])
        Q = (2 << params.s_max) - 1
        w = params.width
        ks = data.draw(st.lists(st.integers(0, D - 1), max_size=8))
        for _ in range(8):
            centre = admitted_fraction(data, params) * D // bd
            ks.append(centre + data.draw(st.integers(-3, 3)))
        arcs = arc_labels(P, params, ks, D)
        for i, k in enumerate(ks):
            x = Fraction(bd * k % D, D)
            near = x.limit_denominator(Q)
            other = (right_neighbour(near, Q) if near <= x
                     else left_neighbour(near, Q))
            dist = float(torus_distance(x - near))
            assert arcs.dist[i] == dist
            assert arcs.major[i] == (dist < w and w - dist > 2 * math.ulp(w))
            got = Fraction(int(arcs.a[i]), int(arcs.q[i]))
            want = [near % 1]
            if float(torus_distance(x - other)) == dist:
                want.append(other % 1)
            assert got in want

    @pytest.mark.parametrize("n,delta,d", [(1168, 0.125, 1), (545, 0.125, 2),
                                           (80, 0.125, 2)])
    def test_every_admitted_scale_answers(self, n, delta, d):
        # the largest admitted n at d = 1 and 2 (s_max 146 and 68), and
        # s_max 10, the first level the level loop refused
        params = ArcParams(n, delta, d)
        Q = (2 << params.s_max) - 1
        near = Fraction(Q // 2, Q)  # reduced, as Q is odd
        # 1/D about w/4 away from near
        shift = max(0, 3 - math.frexp(params.width)[1]
                    - near.denominator.bit_length())
        D, k = near.denominator << shift, near.numerator << shift
        arcs = arc_labels(IntPoly([0] * d + [1]), params, [k + 1, k], D)
        assert arcs.major.tolist() == [True, True]
        assert [(int(a), int(q)) for a, q in zip(arcs.a, arcs.q)] == [
            (near.numerator, near.denominator)] * 2
        assert arcs.dist.tolist() == [float(Fraction(1, D)), 0.0]


class TestShells:
    """The per-point shell oracle that `grid_arcs(...).shell` is tested on."""

    def test_examples(self):
        assert shell_index(2.0 ** -21) == 21
        assert shell_index(3 * 2.0 ** -23) == 22  # 1.5 * 2^-22
        assert shell_index(0.0) == math.inf
        assert shell_index(1.0) == 0
        assert shell_index(0.75) == 1

    def test_half_open_boundaries(self):
        for k in range(1, 30):
            assert shell_index(2.0 ** -k) == k
            assert shell_index(2.0 ** -k * 1.999) == k

    def test_annulus_label_requires_major(self):
        params = ArcParams(10, 0.05, 2)
        lab = classify_arc(0.41, SQUARES, params)
        with pytest.raises(ParameterError):
            annulus_label(0.41, SQUARES, params, lab)

    def test_annulus_label_value(self):
        params = ArcParams(10, 0.05, 2)
        alpha = Fraction(1, 2 ** 21)
        lab = classify_arc(alpha, SQUARES, params)
        assert annulus_label(alpha, SQUARES, params, lab) == 21


class TestCongruence:
    def test_monic_quadratic(self):
        cd = congruence_data(SQUARES, ReducedFraction(1, 4), 0)
        assert cd.q_i == 4
        assert cd.numerators == (1, 0)

    def test_zero_fraction(self):
        cd = congruence_data(SQUARES, ReducedFraction(0, 1), 0)
        assert cd.q_i == 1
        assert cd.numerators == (0, 0)

    def test_linear_term_mixing(self):
        P = IntPoly([0, 1, 2])  # 2n^2 + n, b_1/b_2 = 1/2
        cd = congruence_data(P, ReducedFraction(1, 3), 0)
        # components: 1/3 and (1/2)(1/3) = 1/6 -> q_i = 6, numerators (2, 1)
        assert cd.q_i == 6
        assert cd.numerators == (2, 1)

    def test_pre_interval_shifts_lower_terms(self):
        P = IntPoly([0, 1, 2])
        cd0 = congruence_data(P, ReducedFraction(1, 3), 0)
        cd1 = congruence_data(P, ReducedFraction(1, 3), 1)
        # component (1/2)(1/3 + 1) = 2/3: denominators {3, 3} -> q_i = 3
        assert cd1.q_i == 3
        assert cd1 != cd0

    def test_pre_interval_range_checked(self):
        with pytest.raises(ParameterError):
            congruence_data(SQUARES, ReducedFraction(0, 1), 1)

    @given(st.integers(min_value=2, max_value=4),
           st.lists(st.integers(min_value=-5, max_value=5), min_size=0,
                    max_size=3),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=49))
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, d, lower, q, a):
        if math.gcd(a, q) != 1 or a >= q:
            return
        coeffs = [0] + lower[:d - 1] + [0] * (d - 1 - len(lower[:d - 1])) + [3]
        P = IntPoly(coeffs)
        for i in range(P.leading):
            cd = congruence_data(P, ReducedFraction(a, q), i)
            assert cd.q_i >= 1
            assert len(cd.numerators) == d
            # leading component a/q rescaled: q | q_i and num_d = a q_i / q
            assert cd.q_i % q == 0
            assert cd.numerators[0] == a * cd.q_i // q

    @given(lower=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=0,
                          max_size=4),
           bd=st.integers(1, 60), q=st.integers(1, 10 ** 4),
           a=st.integers(0, 10 ** 4), i=st.integers(0, 59))
    @settings(max_examples=300, deadline=None)
    def test_numerators_coprime_to_q_i(self, lower, bd, q, a, i):
        # the lcm already leaves numerators and q_i coprime: no reduction
        P = IntPoly([0] + lower + [bd])
        frac = ReducedFraction.make(a, q)
        cd = congruence_data(P, frac, i % bd)
        assert math.gcd(cd.q_i, *cd.numerators) == 1
