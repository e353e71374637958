"""Exact arithmetic layer: polynomials, Farey levels, arcs, congruence data."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import (ArcParams, IntPoly, ParameterError, ReducedFraction,
                       classify_arc, congruence_data, eval_poly, farey_level)
from circlelab.arith import fractions_near, torus_distance
from oracles import annulus_label, shell_index

SQUARES = IntPoly([0, 0, 1])


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


class TestArcs:
    def test_zero_is_major(self):
        params = ArcParams(10, 0.05, 2)
        lab = classify_arc(0, SQUARES, params)
        assert lab.is_major
        assert lab.fraction == ReducedFraction(0, 1)
        assert lab.s == 0
        assert lab.pre_interval == 0

    def test_near_one_third_major_when_level_admitted(self):
        # s_max = floor(n delta) must reach level 1 for 1/3 to be admitted
        params = ArcParams(20, 0.05, 2)
        assert params.s_max == 1
        alpha = Fraction(1, 3) + Fraction(1, 2 ** 45)
        lab = classify_arc(alpha, SQUARES, params)
        assert lab.is_major
        assert lab.fraction == ReducedFraction(1, 3)
        assert lab.s == 1

    def test_one_third_minor_when_level_excluded(self):
        params = ArcParams(10, 0.05, 2)
        assert params.s_max == 0
        alpha = Fraction(1, 3) + Fraction(1, 2 ** 21)
        assert not classify_arc(alpha, SQUARES, params).is_major

    def test_generic_point_minor(self):
        params = ArcParams(10, 0.05, 2)
        assert not classify_arc(0.41, SQUARES, params).is_major

    def test_width_and_smax(self):
        params = ArcParams(10, 0.05, 2)
        assert params.width == pytest.approx(2.0 ** -19.5)
        assert params.s_max == 0
        assert params.critical_annulus_index == 10.0

    def test_pre_interval_with_larger_leading(self):
        P = IntPoly([0, 0, 3])  # b_2 = 3
        params = ArcParams(10, 0.05, 2)
        lab = classify_arc(Fraction(1, 3), P, params)  # {3 alpha} = 0
        assert lab.is_major
        assert lab.fraction == ReducedFraction(0, 1)
        assert lab.pre_interval == 1

    def test_boundary_tie_is_minor(self):
        params = ArcParams(10, 0.05, 2)
        w = params.width
        alpha = Fraction(w)  # distance to 0/1 exactly the width
        assert not classify_arc(alpha, SQUARES, params).is_major

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            ArcParams(10, 0.2, 2)
        with pytest.raises(ParameterError):
            ArcParams(10, 0.0, 2)

    @given(st.floats(min_value=0, max_value=1, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_classification_deterministic_and_single(self, alpha):
        params = ArcParams(12, 0.1, 2)
        lab1 = classify_arc(alpha, SQUARES, params)
        lab2 = classify_arc(alpha, SQUARES, params)
        assert lab1 == lab2
        if lab1.is_major:
            dist = torus_distance(Fraction(alpha) - lab1.fraction.value)
            assert float(dist) < params.width


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
