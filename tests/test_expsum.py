"""Exponential sums, Gauss weights, fast dyadic sums."""

import cmath
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelab import (IntPoly, ParameterError, ReducedFraction,
                       ResourceError, dyadic_gauss_mean,
                       fast_dyadic_quadratic_weyl, gauss_weight, weyl_sum,
                       weyl_sum_prefixes)
from circlelab import expsum
from circlelab.arith import congruence_data
from circlelab.dyadic import (_PI_FIXED, _euler_maclaurin_mean,
                              _fresnel_mean, _sin_pi, check_tail_regime)
from circlelab.errors import PHASE_TERM_BUDGET
from circlelab.expsum import (_CACHE_CHUNK, _LIMB_PAIR, _e_neg, _e_pos,
                              _e_work, _limb_phases, _phase_chunks,
                              _residue_rows, residue_counts)
from oracles import (bigint_phase_chunks, complete_dyadic_gauss,
                     direct_dyadic_tail_mean, eval_poly, exp_terms,
                     farey_level, quadratic_gauss_row)

SQUARES = IntPoly([0, 0, 1])


def complete_dyadic_gauss_direct(m):
    """Direct-summation oracle for complete_dyadic_gauss (small m only)."""
    T = 1 << m
    n = np.arange(1, T + 1, dtype=np.int64)
    return complex(np.exp(2j * math.pi * ((n * n) % T) / T).sum())


def prefix(P, t, alpha):
    """One alpha's K_hat_1..K_hat_t, from a one-row weyl_sum_prefixes call."""
    a = Fraction(alpha)
    (block,) = weyl_sum_prefixes(P, t, [a.numerator], a.denominator)
    return block[0]


def same_bits(a, b):
    """a and b hold the same floats, bit for bit."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def e_neg(ph):
    """The e(-ph) kernel on a whole 1-D array."""
    return _e_neg(ph, np.empty(len(ph), dtype=complex), _e_work(len(ph)))


def weyl_sum_naive(P, t, alpha):
    """Float-arithmetic oracle (small t, tame alpha only)."""
    return sum(cmath.exp(-2j * math.pi * ((float(alpha) * eval_poly(P, n)) % 1.0))
               for n in range(1, t + 1)) / t


class TestWeylSum:
    def test_alpha_zero(self):
        assert weyl_sum(SQUARES, 17, 0) == pytest.approx(1.0, abs=1e-12)

    def test_squares_half(self):
        # e(-1/2) + e(-2) = -1 + 1 = 0
        assert weyl_sum(SQUARES, 2, Fraction(1, 2)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_oracle(self):
        P = IntPoly([1, -2, 0, 3])
        for alpha in [Fraction(1, 7), 0.123, Fraction(3, 8)]:
            for t in [1, 5, 23]:
                assert weyl_sum(P, t, alpha) == \
                    pytest.approx(weyl_sum_naive(P, t, alpha), abs=1e-9)

    def test_exact_at_huge_phase(self):
        # alpha q-periodic in P(n) mod 1: rational alpha gives exact recurrence
        alpha = Fraction(1, 3)
        t = 300
        direct = sum(cmath.exp(-2j * math.pi * ((n * n) % 3) / 3)
                     for n in range(1, t + 1)) / t
        assert weyl_sum(SQUARES, t, alpha) == pytest.approx(direct, abs=1e-12)

    def test_prefix_consistency(self):
        row = prefix(SQUARES, 50, 0.3)
        for t in [1, 7, 50]:
            assert row[t - 1] == \
                pytest.approx(weyl_sum(SQUARES, t, 0.3), abs=1e-12)

    def test_unit_bound(self):
        row = prefix(IntPoly([0, 2, 0, 1]), 200, 0.7182818)
        assert np.all(np.abs(row) <= 1 + 1e-12)

    def test_t_validation(self):
        with pytest.raises(ParameterError):
            weyl_sum(SQUARES, 0, 0.5)

    def test_triangle_bound(self):
        # |K_t - K_{t+1}| <= 2/t pointwise in alpha
        rng = np.random.default_rng(7)
        for alpha in rng.random(5):
            diffs = np.abs(np.diff(prefix(SQUARES, 256, alpha)))
            ts = np.arange(1, 256)
            assert np.all(diffs <= 2.0 / ts + 1e-12)


def oracle_phases(P, t, alpha):
    """The big-int finite-difference loop, for any alpha."""
    a = Fraction(alpha)
    return np.concatenate(list(bigint_phase_chunks(P, t, a.numerator,
                                                   a.denominator)))


def residue_dtype(den):
    """The residue dtype the kernel must use: fixed width where den allows."""
    if den & (den - 1) == 0 and den <= 1 << 64:
        return np.uint64
    if den & (den - 1) == 0 and den <= 1 << 128:
        return _LIMB_PAIR
    return np.int64 if den < 1 << 31 else object


def as_ints(r):
    """Residues as Python ints, the limb pair's hi * 2^64 + lo included."""
    if r.dtype == _LIMB_PAIR:
        return [(int(h) << 64) | int(lo) for h, lo in zip(r["hi"], r["lo"])]
    return [int(v) for v in r]


def kernel_phases(P, t, alpha):
    """_phase_chunks, with its residues required in the dtype den allows."""
    a = Fraction(alpha)
    num, den = a.numerator, a.denominator
    r = _residue_rows(P.coeffs, np.array([num], dtype=object), den, 1, t + 1)
    assert r.dtype == np.dtype(residue_dtype(den))
    return np.concatenate(list(_phase_chunks(P.coeffs, t, num, den)))


def assert_matches_oracle(P, t, alpha):
    want = oracle_phases(P, t, alpha)
    got = kernel_phases(P, t, alpha)
    assert got.shape == (t,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    oracle_sum = exp_terms(want).sum()
    assert abs(weyl_sum(P, t, alpha) - oracle_sum / t) <= 1e-12


CHUNK = expsum._PHASE_CHUNK
# the numerator k = 1 of a one-row _residue_rows call
ONE = np.ones(1, dtype=np.int64)
BIG = 1 << 64
EDGE_POLYS = [SQUARES, IntPoly([0, 0, 0, 1]),
              IntPoly([-BIG * 64 - 1, -3, BIG * 2 + 7]),
              IntPoly([BIG, -BIG - 5, 0, 3]), IntPoly([7, 1])]
EDGE_ALPHAS = [
    0.123456789, -0.75, Fraction(-5, 1 << 53),            # dyadic <= 2^53
    Fraction(BIG - 1, BIG), Fraction(-BIG * 64 + 3, BIG),  # dyadic = 2^64
    0.3 * 2.0 ** -13, Fraction(1, BIG * 2),                # two limbs
    Fraction(1, 3), Fraction(-7, 3 << 20),                 # non-dyadic
    Fraction(123456789, (1 << 31) - 1), Fraction(1, 1 << 31),
    Fraction(5, (1 << 31) + 1), Fraction(-BIG, 10 ** 12 + 39),  # q >= 2^31
    Fraction((1 << 32) - 1, (1 << 33) - 9),
    0, 5, -3,                                              # integer alpha
    Fraction(BIG * BIG - 1, BIG * BIG), Fraction(-3, BIG * BIG),  # 2^128
    Fraction(1, BIG * BIG * 2),                            # dyadic > 2^128
]
BRANCH_ALPHAS = [0.123456789, Fraction(3, BIG), Fraction(1, BIG * 2),
                 Fraction(123456789, (1 << 31) - 1), Fraction(5, (1 << 31) + 1),
                 Fraction(7, BIG * BIG * 2)]


class TestPhaseKernel:
    """The fixed-width phase kernel against the big-int loop, bitwise."""

    def test_oracle_is_exact(self):
        for P, alpha in [(SQUARES, Fraction(-3, 7)),
                         (EDGE_POLYS[2], Fraction(5, BIG * 8))]:
            a = Fraction(alpha)
            num, den = a.numerator, a.denominator
            direct = [(num * eval_poly(P, n)) % den / den
                      for n in range(1, 40)]
            assert oracle_phases(P, 39, alpha).tolist() == direct

    @pytest.mark.parametrize("P", EDGE_POLYS)
    @pytest.mark.parametrize("alpha", EDGE_ALPHAS)
    def test_edge_cases(self, P, alpha):
        for t in (1, 37):
            assert_matches_oracle(P, t, alpha)

    @pytest.mark.parametrize("t", [CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("alpha", BRANCH_ALPHAS)
    def test_chunk_boundaries(self, t, alpha):
        assert_matches_oracle(IntPoly([-1, 2, 0, 1]), t, alpha)

    def test_prefix_from_chunks(self):
        t = CHUNK + 5
        for alpha in BRANCH_ALPHAS:
            want = np.cumsum(e_neg(oracle_phases(SQUARES, t, alpha))) \
                / np.arange(1, t + 1)
            assert np.array_equal(prefix(SQUARES, t, alpha), want)

    @pytest.mark.parametrize("t", [1, 37, _CACHE_CHUNK // 5,
                                   _CACHE_CHUNK + 3])
    def test_batched_rows_match_one_alpha_calls(self, t):
        # every residue path, mixed in the blocks, in the callers' order
        P = IntPoly([-1, 2, 0, 1])
        alphas = EDGE_ALPHAS + BRANCH_ALPHAS
        nums, dens = zip(*(Fraction(a).as_integer_ratio() for a in alphas))
        blocks = list(weyl_sum_prefixes(P, t, list(nums), list(dens)))
        assert all(b.size <= max(t, _CACHE_CHUNK) for b in blocks)
        rows = np.concatenate(blocks)
        assert rows.shape == (len(alphas), t)
        for alpha, row in zip(alphas, rows):
            assert np.array_equal(row.view(np.uint64),
                                  prefix(P, t, alpha).view(np.uint64))

    def test_prefixes_checked_before_any_work(self):
        with mock.patch.object(expsum, "_phase_rows",
                               side_effect=AssertionError):
            with pytest.raises(ResourceError):
                weyl_sum_prefixes(SQUARES, PHASE_TERM_BUDGET.limit + 1, [1], 2)
            assert list(weyl_sum_prefixes(SQUARES, 10, [], 2)) == []
            assert list(weyl_sum_prefixes(SQUARES, 10, [], [])) == []
            # the terms of all alphas together: 2^14 rows of 2^14 fit
            weyl_sum_prefixes(SQUARES, 1 << 14, [1] * (1 << 14), 2)
            with pytest.raises(ResourceError):
                weyl_sum_prefixes(SQUARES, 1 << 14, [1] * ((1 << 14) + 1), 2)
            # a denominator below 1, or not one per k
            for k, D in [([1], 0), ([1, 2], [3, -1]), ([1, 2], [3])]:
                with pytest.raises(ParameterError):
                    weyl_sum_prefixes(SQUARES, 10, k, D)

    @given(coeffs=st.lists(st.integers(-BIG * 16, BIG * 16), min_size=1,
                           max_size=4),
           leading=st.integers(1, BIG * 16),
           alpha=st.one_of(
               st.floats(-1e6, 1e6),
               st.builds(Fraction, st.integers(-BIG * BIG * 4, BIG * BIG * 4),
                         st.integers(0, 130).map(lambda e: 1 << e)),
               st.builds(Fraction, st.integers(-BIG * 64, BIG * 64),
                         st.integers(1, (1 << 31) - 1)),
               st.builds(Fraction, st.integers(-BIG * 64, BIG * 64),
                         st.integers(1 << 31, 1 << 66)),
               st.integers(-10, 10)),
           t=st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    def test_differential(self, coeffs, leading, alpha, t):
        assert_matches_oracle(IntPoly(coeffs + [leading]), t, alpha)

    @given(k=st.lists(st.tuples(st.integers(0, (1 << 53) - 1),
                                st.integers(0, 53)).map(
                                    lambda p: p[0] >> p[1] << p[1]),
                      min_size=1, max_size=40),
           t=st.integers(1, 80))
    @settings(max_examples=100, deadline=None)
    def test_draw_rows_match_reduced_rows(self, k, t):
        # est's draws: an int64 array of k over 2^53, some k with trailing
        # zeros, against each reduced fraction k'/2^j on its own and the
        # big-int oracle
        P = IntPoly([-1, 2, 0, 1])
        rows = np.concatenate(list(weyl_sum_prefixes(
            P, t, np.array(k, dtype=np.int64), 1 << 53)))
        for ki, row in zip(k, rows):
            alpha = Fraction(ki, 1 << 53)
            assert same_bits(row, prefix(P, t, alpha))
            want = np.cumsum(e_neg(oracle_phases(P, t, alpha))) \
                / np.arange(1, t + 1)
            assert same_bits(row, want)

    @given(fracs=st.lists(st.tuples(
               st.one_of(
                   st.integers(0, (1 << 53) - 1).map(
                       lambda k: Fraction(k, 1 << 53)),
                   st.builds(Fraction, st.integers(-BIG * BIG, BIG * BIG),
                             st.integers(0, 140).map(lambda e: 1 << e)),
                   st.builds(Fraction, st.integers(-BIG, BIG),
                             st.integers(1, 1 << 40))),
               st.one_of(st.integers(0, 40).map(lambda e: 1 << e),
                         st.integers(1, 1 << 40))),
               min_size=1, max_size=8),
           t=st.integers(1, 80))
    @settings(max_examples=200, deadline=None)
    def test_unreduced_rows_match_reduced_rows_and_oracle(self, fracs, t):
        # a/q passed as (a m)/(q m), each with its own D, every residue
        # path mixed in one call (m can move a row to another path): the
        # same rational, so the same correctly rounded phases
        P = IntPoly([-1, 2, 0, 1])
        nums = [f.numerator * m for f, m in fracs]
        dens = [f.denominator * m for f, m in fracs]
        rows = np.concatenate(list(weyl_sum_prefixes(P, t, nums, dens)))
        for (f, _), row in zip(fracs, rows):
            assert same_bits(row, prefix(P, t, f))
            want = np.cumsum(e_neg(oracle_phases(P, t, f))) \
                / np.arange(1, t + 1)
            assert same_bits(row, want)

    def test_term_budget(self):
        with pytest.raises(ResourceError):
            weyl_sum(SQUARES, PHASE_TERM_BUDGET.limit + 1, Fraction(1, 3))
        with pytest.raises(ResourceError):
            weyl_sum_prefixes(SQUARES, PHASE_TERM_BUDGET.limit + 1, [1], 3)


class TestResidueKernel:
    """The residue step on its own, against Python ints."""

    @given(coeffs=st.lists(st.integers(-BIG * 4, BIG * 4), min_size=1,
                           max_size=5),
           den=st.one_of(st.integers(0, 130).map(lambda e: 1 << e),
                         st.integers(1, (1 << 31) - 1),
                         st.integers(1 << 31, 1 << 130)),
           t=st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_matches_python_ints(self, coeffs, den, t):
        # any leading coefficient, 0 mod den included: no IntPoly needed
        want = [sum(c * n ** j for j, c in enumerate(coeffs)) % den
                for n in range(1, t + 1)]
        r = _residue_rows(coeffs, ONE, den, 1, t + 1)[0]
        assert r.dtype == np.dtype(residue_dtype(den))
        assert as_ints(r) == want

    @pytest.mark.parametrize("den", [3 << 40, (1 << 31) + 1, 1 << 129])
    def test_wide_den_left_to_big_ints(self, den):
        r = _residue_rows([0, 0, 1], ONE, den, 1, 11)[0]
        assert r.dtype == object
        assert r.tolist() == [n * n % den for n in range(1, 11)]

    @pytest.mark.parametrize("coeffs,t,q", [
        ((0, 0, 1), 10, 7), ((5, -3, 0, 2), CHUNK + 3, 1000),
        ((-1, 0, 1 << 70), 50, 64), ((0, 7), 1, 1)])
    def test_counts(self, coeffs, t, q):
        want = np.zeros(q, dtype=np.int64)
        for n in range(1, t + 1):
            want[sum(c * n ** j for j, c in enumerate(coeffs)) % q] += 1
        assert np.array_equal(residue_counts(coeffs, t, q), want)

    def test_counts_budget(self):
        with pytest.raises(ResourceError):
            residue_counts((0, 1), 1, PHASE_TERM_BUDGET.limit + 1)
        with pytest.raises(ParameterError):
            residue_counts((0, 1), 0, 5)


def limb_cases():
    """(r, den) at the rounding boundaries of r/den, den = 2^e, 64 < e <= 128.

    m * 2^j for 54-bit m sits half an ulp past a 53-bit float: m odd with
    its last bit 1 is a tie (to even: up when bit 1 is set, down if not),
    and a 1 far below the window, in lo, breaks the tie upward.
    """
    cases = []
    for e in (65, 100, 128):
        den = 1 << e
        cases += [(0, den), (1, den), (den - 1, den), (BIG - 1, den),
                  (BIG, den), (BIG + 1, den), (den >> 1, den)]
        for j in range(0, e - 53):
            for m in ((1 << 53) + 1, (1 << 53) + 3, (1 << 54) - 1):
                tie = m << j
                cases += [(tie, den), (tie - 1, den)]
                if j:
                    cases.append((tie + 1, den))
    return cases


class TestLimbPath:
    """The two-limb residues of den = 2^e, 64 < e <= 128, on uint64 bits."""

    def test_rounding_boundaries(self):
        cases = limb_cases()
        for r, den in cases:
            res = _residue_rows([r], ONE, den, 1, 2)
            assert res.dtype == _LIMB_PAIR and as_ints(res[0]) == [r]
            got = _limb_phases(res, [den])[0, 0]
            want = np.float64(r / den)
            assert got.view(np.uint64) == want.view(np.uint64), (r, den)

    def test_sticky_bit_decides(self):
        # a tie to even rounds down, and the same tie plus 1 in lo rounds up
        # 2^52 (even) and half an ulp, at bit 60; the 1 sits at bit 0
        den = 1 << 128
        tie = ((1 << 53) + 1) << 60
        down = _limb_phases(_residue_rows([tie], ONE, den, 1, 2), [den])[0, 0]
        up = _limb_phases(_residue_rows([tie + 1], ONE, den, 1, 2),
                          [den])[0, 0]
        assert down == 2.0 ** (113 - 128) == tie / den
        assert up == (tie + 1) / den > down

    @pytest.mark.parametrize("c1", [0x55555555_FFFFFFFF,
                                    (0xAAAAAAAA << 64) | 0x55555555_FFFFFFFF,
                                    (1 << 128) - 1])
    def test_carries_into_hi(self, c1):
        # at n = 3, (lo >> 32) n fills lo up to 2^64 - 2^32 and
        # (lo & LOW32) n overflows it, so the carry must reach hi
        den = 1 << 128
        for coeffs in ([0, c1], [c1, c1, c1]):
            want = [sum(c * n ** j for j, c in enumerate(coeffs)) % den
                    for n in range(1, 41)]
            got = _residue_rows(coeffs, ONE, den, 1, 41)[0]
            assert as_ints(got) == want

    @given(r=st.integers(0, (1 << 128) - 1), e=st.integers(65, 128))
    @settings(max_examples=300, deadline=None)
    def test_random_residues(self, r, e):
        den = 1 << e
        r %= den
        got = _limb_phases(_residue_rows([r], ONE, den, 1, 2), [den])[0, 0]
        assert got.view(np.uint64) == np.float64(r / den).view(np.uint64)


def e_mp_error(ph: float, z: complex, sign: int = -1) -> float:
    """Largest component error of z against e(sign ph) to 40 digits."""
    with mpmath.workdps(40):
        want = mpmath.exp(sign * 2j * mpmath.pi * mpmath.mpf(ph))
        return float(max(abs(mpmath.mpf(z.real) - want.real),
                         abs(mpmath.mpf(z.imag) - want.imag)))


EDGE_PHASES = ([0.0, 0.25, 0.5, 0.75, 1 - 2.0 ** -53, 2.0 ** -1074, 1.0]
               + [v for h in range(0, 4097, 7)
                  for v in (np.nextafter(h / 4096, -1.0), h / 4096,
                            np.nextafter(h / 4096, 2.0))
                  if 0.0 <= v <= 1.0])


class TestExpKernel:
    """The table-driven e(-ph) against 40-digit mpmath and np.exp."""

    def test_edges_against_mpmath(self):
        ph = np.array(EDGE_PHASES)
        got = e_neg(ph)
        worst = max(e_mp_error(p, z) for p, z in zip(ph.tolist(), got))
        assert worst <= 7e-16

    def test_exact_quarter_turns(self):
        got = e_neg(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert got.tolist() == [1, -1j, -1, 1j, 1]

    @given(ph=st.one_of(
        st.floats(0.0, 1.0),
        st.builds(lambda m, e: math.ldexp(m, -e), st.integers(0, 1 << 20),
                  st.integers(20, 1074)),
        st.builds(lambda m: math.ldexp(m, -53), st.integers(0, 1 << 53))))
    @settings(max_examples=300, deadline=None)
    def test_dyadic_phases_against_mpmath(self, ph):
        assert e_mp_error(ph, e_neg(np.array([ph]))[0]) <= 7e-16

    @given(seed=st.integers(0, 1 << 32), n=st.integers(1, 3 * _CACHE_CHUNK))
    @settings(max_examples=20, deadline=None)
    def test_against_exp_oracle(self, seed, n):
        # several in-cache sub-chunks, and their seams
        ph = np.random.default_rng(seed).random(n)
        assert np.abs(e_neg(ph) - exp_terms(ph)).max() <= 1.5e-15


class TestEPos:
    """e(ph), the package's one e(x): e(-ph) conjugated, in any shape."""

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_conjugate_of_e_neg_in_its_shape(self, shape):
        ph = np.random.default_rng(len(shape)).random(shape)
        want = np.conjugate(e_neg(np.reshape(ph, -1)))
        for arg in (ph, ph.tolist()):  # a Python float at shape ()
            got = _e_pos(arg)
            assert got.shape == shape
            assert same_bits(got.reshape(-1), want)

    def test_edges_against_mpmath(self):
        ph = np.array(EDGE_PHASES)
        n = len(ph) // 3
        for arr in (ph[:3 * n].reshape(3, n), ph):
            got = _e_pos(arr)
            worst = max(e_mp_error(p, z, 1) for p, z
                        in zip(arr.reshape(-1).tolist(), got.reshape(-1)))
            assert worst <= 7e-16


class TestGaussWeight:
    def test_trivial(self):
        assert gauss_weight(SQUARES, ReducedFraction(0, 1), 0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_half(self):
        assert gauss_weight(SQUARES, ReducedFraction(1, 2), 0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_quarter(self):
        assert gauss_weight(SQUARES, ReducedFraction(1, 4), 0) == \
            pytest.approx(complex(0.5, -0.5), abs=1e-12)

    def test_row_matches_elementwise(self):
        for q in [3, 5, 8, 12]:
            row = quadratic_gauss_row(q)
            for a in range(q):
                if math.gcd(a, q) == 1 or a == 0:
                    fr = ReducedFraction.make(a, q) if a else \
                        ReducedFraction(0, 1)
                    expect = gauss_weight(SQUARES, fr, 0)
                    assert row[a] == pytest.approx(expect, abs=1e-12)

    def test_square_root_cancellation_row(self):
        for q in [7, 16, 127, 360]:
            row = quadratic_gauss_row(q)
            reduced = [a for a in range(1, q) if math.gcd(a, q) == 1]
            assert np.all(np.abs(row[reduced]) <= math.sqrt(2) / math.sqrt(q)
                          + 1e-12)

    @pytest.mark.parametrize("P,frac,i", [
        (IntPoly([0, 1, 2]), ReducedFraction(1, 3), 0),   # 2n^2 + n at 1/3
        (IntPoly([4, -1, 0, 1]), ReducedFraction(2, 5), 0),  # degree 3
        (IntPoly([0, 5, 1, 3]), ReducedFraction(1, 4), 2),  # b_d = 3, i > 0
        (IntPoly([0, 1, 2]), ReducedFraction(1, 3), 1),   # b_d = 2, i > 0
        (IntPoly([0, 3, 2]), ReducedFraction(0, 1), 1),   # 0/1, a_d = 0
        (SQUARES, ReducedFraction(0, 1), 0),
    ], ids=["quadratic", "cubic", "bd3-i2", "bd2-i1", "zero-bd2-i1",
            "zero-monic"])
    def test_nonmonic_oracle(self, P, frac, i):
        # direct sum over r mod q_i of a_d r^d + ... + a_1 r
        cd = congruence_data(P, frac, i)
        d = len(cd.numerators)
        direct = sum(cmath.exp(-2j * math.pi *
                               (sum(a * r ** (d - j)
                                    for j, a in enumerate(cd.numerators))
                                % cd.q_i) / cd.q_i)
                     for r in range(1, cd.q_i + 1)) / cd.q_i
        assert gauss_weight(P, frac, i) == pytest.approx(direct, abs=1e-12)

    def test_horner_oracle(self):
        # the int64 Horner loop gauss_weight used before the kernel
        def old(P, frac, i):
            cd = congruence_data(P, frac, i)
            qi = cd.q_i
            r = np.arange(1, qi + 1, dtype=np.int64)
            acc = np.zeros(qi, dtype=np.int64)
            for a_j in cd.numerators:
                acc = (acc * r + a_j) % qi
            acc = (acc * r) % qi
            return complex(np.exp(-2j * math.pi * (acc / qi)).sum() / qi)

        for P in [SQUARES, IntPoly([3, -7, 2]), IntPoly([0, 1, -4, 5])]:
            for s in range(4):
                for frac in farey_level(s):
                    for i in range(P.leading):
                        assert abs(gauss_weight(P, frac, i)
                                   - old(P, frac, i)) <= 1e-15

    def test_modulus_budget_checked_first(self):
        # q_i = 10^11 would need a 745 GiB residue array
        with mock.patch.object(expsum, "_residue_rows",
                               side_effect=AssertionError):
            with pytest.raises(ResourceError):
                gauss_weight(SQUARES, ReducedFraction(1, 10 ** 11), 0)
            with pytest.raises(ResourceError):
                gauss_weight(
                    SQUARES, ReducedFraction(1, PHASE_TERM_BUDGET.limit + 1), 0)

    @given(q=st.one_of(st.integers(1, 3000),
                       st.sampled_from([CHUNK - 1, CHUNK + 3, 1 << 17])))
    @settings(max_examples=60, deadline=None)
    def test_row_histogram_oracle(self, q):
        # the int64 histogram quadratic_gauss_row built before the kernel
        counts = np.bincount((np.arange(1, q + 1, dtype=np.int64) ** 2) % q,
                             minlength=q)
        assert np.array_equal(quadratic_gauss_row(q), np.fft.fft(counts) / q)


class TestFastDyadic:
    def test_k_equals_R(self):
        assert fast_dyadic_quadratic_weyl(5, 5, 1000) == 1.0 + 0.0j

    def test_complete_gauss_closed_form(self):
        for m in range(0, 17):
            assert complete_dyadic_gauss(m) == \
                pytest.approx(complete_dyadic_gauss_direct(m), abs=1e-7)
            assert dyadic_gauss_mean(m) == pytest.approx(
                complete_dyadic_gauss_direct(m) / 2 ** m, abs=1e-12)

    def test_mean_keeps_the_bits_of_the_sum_over_its_period(self):
        # the exponent-scaled mean is the old complete sum / 2^m, bit for
        # bit, wherever 2^m is a float
        def bits(z):
            return z.real.hex(), z.imag.hex()

        for m in range(0, 1024):
            assert bits(dyadic_gauss_mean(m)) == \
                bits(complete_dyadic_gauss(m) / 2 ** m)
        with pytest.raises(ParameterError):
            dyadic_gauss_mean(-1)

    @pytest.mark.parametrize("m,want", [
        (1024, complex(2.0 ** -512, 2.0 ** -512)),
        (1100, complex(2.0 ** -550, 2.0 ** -550)),
        (2046, complex(2.0 ** -1023, 2.0 ** -1023)),
        (2047, 2.0 ** -1023 * cmath.exp(1j * math.pi / 4.0)),
        (3000, 0j)])
    def test_full_periods_past_the_float_range(self, m, want):
        # 2^m is no float from m = 1024 on, and the complete sum none from
        # m = 2047 on; the mean is, down to its underflow (2^-1500 is 0)
        assert dyadic_gauss_mean(m) == want
        assert fast_dyadic_quadratic_weyl(0, m, 2 << m) == want
        assert fast_dyadic_quadratic_weyl(5, m + 5, 3 << m) == want

    @pytest.mark.parametrize("R", [4, 8, 12, 16])
    def test_matches_direct_summation(self, R):
        for k in range(0, R + 1, 2):
            for N in [1, 7, 1 << (R - k), (1 << (R - k)) + 3, 5000]:
                direct = sum(cmath.exp(2j * math.pi *
                                       ((n * n * (1 << k)) % (1 << R))
                                       / (1 << R))
                             for n in range(1, N + 1)) / N
                fast = fast_dyadic_quadratic_weyl(k, R, N)
                assert fast == pytest.approx(direct, abs=1e-9)

    def test_multiple_of_period_uses_closed_form_only(self):
        # N = huge multiple of the period: no tail summation required
        k, R = 3, 40
        period = 1 << (R - k)
        val = fast_dyadic_quadratic_weyl(k, R, period * (10 ** 9))
        expect = complete_dyadic_gauss(R - k) / period
        assert val == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 44, 62, 63, 64, 65, 128, 129])
    @given(k=st.integers(0, 3), N=st.integers(1, 1500))
    @settings(max_examples=25, deadline=None)
    def test_tail_against_python_ints(self, m, k, N):
        # m = 1 and 44 take the sqrt split, m >= 62 Euler-Maclaurin
        T = 1 << m
        direct = sum(cmath.exp(2j * math.pi * ((n * n) % T) / T)
                     for n in range(1, N + 1)) / N
        assert abs(fast_dyadic_quadratic_weyl(k, k + m, N) - direct) <= 1e-12

    def test_budget_enforced(self):
        # m = 60 and a tail of 2^45 terms, within 2^16 of its period: no
        # regime takes it, and nothing is summed before the refusal
        with mock.patch("circlelab.dyadic._e_neg", side_effect=AssertionError):
            with pytest.raises(ResourceError):
                fast_dyadic_quadratic_weyl(0, 60, 1 << 45)
        # a tail of 2^23 + 1 terms at m = 60 takes Euler-Maclaurin
        assert abs(fast_dyadic_quadratic_weyl(0, 60, (1 << 23) + 1)
                   - direct_dyadic_tail_mean(60, (1 << 23) + 1)) <= 4e-16

    def test_huge_tail_message_gives_its_bits(self):
        # the tail has over 4300 decimal digits, more than str() may print
        with pytest.raises(ResourceError, match=r"length >= 2\^69990 "):
            fast_dyadic_quadratic_weyl(0, 70000, 1 << 69990)
        # 2^65535 terms at m = 70000 take Euler-Maclaurin: the mean,
        # about 2^-30537, underflows
        assert fast_dyadic_quadratic_weyl(0, 70000, 1 << 65535) == 0j

    def test_huge_exponent_small_tail(self):
        # five terms at m = 10^20: 2^m is never formed, and every phase is
        # below 2^-(10^20), so the mean is 1
        val = fast_dyadic_quadratic_weyl(0, 10 ** 20, 5)
        assert abs(val.real - 1.0) <= 2.0 ** -52 and val.imag == 0.0
        assert fast_dyadic_quadratic_weyl(7, 10 ** 20 + 7, 5) == val

    def test_numpy_integers(self):
        # np.int64 k and R wrapped in 1 << m (0j at m = 70), and an
        # np.int64 N has no bit_length
        for args in [(0, 20, 1000), (0, 70, 5), (3, 30, 1 << 20)]:
            assert fast_dyadic_quadratic_weyl(*map(np.int64, args)) == \
                fast_dyadic_quadratic_weyl(*args)

    def test_validation(self):
        with pytest.raises(ParameterError):
            fast_dyadic_quadratic_weyl(5, 4, 10)
        with pytest.raises(ParameterError):
            fast_dyadic_quadratic_weyl(0, 4, 0)


def precise_dyadic_tail_mean(m, T):
    """(1/T) sum_{n=1}^T e(n^2/2^m) as an np.clongdouble, m <= 62.

    Each phase n^2 mod 2^m / 2^m is exact, and 2 pi, cos, sin and the sums
    run in np.longdouble: within about 1e-19 where it is x87 extended
    precision (64-bit significand).  Where it is not, the terms are summed
    in 30-digit mpmath instead, and the mean is correctly rounded.
    """
    if np.finfo(np.longdouble).nmant < 63:
        with mpmath.workdps(30):
            total = mpmath.fsum(
                mpmath.expjpi(mpmath.mpf(2 * (n * n % (1 << m))) / (1 << m))
                for n in range(1, T + 1))
            return np.clongdouble(complex(total / T))
    n = np.arange(1, T + 1, dtype=np.int64)
    theta = (8 * np.arctan(np.longdouble(1))
             * ((n * n) & ((1 << m) - 1)).astype(np.longdouble)
             / np.longdouble(1 << m))
    return (np.sum(np.cos(theta)) + 1j * np.sum(np.sin(theta))) / T


def near_period_mean(m, j):
    """(1/T) sum_{n=1}^T e(n^2/2^m) at T = 2^m - j: the complete sum less
    its last j terms, which are e(i^2/2^m) for i = 0..j-1."""
    short = (j - 1) * direct_dyadic_tail_mean(m, j - 1) if j > 1 else 0
    return (complete_dyadic_gauss(m) - 1 - short) / ((1 << m) - j)


class TestTailRegimes:
    @pytest.mark.parametrize("m,bits,regime", [
        (17, 1, "split"), (26, 1, "split"), (27, 11, "euler-maclaurin"),
        (27, 12, "split"), (44, 28, "euler-maclaurin"), (44, 29, "split"),
        (44, 44, "split"), (45, 29, "euler-maclaurin"), (45, 30, None),
        (10 ** 20, 10 ** 20 - 16, "euler-maclaurin"),
        (10 ** 20, 10 ** 20 - 15, None)])
    def test_gates(self, m, bits, regime):
        if regime is None:
            with pytest.raises(ResourceError, match="no regime computes"):
                check_tail_regime(m, bits)
        else:
            assert check_tail_regime(m, bits) == regime

    def test_gate_on_m(self):
        # the three-term form is off by about 0.66 4^-m at T = 1: 4e-11 at
        # m = 17, which the gate leaves to the split, 1e-16 from m = 26 on
        for m, worst in [(17, 5e-11), (26, 2.5e-16), (27, 1e-16)]:
            err = abs(_euler_maclaurin_mean(m, 1)
                      - direct_dyadic_tail_mean(m, 1))
            assert err <= worst
        assert abs(_euler_maclaurin_mean(17, 1) - 1.0) > 1e-11

    # at and next to the gate edges: m = 27 and T = 2^(m-16) - 1, and the
    # ladder tails of the benchmark and of L = 2, R = 48
    @pytest.mark.parametrize("m,T", [
        (27, (1 << 11) - 1), (27, 1), (28, (1 << 12) - 1), (36, 1 << 19),
        (36, (1 << 20) - 1), (47, 1 << 22), (48, 1 << 23), (200, 1 << 20),
        (1100, 12345)])
    def test_euler_maclaurin_against_direct(self, m, T):
        assert check_tail_regime(m, T.bit_length()) == "euler-maclaurin"
        got = fast_dyadic_quadratic_weyl(3, m + 3, T)
        assert abs(got - direct_dyadic_tail_mean(m, T)) <= 4e-16

    # from m = 27 on, the tails below 2^(m-16) take Euler-Maclaurin
    @given(case=st.integers(1, 30).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(1 << max(m - 16, 0) if m >= 27 else 1,
                                min((1 << m) - 1, 1 << 15)))))
    # the float oracle, summed term by term, is 1.9e-16 off here and the
    # split 2.6e-16, on opposite sides: 4.4e-16 apart
    @example(case=(25, 272))
    @settings(max_examples=80, deadline=None)
    def test_split_against_direct(self, case):
        m, T = case
        assert check_tail_regime(m, T.bit_length()) == "split"
        got = fast_dyadic_quadratic_weyl(0, m, T)
        assert abs(np.clongdouble(got) - precise_dyadic_tail_mean(m, T)) \
            <= 4e-16

    # the split's other edges: its first tail above the Euler-Maclaurin
    # gate at m = 30, and tails just short of the period up to m = 44,
    # whose oracle is the complete sum less a short direct one
    @pytest.mark.parametrize("m,j", [(26, 1), (31, 3), (44, 1),
                                     (44, 1 << 20)])
    def test_split_near_the_period(self, m, j):
        got = fast_dyadic_quadratic_weyl(0, m, (1 << m) - j)
        assert abs(got - near_period_mean(m, j)) <= 4e-16

    def test_sin_pi_is_relatively_exact(self):
        # sin(pi r / 2^e) near each zero of sin, where an angle rounded
        # as pi * r / 2^e would leave ~1e-10 of a 1.5e-6 value
        e = 21
        r = np.array([1, 3, (1 << e) - 1, (1 << e) + 1, (2 << e) - 1,
                      (1 << (e - 1)), 3 << (e - 1), (5 << e) + 7],
                     dtype=np.int64)
        got = _sin_pi(r, e)
        with mpmath.workdps(40):
            want = [mpmath.sin(mpmath.pi * int(x) / 2 ** e) for x in r]
        for g, w in zip(got, want):
            assert abs(g - w) <= 2.0 ** -52 * abs(w)

    def test_split_at_its_edge(self):
        assert check_tail_regime(30, 15) == "split"
        got = fast_dyadic_quadratic_weyl(0, 30, 1 << 14)
        assert abs(got - direct_dyadic_tail_mean(30, 1 << 14)) <= 4e-16


def mp_fresnel_mean(num, m):
    """int_0^1 e(c s^2) ds = (C(z) + i S(z)) / z, z = 2 sqrt(c), in 40-digit
    mpmath."""
    with mpmath.workdps(40):
        z = 2 * mpmath.sqrt(mpmath.mpf(num) / mpmath.mpf(2) ** m)
        if z == 0:
            return 1 + 0j
        return complex((mpmath.fresnelc(z) + 1j * mpmath.fresnels(z)) / z)


class TestFresnel:
    # c = num / 2^m from 2^-1000 to 2^40, closest around the branch switch
    # at c = 8: series below it, the asymptotic form from it on
    @pytest.mark.parametrize("num,m", [
        (0, 5), (1, 1000), (1, 40), (3, 40), ((1 << 40) // 7, 40),
        (5, 0), (63, 3), (64, 3), (65, 3), ((8 << 40) - 1, 40),
        (8 << 40, 40), ((8 << 40) + 1, 40), ((9 << 40) + 7, 40),
        (100, 0), (12345 << 30, 30), (1 << 40, 0), (3 ** 60, 60)])
    def test_against_mpmath(self, num, m):
        assert abs(_fresnel_mean(num, m) - mp_fresnel_mean(num, m)) <= 4e-17

    def test_fixed_point_pi(self):
        with mpmath.workdps(100):
            assert _PI_FIXED == int(mpmath.floor(mpmath.pi * 2 ** 256))
