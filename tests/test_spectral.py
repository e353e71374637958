"""Cyclic-group diagonalization, grid arcs, and variation experiments."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circlelab import (ArcParams, IntPoly, ParameterError, ResourceError,
                       average_multipliers, variation_experiment,
                       variation_values, verify_main_decomposition, weyl_sum)
from circlelab import spectral, verify
from circlelab.arith import arc_labels
from circlelab.errors import LENGTH_BUDGET
from circlelab.spectral import (_complex_normal, _pairwise_norm,
                                multiplier_variation, projections)
from oracles import (annulus_label, assert_pin_moved, average_multiplier,
                     classify_arc, eval_poly, farey_level,
                     per_row_multiplier_variation, polynomial_average,
                     polynomial_average_direct, shell_index, torus_distance)

SQUARES = IntPoly([0, 0, 1])


def random_signal(M, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(M) + 1j * rng.standard_normal(M)


class TestDFT:
    # the DFT runs on the signal, which must be finite: refused first
    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     complex(0, -math.inf)])
    def test_non_finite_rejected(self, bad, monkeypatch):
        monkeypatch.setattr(np.fft, "fft", never)
        with pytest.raises(ParameterError, match="finite"):
            variation_experiment(np.array([1, bad]), SQUARES, [1, 2], 2)


def same_bits(a, b):
    """Equal shape, dtype and bits, signed zeros and NaN payloads too."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def one_multiplier(P, N, M):
    """The library's multiplier of one K_N: a one-row stack."""
    return average_multipliers(P, [N], M)[0]


class TestAverageMultiplier:
    def test_small_example(self):
        # M=4, P=n^2, N=2: hits at 1 and 0 -> multiplier j -> (e(j/4)+1)/2
        mult = one_multiplier(SQUARES, 2, 4)
        expect = [(np.exp(2j * np.pi * j / 4) + 1) / 2 for j in range(4)]
        assert np.allclose(mult, expect, atol=1e-12)

    def test_equals_conjugated_weyl_sum(self):
        M, N = 12, 9
        mult = one_multiplier(SQUARES, N, M)
        for j in range(M):
            expect = np.conj(weyl_sum(SQUARES, N, Fraction(j, M)))
            assert mult[j] == pytest.approx(expect, abs=1e-12)

    def test_dc_component_is_one(self):
        for P in [SQUARES, IntPoly([3, 1, 0, 2])]:
            assert one_multiplier(P, 7, 16)[0] == \
                pytest.approx(1.0, abs=1e-12)

    def test_cache_returns_readonly(self):
        # no memo: a caller writing into its stack changes no later call
        mult = one_multiplier(SQUARES, 3, 8)
        expect = mult.copy()
        mult[0] = 5
        assert np.array_equal(one_multiplier(SQUARES, 3, 8), expect)

    def test_length_budget_checked_first(self):
        with pytest.raises(ResourceError):
            one_multiplier(SQUARES, LENGTH_BUDGET.limit + 1, 8)

    @given(coeffs=st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=1,
                           max_size=4),
           leading=st.integers(1, 10 ** 20),
           M=st.one_of(st.integers(1, 3000),
                       st.integers(0, 12).map(lambda e: 1 << e)),
           N=st.integers(1, 5000))
    @example(coeffs=[-3, 0], leading=1, M=1 << 12, N=(1 << 16) + 7)
    @example(coeffs=[5], leading=2, M=999, N=(1 << 17) + 1)
    @settings(max_examples=150, deadline=None)
    def test_old_histogram_oracle(self, coeffs, leading, M, N):
        # the per-n loop the multiplier ran before the residue kernel
        P = IntPoly(coeffs + [leading])
        counts = np.zeros(M, dtype=float)
        for n in range(1, N + 1):
            counts[eval_poly(P, n) % M] += 1.0
        expect = np.conj(np.fft.fft(counts)) / N
        assert np.array_equal(one_multiplier(P, N, M), expect)

    @given(coeffs=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                           max_size=3),
           leading=st.integers(1, 10 ** 6),
           M=st.one_of(st.integers(1, 3000),
                       st.integers(0, 14).map(lambda e: 1 << e)),
           Ns=st.lists(st.integers(1, 5000), min_size=1, max_size=6))
    @example(coeffs=[0, 0], leading=1, M=1000, Ns=[1, 2, 3, 5, 8, 13, 2000])
    @settings(max_examples=100, deadline=None)
    def test_stack_rows_match_one_multiplier_oracle(self, coeffs, leading, M,
                                                    Ns):
        # N > M, M not a power of two, one row or several
        P = IntPoly(coeffs + [leading])
        want = np.stack([average_multiplier(P, N, M) for N in Ns])
        assert same_bits(average_multipliers(P, Ns, M), want)

    def test_one_fft_per_stack(self, monkeypatch):
        calls = []
        fft = np.fft.fft

        def counted(*args, **kwargs):
            calls.append(args)
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        average_multipliers(SQUARES, [1, 2, 4, 8, 16], 1 << 10)
        assert len(calls) == 1

    def test_every_count_checked_before_the_stack(self, monkeypatch):
        monkeypatch.setattr(spectral, "residue_counts", never)
        monkeypatch.setattr(np.fft, "fft", never)
        with pytest.raises(ResourceError):
            average_multipliers(SQUARES, [1, 2, LENGTH_BUDGET.limit + 1], 8)
        with pytest.raises(ParameterError):
            average_multipliers(SQUARES, [1, 0], 8)
        with pytest.raises(ResourceError):
            average_multipliers(SQUARES, [1], LENGTH_BUDGET.limit + 1)


class TestComplexNormal:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3000))
    @settings(max_examples=100, deadline=None)
    def test_matches_sum_of_draws(self, seed, M):
        old, new = (np.random.default_rng(seed) for _ in range(2))
        want = old.standard_normal(M) + 1j * old.standard_normal(M)
        assert same_bits(_complex_normal(new, M), want)
        # the stream is left in step
        assert old.random() == new.random()


class TestPolynomialAverage:
    @pytest.mark.parametrize("P,M,N", [
        (SQUARES, 16, 4), (SQUARES, 31, 10),
        (IntPoly([1, 2, 0, 1]), 24, 7)])
    def test_diagonalization_matches_direct(self, P, M, N):
        f = random_signal(M, 42)
        fast = polynomial_average(f, P, N)
        direct = polynomial_average_direct(f, P, N)
        assert np.allclose(fast, direct, atol=1e-12)

    def test_constant_fixed_point(self):
        f = np.full(9, 2.5 + 1j)
        out = polynomial_average(f, SQUARES, 6)
        assert np.allclose(out, f, atol=1e-12)

    def test_contractive_in_l2(self):
        f = random_signal(64, 3)
        out = polynomial_average(f, SQUARES, 17)
        assert _pairwise_norm(out) <= _pairwise_norm(f) + 1e-10

    def test_shift_equivariance(self):
        f = random_signal(20, 4)
        a = polynomial_average(np.roll(f, 3), SQUARES, 5)
        b = np.roll(polynomial_average(f, SQUARES, 5), 3)
        assert np.allclose(a, b, atol=1e-12)


def grid_arcs(P, params, M):
    """The arc labels of the grid j/M, as `main-decomp` takes them."""
    return arc_labels(P, params, np.arange(M), M)


class TestArcProjections:
    """The 0/1 arc projections that `verify` builds from the grid labels."""

    PARAMS = ArcParams(10, 0.05, 2)

    def test_zero_frequency_is_major(self):
        arcs = grid_arcs(SQUARES, self.PARAMS, 512)
        assert arcs.major[0]
        assert arcs.dist[0] == 0 and arcs.shell[0] == math.inf

    def test_annuli_refine_major(self):
        # at s_max = 0 every Major point sits at level 0, and its shell
        # index is its annulus label
        M = 512
        arcs = grid_arcs(SQUARES, self.PARAMS, M)
        ks = set()
        for j in range(M):
            lab = classify_arc(Fraction(j, M), SQUARES, self.PARAMS)
            if lab.is_major:
                assert lab.s == 0
                ks.add(annulus_label(Fraction(j, M), SQUARES, self.PARAMS,
                                     lab))
        assert set(arcs.shell[arcs.major].tolist()) == ks


class TestGridArcs:
    """The kernel on the grid j/M against the per-point Fraction oracle."""

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(1, 3), bd=st.integers(1, 7),
           lower=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           n=st.integers(1, 48), delta=st.floats(0.01, 0.125),
           M=st.one_of(st.sampled_from([1 << e for e in range(11)]),
                       st.integers(1, 700)))
    @example(d=1, bd=1, lower=[0, 0, 0], n=8, delta=0.125, M=768)
    @example(d=1, bd=2, lower=[1, 0, 0], n=16, delta=0.125, M=1000)
    @example(d=1, bd=3, lower=[0, 0, 0], n=40, delta=0.125, M=512)
    @example(d=2, bd=1, lower=[0, 0, 0], n=24, delta=0.125, M=960)
    def test_matches_classify_arc(self, d, bd, lower, n, delta, M):
        P = IntPoly(lower[:d] + [bd])
        params = ArcParams(n, delta, d)
        assume(params.s_max <= 5)
        if params.width >= 1.0 / (2 * bd):
            for fn in (lambda: classify_arc(0, P, params),
                       lambda: grid_arcs(P, params, M)):
                with pytest.raises(ParameterError):
                    fn()
            return
        arcs = grid_arcs(P, params, M)
        for j in range(M):
            alpha = Fraction(j, M)
            lab = classify_arc(alpha, P, params)
            assert arcs.major[j] == lab.is_major
            assert arcs.shell[j] == shell_index(arcs.dist[j])
            if lab.is_major:
                assert (arcs.a[j], arcs.q[j]) == (lab.fraction.a,
                                                  lab.fraction.q)
                assert arcs.shell[j] == annulus_label(alpha, P, params, lab)

    @settings(max_examples=20, deadline=None)
    @given(bd=st.integers(1, 7), n=st.integers(8, 24),
           delta=st.floats(0.01, 0.125),
           M=st.one_of(st.sampled_from([1 << e for e in range(9)]),
                       st.integers(1, 256)))
    def test_distance_to_nearest_admitted_fraction(self, bd, n, delta, M):
        P = IntPoly([0, bd])
        params = ArcParams(n, delta, 1)
        assume(params.s_max <= 2 and params.width < 1.0 / (2 * bd))
        fracs = [fr.value for s in range(params.s_max + 1)
                 for fr in farey_level(s)]
        dist = grid_arcs(P, params, M).dist
        for j in range(M):
            x = Fraction(bd * j, M)
            assert dist[j] == min(float(torus_distance(x - v))
                                  for v in fracs)

    def test_width_boundary_is_minor(self):
        # n = 10, d = 2, delta = 0.1: w = 2^-19 exactly; at j = 2 the
        # distance to 0/1 is 2/2^20 = w, a tie, which goes to Minor
        params = ArcParams(10, 0.1, 2)
        assert params.width == 2.0 ** -19 and params.s_max == 1
        M = 1 << 20
        arcs = grid_arcs(SQUARES, params, M)
        for j in (1, 2, 3, M - 2, M - 1):
            lab = classify_arc(Fraction(j, M), SQUARES, params)
            assert arcs.major[j] == lab.is_major
        assert not arcs.major[2] and not arcs.major[M - 2]
        assert arcs.major[1] and arcs.shell[1] == 20
        assert arcs.dist[2] == 2.0 ** -19

    def test_within_two_ulp_of_width_is_minor(self):
        # this delta puts w one ulp above 17/64, the distance of j = 17
        params = ArcParams(1, 0.08746284125033968, 2)
        assert 0 < params.width - 17 / 64 <= 2 * math.ulp(params.width)
        arcs = grid_arcs(SQUARES, params, 64)
        assert not classify_arc(Fraction(17, 64), SQUARES, params).is_major
        assert not arcs.major[17]
        assert arcs.major[16] and arcs.shell[16] == 2

    def test_grid_past_level_nine(self):
        # s_max = floor(80 / 8) = 10: every point's distance is the one to
        # its nearest fraction with q < 2^11
        params = ArcParams(80, 0.125, 2)
        assert params.s_max == 10
        M = 3000
        arcs = grid_arcs(SQUARES, params, M)
        for j in range(M):
            x = Fraction(j, M)
            near = x.limit_denominator((2 << params.s_max) - 1)
            assert arcs.dist[j] == float(torus_distance(x - near))
            # w is 2^-150: only the admitted grid points themselves, those
            # whose reduced q = M / gcd(j, M) is below 2^11, are Major
            assert arcs.major[j] == (math.gcd(j, M) > 1)
            if arcs.major[j]:
                assert (arcs.a[j], arcs.q[j]) == (x.numerator, x.denominator)

    def test_modulus_checked(self, monkeypatch):
        # the kernel takes any D >= 1; main-decomp budgets its grid first
        params = ArcParams(10, 0.05, 2)
        with pytest.raises(ParameterError):
            grid_arcs(SQUARES, params, 0)
        monkeypatch.setattr(verify, "arc_labels", never)
        with pytest.raises(ResourceError):
            verify_main_decomposition(SQUARES, LENGTH_BUDGET.limit * 2, 8, 9,
                                      0.05, 0, 0.1)


def never(*args, **kwargs):
    raise AssertionError("work began before the checks")


class TestPairwiseNorm:
    @staticmethod
    def fsum_norm(values) -> float:
        """sqrt of the exactly rounded sum of the same float squares."""
        parts = []
        for z in values:
            parts += [z.real * z.real, z.imag * z.imag]
        return math.sqrt(math.fsum(parts))

    FINITE = st.floats(-1e150, 1e150, allow_nan=False)

    @given(st.one_of(st.lists(FINITE, max_size=300),
                     st.lists(st.builds(complex, FINITE, FINITE),
                              max_size=300)))
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum(self, values):
        want = self.fsum_norm(values)
        got = _pairwise_norm(np.array(values))
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("dtype", [float, complex])
    @given(st.integers(129, 20000), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_fsum_on_long_arrays(self, dtype, n, seed):
        # past numpy's 128-element pairwise blocks
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n))
        if dtype is complex:
            x = x + 1j * rng.standard_normal(n)
        want = self.fsum_norm(x.tolist())
        assert abs(_pairwise_norm(x) - want) <= 1e-13 * want

    def test_strided_input(self):
        x = np.arange(20, dtype=complex) * (1 + 2j)
        assert _pairwise_norm(x[::3]) == _pairwise_norm(x[::3].copy())

    def test_overflow_gives_inf_silently(self):
        # unscaled, like np.linalg.norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _pairwise_norm(np.array([1e200, 1.0])) == math.inf
            assert _pairwise_norm(np.array([1e200j])) == math.inf


class TestMultiplierVariation:
    @staticmethod
    def family(kind, S, M, seed):
        """fhat and an (S, M) multiplier stack on Z/M of one kind.

        "array" is a drawn complex stack and "mask" a bool stack of 0/1
        indicators, as `entropy` passes its masks; "rows" copies drawn
        rows into an empty complex stack and "indicator" the indicators.
        """
        rng = np.random.default_rng(seed)
        fhat = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        if kind in ("indicator", "mask"):
            rows = np.stack([rng.random(M) < 0.5 for _ in range(S)])
        else:
            rows = (rng.standard_normal((S, M))
                    + 1j * rng.standard_normal((S, M)))
        if kind in ("array", "mask"):
            return fhat, rows
        stack = np.empty((S, M), dtype=complex)
        np.copyto(stack, rows)
        return fhat, stack

    @given(st.sampled_from(["rows", "array", "indicator"]),
           st.integers(1, 12), st.integers(1, 300),
           st.floats(1.0, 6.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_loop(self, kind, S, M, r, seed):
        fhat, mults = self.family(kind, S, M, seed)
        want = per_row_multiplier_variation(fhat, mults, r)
        # the one 2-D ifft that smooth and main-decomp once used
        spatial = np.fft.ifft(fhat[None, :] * mults, axis=1).T
        got = multiplier_variation(fhat, mults, r, mults)  # overwrites mults
        assert got.hex() == want.hex()
        assert _pairwise_norm(variation_values(spatial, r)) == got

    @given(st.sampled_from(["array", "mask"]), st.integers(1, 12),
           st.integers(1, 300), st.floats(1.0, 6.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_out_is_the_in_place_path(self, kind, S, M, r, seed):
        # the products and the ifft go to a work stack `out`, bitwise as
        # they go to a complex copy of the stack that is its own `out`, and
        # the stack is left as it was
        fhat, mults = self.family(kind, S, M, seed)
        kept = mults.copy()
        work = np.empty((S, M), dtype=complex)
        got = multiplier_variation(fhat, mults, r, out=work)
        assert mults.tobytes() == kept.tobytes()
        stack = np.empty((S, M), dtype=complex)
        np.copyto(stack, mults)
        assert got.hex() == multiplier_variation(fhat, stack, r,
                                                 out=stack).hex()
        assert work.tobytes() == stack.tobytes()

    @pytest.mark.parametrize("kind", ["rows", "array", "indicator"])
    def test_matches_per_row_loop_over_dp_blocks(self, kind):
        # more points than one serial DP block of 4096 columns
        fhat, mults = self.family(kind, 9, 5000, 11)
        want = per_row_multiplier_variation(fhat, mults, 2.5)
        assert multiplier_variation(fhat, mults, 2.5, mults).hex() \
            == want.hex()

    @pytest.mark.parametrize("M", [4095, 4096, 4097])
    @pytest.mark.parametrize("S", [1, 2, 7])
    def test_matches_per_row_loop_at_block_edges(self, M, S):
        # S = 1 runs the DP with an empty workspace
        fhat, mults = self.family("array", S, M, M + S)
        want = per_row_multiplier_variation(fhat, mults, 3.0)
        assert multiplier_variation(fhat, mults, 3.0, mults).hex() \
            == want.hex()

    @pytest.mark.parametrize("S", [2, 5])
    def test_one_inverse_fft_per_stack(self, monkeypatch, S):
        calls = []
        ifft = np.fft.ifft

        def counted(*args, **kwargs):
            calls.append(args)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        fhat, mults = self.family("array", S, 64, 3)
        multiplier_variation(fhat, mults, 2.0, mults)
        assert len(calls) == 1

    def test_dp_cells_checked_before_the_stack_is_allocated(self,
                                                            monkeypatch):
        monkeypatch.setattr(spectral, "average_multipliers", never)
        monkeypatch.setattr(np.fft, "fft", never)
        monkeypatch.setattr(np.fft, "ifft", never)
        # 1024 points x 1000 scales: 5.1e8 DP cells
        with pytest.raises(ResourceError):
            variation_experiment(random_signal(1024, 0), SQUARES,
                                 range(1, 1001), 2.0)
        # a stack handed in is refused before its products and ifft:
        # 23171 rows of one point, 2.68e8 cells
        stack = np.zeros((23171, 1), complex)
        with pytest.raises(ResourceError):
            multiplier_variation(np.zeros(1, complex), stack, 2.0, stack)


def neighbourhood_masks(M, rows, nested):
    """An (S, M) bool stack: row s is the union of the circular
    neighbourhoods {x : |x - c| <= radius on Z/M} of its (c, radius)
    pairs, none for an empty row; `nested` keeps row 0's centres in every
    row and halves their radii from row to row."""
    if nested:
        rows = [[(c, radius >> s) for c, radius in rows[0]]
                for s in range(len(rows))]
    x = np.arange(M)
    masks = np.zeros((len(rows), M), dtype=bool)
    for mask, row in zip(masks, rows):
        for c, radius in row:
            d = np.abs(x - c)
            mask |= np.minimum(d, M - d) <= radius
    return masks


@st.composite
def neighbourhood_stacks(draw):
    """(M, rows, nested) for `neighbourhood_masks`: M = q k with q in 1,
    2, 8, 64 and 128, so gcd(M, 64) runs from 1 (every odd M) to 64 and
    K = M / gcd(M, 64) from 1 up; radii up to M/2, so that one
    neighbourhood can hold several xi of one residue mod K."""
    M = draw(st.sampled_from([1, 2, 8, 64, 128])) * draw(st.integers(1, 40))
    pair = st.tuples(st.integers(0, M - 1), st.integers(0, M // 2))
    rows = draw(st.lists(st.lists(pair, max_size=3), min_size=1,
                         max_size=6))
    return M, rows, draw(st.booleans())


class TestProjections:
    # |decimated - dense| at a point, over the largest |dense| of the
    # stack, and the relative error of the norm, in units of eps (the
    # largest seen over 3000 draws: 3.3 and 2.9)
    POINT_EPS, NORM_EPS = 16, 8

    @given(neighbourhood_stacks(), st.floats(1.0, 6.0),
           st.integers(0, 2 ** 32 - 1))
    # odd M (Q = 1), a neighbourhood across 0 and M - 1
    @example((45, [[(44, 3)], [(0, 2), (20, 1)]], False), 3.0, 1)
    # M = 64 * 5 (K = 5): xi = 0..20 meet four times on each residue,
    # nested rows; then an empty row between two others
    @example((320, [[(10, 10), (200, 4)], [], [(319, 6)]], True), 2.0, 2)
    @example((320, [[(10, 10)], [], [(319, 6)]], False), 2.0, 3)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dense_stack(self, stack, r, seed):
        M, rows, nested = stack
        masks = neighbourhood_masks(M, rows, nested)
        S = len(masks)
        fhat = random_signal(M, seed)
        dense = np.empty((S, M), dtype=complex)
        want = multiplier_variation(fhat, masks, r, out=dense)
        work = np.empty((S, M), dtype=complex)
        got = multiplier_variation(fhat, projections(masks), r, out=work)
        # column x0 K + m of the decimated stack holds the point x0 + Q m
        Q = math.gcd(M, 64)
        moved = dense.reshape(S, M // Q, Q).transpose(0, 2, 1).reshape(S, M)
        eps = np.finfo(float).eps
        assert (np.abs(work - moved).max()
                <= self.POINT_EPS * eps * np.abs(dense).max())
        assert abs(got - want) <= self.NORM_EPS * eps * want

    def test_terms_and_twiddles(self):
        # M = 3 * 64: Q = 64, K = 3; row 1 is empty
        masks = np.zeros((3, 192), dtype=bool)
        masks[0, [1, 4, 190]] = masks[2, [4, 100]] = True
        proj = projections(masks)
        assert proj.shape == (3, 192) and proj.Q == 64
        assert proj.support.tolist() == [1, 4, 100, 190]
        # e(xi x0 / 192) / 64 within about 2 ulps of the exact value
        exact = [[complex(mpmath.expjpi(mpmath.mpf(2 * (x0 * xi % 192)) / 192))
                  for xi in proj.support.tolist()] for x0 in range(64)]
        assert np.abs(proj.twiddles * 64 - np.array(exact)).max() <= 5e-16
        # x0 = 1: xi = 1, 4 and 190 land on 3 + (xi mod 3), 1 and 4 on
        # the same point; row 2 starts at 2 * 192
        assert proj.index.reshape(64, 5)[1].tolist() == [
            4, 4, 4, 2 * 192 + 4, 2 * 192 + 4]
        assert proj.take.reshape(64, 5)[1].tolist() == [
            4 + 0, 4 + 1, 4 + 3, 4 + 1, 4 + 2]

    def test_one_inverse_fft_of_length_k(self, monkeypatch):
        calls = []
        ifft = np.fft.ifft

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        masks = neighbourhood_masks(64 * 6, [[(5, 9)], [(5, 2)]], False)
        multiplier_variation(random_signal(64 * 6, 0), projections(masks),
                             3.0, np.empty((2, 64 * 6), dtype=complex))
        assert calls == [(2, 64, 6)]


class TestVariationExperiment:
    def test_constant_signal_zero_variation(self):
        val = variation_experiment(np.ones(16), SQUARES, [1, 2, 4, 8], 2)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_eigenvector_reduces_to_scalar_variation(self):
        # f = pure frequency j: K_N f = mult_N[j] f, so the experiment equals
        # the scalar variation of the multiplier values
        from circlelab import IndexedSeq, variation
        M, j = 32, 5
        f = np.exp(2j * np.pi * j * np.arange(M) / M)
        scales = [1, 3, 9, 27]
        mults = average_multipliers(SQUARES, scales, M)[:, j]
        expect = variation(IndexedSeq.from_values(mults), 2).value
        val = variation_experiment(f, SQUARES, scales, 2)
        assert val == pytest.approx(expect, abs=1e-10)

    def test_phase_invariance(self):
        f = random_signal(64, 7)
        g = f * np.exp(0.7j)
        scales = [1, 2, 4, 8, 16]
        assert variation_experiment(f, SQUARES, scales, 2) == \
            pytest.approx(variation_experiment(g, SQUARES, scales, 2),
                          abs=1e-10)

    def test_scales_validated(self):
        f = random_signal(8, 8)
        with pytest.raises(ParameterError):
            variation_experiment(f, SQUARES, [4, 2], 2)
        with pytest.raises(ParameterError):
            variation_experiment(f, SQUARES, [], 2)

    @pytest.mark.parametrize("scales,error", [
        ([0, 1], ParameterError),
        ([1, 2, 4, LENGTH_BUDGET.limit + 1], ResourceError)])
    def test_scales_checked_before_any_fft(self, monkeypatch, scales, error):
        f = random_signal(8, 8)
        monkeypatch.setattr(np.fft, "fft", never)
        with pytest.raises(error):
            variation_experiment(f, SQUARES, scales, 2)

    def test_zero_signal_checked_before_any_fft(self, monkeypatch):
        monkeypatch.setattr(np.fft, "fft", never)
        with pytest.raises(ParameterError):
            variation_experiment(np.zeros(8), SQUARES, [1, 2], 2)

    def test_bad_signal_checked_before_any_fft(self, monkeypatch):
        # the signal is a non-empty 1-D array (TestDFT: and finite)
        monkeypatch.setattr(spectral, "average_multipliers", never)
        monkeypatch.setattr(np.fft, "fft", never)
        for signal in (np.zeros(0), [], np.ones((2, 4)), [[1.0]], 1.0):
            with pytest.raises(ParameterError):
                variation_experiment(signal, SQUARES, [1, 2], 2)

    def test_signal_length_budget(self, monkeypatch):
        # M = len(f) has the modulus budget of the CLI's --modulus
        monkeypatch.setattr(np.fft, "fft", never)
        big = np.ones(LENGTH_BUDGET.limit + 1, dtype=complex)
        with pytest.raises(ResourceError, match="modulus M"):
            variation_experiment(big, SQUARES, [1, 2], 2)

    def test_signal_is_not_copied(self, monkeypatch):
        # the DFT reads the caller's complex array itself
        f = random_signal(16, 1)
        seen = []
        fft = np.fft.fft

        def recorded(x, *args, **kwargs):
            seen.append(x)
            return fft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recorded)
        variation_experiment(f, SQUARES, [1, 2], 2)
        assert seen[0] is f

    # (poly, M, signal seed, scales, r), the result as float.hex, and the
    # pin it replaced where that moved: recorded when the norms were
    # np.linalg.norm, whose BLAS dot sums in another order
    PINNED = [
        ((0, 0, 1), 1024, 3, (1, 2, 4, 8, 16, 32, 64), 2.0,
         "0x1.3e332e8b71c5bp+0", "0x1.3e332e8b71c5cp+0"),
        ((0, 0, 0, 1), 512, 4, (1, 3, 5, 9, 17), 3.0, "0x1.1bbb28f9cba46p+0",
         None),
        ((0, 1, 3), 300, 5, (2, 3, 4, 5, 6, 7), 2.5, "0x1.6c7e4335ac39bp-1",
         "0x1.6c7e4335ac39ap-1"),
    ]

    @pytest.mark.parametrize("poly,M,seed,scales,r,want,was", PINNED,
                             ids=["squares", "cubes", "0,1,3"])
    def test_pinned(self, poly, M, seed, scales, r, want, was):
        f = random_signal(M, seed)
        assert variation_experiment(f, IntPoly(list(poly)), scales,
                                    r).hex() == want
        if was is not None:
            assert_pin_moved(want, was)
