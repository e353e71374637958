"""Variation functionals against a brute-force subsequence-enumeration oracle."""

import itertools
import math
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from circlelab import (IndexedSeq, ParameterError, ResourceError,
                       long_variation, short_variation, variation,
                       variation_values)
from circlelab import spectral, varnorm
from circlelab.errors import DP_CELL_BUDGET, RUN_DP_CELL_BUDGET, check_budget
from circlelab.varnorm import (PAR_MIN_CELLS, _best_power_sums,
                               _dp_workspace, _optimal_chain, _power,
                               check_dp_cells)

from oracles import recomputed_chain, recomputed_predecessors


def check_run_cells(calls, rows, S, lower):
    """The run budget's check of `calls` DP calls over `rows` families of
    length S, as `smooth` and the coefficient search make it."""
    check_budget(RUN_DP_CELL_BUDGET, calls * rows * (S * (S - 1) // 2),
                 "the run", lower)


def brute_force_variation(values, r):
    """Enumerate every increasing subsequence (exponential, oracle only)."""
    n = len(values)
    best = 0.0
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            total = sum(abs(values[b] - values[a]) ** r
                        for a, b in zip(combo, combo[1:]))
            best = max(best, total)
    return best ** (1.0 / r)


def sup_variation(seq):
    """V^infinity: the largest pairwise gap |f_i - f_j| (oracle only)."""
    vals = np.asarray(seq.values, dtype=complex)
    return float(max(
        (abs(vals[j] - vals[i]) for i in range(len(vals))
         for j in range(i + 1, len(vals))), default=0.0))


def loop_best_power_sums(values, r):
    """The DP as one broadcast step per slot over every leading axis.

    This was the library kernel before the block kernels; it stays as
    their bitwise oracle.  |.|^r is the kernel's own power rule, which
    TestPowerRule checks against `**`.
    """
    values = np.ascontiguousarray(values, dtype=complex)
    best = np.zeros(values.shape, dtype=float)
    with np.errstate(over="ignore"):
        for j in range(1, values.shape[-1]):
            cand = best[..., :j] + _power(values[..., j:j + 1]
                                          - values[..., :j], r)
            best[..., j] = np.maximum(cand.max(axis=-1), 0.0)
    return best


def assert_bitwise_equal(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def power_sum(f, chain, r):
    """sum |f(b) - f(a)|^r over consecutive indices a < b of the chain."""
    return sum(abs(f[b] - f[a]) ** r for a, b in zip(chain, chain[1:]))


small_complex = st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False)
# (indices, values): up to 10 values at sorted distinct indices in [1, 64]
indexed_values = st.lists(small_complex, min_size=1, max_size=10).flatmap(
    lambda vals: st.tuples(
        st.lists(st.integers(1, 64), min_size=len(vals), max_size=len(vals),
                 unique=True).map(sorted),
        st.just(vals)))
exponents = st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0])


class TestVariation:
    def test_alternating_example(self):
        seq = IndexedSeq.from_values([0, 1, 0, 1])
        res = variation(seq, 2)
        assert res.value == pytest.approx(math.sqrt(3), abs=1e-12)
        assert res.optimal_subsequence == (1, 2, 3, 4)

    def test_monotone_r1_telescopes(self):
        seq = IndexedSeq.from_values([0, 1, 3, 7, 10])
        assert variation(seq, 1).value == pytest.approx(10.0, abs=1e-12)

    def test_singleton(self):
        assert variation(IndexedSeq.from_values([5]), 2).value == 0.0

    def test_from_values_reads_an_iterator_once(self):
        seq = IndexedSeq.from_values(iter([1, 2j, 3]))
        assert seq.indices == (1, 2, 3) and seq.values == (1, 2j, 3)

    def test_constant_sequence(self):
        assert variation(IndexedSeq.from_values([2, 2, 2]), 3).value == 0.0

    def test_r_below_one_rejected(self):
        with pytest.raises(ParameterError):
            variation(IndexedSeq.from_values([0, 1]), 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            variation(IndexedSeq([], []), 2)

    @pytest.mark.parametrize("fn", [variation, long_variation,
                                    short_variation])
    def test_power_overflow_is_inf(self, fn):
        # |1e200|^2 overflows a double: the value is inf, not an error
        res = fn(IndexedSeq([1, 2], [0, 1e200]), 2)
        assert res.value == math.inf
        assert res.optimal_subsequence == (1, 2)

    @given(st.lists(small_complex, min_size=2, max_size=7),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, values, r):
        res = variation(IndexedSeq.from_values(values), r)
        oracle = brute_force_variation(values, r)
        assert res.value == pytest.approx(oracle, abs=1e-9, rel=1e-9)

    @given(st.lists(small_complex, min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_in_r(self, values):
        seq = IndexedSeq.from_values(values)
        v2 = variation(seq, 2).value
        v3 = variation(seq, 3).value
        assert v3 <= v2 + 1e-9

    @given(st.lists(small_complex, min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sup_variation_lower_bound(self, values):
        seq = IndexedSeq.from_values(values)
        assert sup_variation(seq) <= variation(seq, 2).value + 1e-9


class TestLongShort:
    def test_long_restricts_to_powers_of_two(self):
        seq = IndexedSeq([1, 2, 3, 4, 5, 8], [0, 1, 5, 0, 9, 1])
        res = long_variation(seq, 2)
        # only indices 1, 2, 4, 8 participate
        oracle = brute_force_variation([0, 1, 0, 1], 2)
        assert res.value == pytest.approx(oracle, abs=1e-12)
        assert all(i & (i - 1) == 0 for i in res.optimal_subsequence)

    def test_long_empty_when_no_dyadic_indices(self):
        seq = IndexedSeq([3, 5, 6], [1, 2, 3])
        assert long_variation(seq, 2).value == 0.0

    def test_short_single_block_equals_full(self):
        # indices 4, 5, 6, 8 and 8, 9 span blocks [4, 8] and [8, 16]
        seq = IndexedSeq([4, 5, 6, 8, 9], [0, 1, 0, 1, 1])
        res = short_variation(seq, 2)
        block1 = brute_force_variation([0, 1, 0, 1], 2) ** 2
        block2 = 0.0  # values at 8 and 9 coincide
        assert res.value == pytest.approx((block1 + block2) ** 0.5, abs=1e-12)

    def test_short_of_no_values_rejected(self):
        with pytest.raises(ParameterError, match="non-empty"):
            short_variation(IndexedSeq([], []), 2)

    def test_short_endpoint_in_two_blocks(self):
        # index 4 belongs to [2, 4] and to [4, 8]
        seq = IndexedSeq([2, 4, 8], [0, 1, 0])
        res = short_variation(seq, 2)
        assert res.value == pytest.approx(math.sqrt(2), abs=1e-12)

    @given(st.lists(small_complex, min_size=2, max_size=8),
           st.sampled_from([2.0, 3.0]))
    @settings(max_examples=150, deadline=None)
    def test_split_inequality(self, values, r):
        """V^r <= 3 (long + short): the dyadic splitting bound."""
        seq = IndexedSeq.from_values(values)
        full = variation(seq, r).value
        split = long_variation(seq, r).value + short_variation(seq, r).value
        assert full <= 3.0 * split + 1e-9

    @given(st.lists(small_complex, min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_parts_bounded_by_full(self, values):
        seq = IndexedSeq.from_values(values)
        full = variation(seq, 2).value
        assert long_variation(seq, 2).value <= full + 1e-9
        assert short_variation(seq, 2).value <= full + 1e-9


class TestVectorized:
    @given(st.lists(st.lists(small_complex, min_size=2, max_size=6),
                    min_size=1, max_size=5).filter(
               lambda rows: len({len(r) for r in rows}) == 1),
           st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_dp(self, rows, r):
        arr = np.array(rows, dtype=complex)
        vec = variation_values(arr, r)
        for i, row in enumerate(rows):
            # the scalar path shares this DP, so the oracle is enumeration
            oracle = brute_force_variation(row, r)
            assert vec[i] == pytest.approx(oracle, abs=1e-9, rel=1e-9)

    def test_shape_preserved(self):
        arr = np.zeros((3, 4, 5))
        assert variation_values(arr, 2).shape == (3, 4)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 4, 0), (0, 0)])
    def test_empty_families_rejected(self, shape, monkeypatch):
        # as `variation` refuses an empty sequence, before any DP work
        def never(*args, **kwargs):
            raise AssertionError("work began before the shape check")

        monkeypatch.setattr(varnorm, "_dp_workspace", never)
        with pytest.raises(ParameterError, match="non-empty"):
            variation_values(np.zeros(shape), 2)


EXPONENTS = (1.0, 1.5, 2.0, 3.0, 7.0)
# row counts around the kernel's 4096-row blocks
BLOCK_ROWS = (1, 4095, 4096, 4097, 8193)


def random_values(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def loop_variation_values(values, r):
    """variation_values by the broadcast loop: the max over chain ends."""
    return loop_best_power_sums(values, r).max(axis=-1) ** (1.0 / r)


class TestBlockKernel:
    """variation_values is bitwise equal to the broadcast loop's column max,
    and the slot-major kernel to the loop on every column."""

    @pytest.mark.parametrize("rows,S,r", [
        *[(rows, S, r) for rows in BLOCK_ROWS for S in (1, 2)
          for r in EXPONENTS],
        *[(rows, 64, r) for rows, r in zip(BLOCK_ROWS, EXPONENTS)]])
    def test_block_boundaries(self, rows, S, r):
        values = random_values((rows, S), rows * 101 + S)
        assert_bitwise_equal(variation_values(values, r),
                             loop_variation_values(values, r))
        # slot-major: the (rows, S) view of an (S, rows) array
        slot_major = np.ascontiguousarray(values.T).T
        assert_bitwise_equal(variation_values(slot_major, r),
                             loop_variation_values(values, r))

    @given(st.lists(st.integers(0, 5), max_size=2),
           st.sampled_from([1, 2, 3, 7, 64]), st.sampled_from(EXPONENTS),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_leading_shapes(self, lead, S, r, seed, lattice):
        shape = (*lead, S)
        if lattice:
            # small Gaussian integers: many equal values and equal gaps
            rng = np.random.default_rng(seed)
            values = (rng.integers(-2, 3, shape)
                      + 1j * rng.integers(-2, 3, shape))
        else:
            values = random_values(shape, seed)
        assert_bitwise_equal(variation_values(values, r),
                             loop_variation_values(values, r))

    @given(arrays(complex, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                  elements=st.complex_numbers(max_magnitude=1e300,
                                              allow_nan=False,
                                              allow_infinity=False)),
           st.sampled_from(EXPONENTS))
    @settings(max_examples=200, deadline=None)
    def test_drawn_values(self, values, r):
        assert_bitwise_equal(variation_values(values, r),
                             loop_variation_values(values, r))

    @pytest.mark.parametrize("r", EXPONENTS)
    def test_overflow_to_inf(self, r):
        # the gaps overflow in |.|^r for r >= 2 (1e200) and in the
        # subtraction itself (+-1e308)
        values = random_values((4097, 6), 7)
        values[::3, 1] = 1e200
        values[1::3, 3] = -1e308 + 1e308j
        values[::2, 4] = 1e308
        top = variation_values(values, r)
        assert np.isinf(top).any() and not np.isnan(top).any()
        assert_bitwise_equal(top, loop_variation_values(values, r))

    @pytest.mark.parametrize("M,S", [(256, 17), (4097, 6), (5000, 16)])
    def test_transposed_views(self, M, S):
        # every experiment passes the (M, S) view of its (S, M) FFT rows
        spatial = np.fft.ifft(random_values((S, M), M), axis=1).T
        assert not spatial.flags.c_contiguous
        for r in (2.0, 3.0):
            top = variation_values(spatial, r)
            assert_bitwise_equal(top, loop_variation_values(spatial, r))
            assert_bitwise_equal(
                top, variation_values(np.ascontiguousarray(spatial), r))

    def test_real_input(self):
        values = np.random.default_rng(3).standard_normal((4100, 5))
        assert_bitwise_equal(variation_values(values, 3.0),
                             loop_variation_values(values, 3.0))

    @pytest.mark.parametrize("S,cols", [(1, 3), (2, 1), (6, 4097), (64, 33)])
    @pytest.mark.parametrize("r", EXPONENTS)
    def test_slot_major_kernel(self, S, cols, r):
        # the bare DP on (S, cols): one family per column, on a C-ordered
        # array and on a column block of a wider one
        v = random_values((S, 2 * cols), S * 7 + cols)
        for block in (np.ascontiguousarray(v[:, :cols]), v[:, cols:]):
            assert_bitwise_equal(_best_power_sums(block, r,
                                                  _dp_workspace(S, cols)),
                                 loop_best_power_sums(block.T, r).T)

    @pytest.mark.parametrize("r", EXPONENTS)
    def test_workspace_contents_are_never_read(self, r):
        # the kernel sets the table's row 0 itself: a workspace full of NaN,
        # and one left by narrower blocks before a wider one, give the
        # table of a fresh one
        v = random_values((9, 40), 9)
        want = loop_best_power_sums(v.T, r).T
        dirty = _dp_workspace(9, 40)
        for buf in dirty:
            buf.fill(np.nan)
        assert_bitwise_equal(_best_power_sums(v, r, dirty), want)
        for cols in (7, 40, 13, 29, 40):
            block = np.ascontiguousarray(v[:, :cols])
            assert_bitwise_equal(_best_power_sums(block, r, dirty),
                                 want[:, :cols])


# r = 2.5 takes pow, as every r but 2 and 3 does
CHAIN_EXPONENTS = (1.0, 2.0, 3.0, 2.5)


def gaussian_integers(shape, seed):
    """Values in {-2, ..., 2} + i {-2, ..., 2}: many equal values and
    equal gaps, so that candidates tie."""
    rng = np.random.default_rng(seed)
    return rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)


class TestChainMode:
    """The kernel's chain mode writes each cell's first maximal
    predecessor, as the candidates recomputed from the default mode's
    table give it, and leaves the power sums bitwise as they are."""

    @given(st.integers(1, 9), st.integers(1, 12), st.sampled_from(
        CHAIN_EXPONENTS), st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_table_matches_recomputed_predecessors(self, S, cols, r, seed,
                                                   lattice):
        if lattice:
            v = gaussian_integers((S, cols), seed)
        else:
            v = random_values((S, cols), seed)
        want = _best_power_sums(v, r, _dp_workspace(S, cols)).copy()
        pred = np.full((S, cols), -7, dtype=np.intp)
        got = _best_power_sums(v, r, _dp_workspace(S, cols), pred)
        assert_bitwise_equal(got, want)
        assert np.array_equal(pred, recomputed_predecessors(v, r))

    @given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False).map(
        lambda z: complex(round(z.real), round(z.imag))),
        min_size=1, max_size=10), st.sampled_from(CHAIN_EXPONENTS))
    @settings(max_examples=300, deadline=None)
    def test_chains_match_the_recompute_loop(self, values, r):
        # small Gaussian integers: ties among candidates and chain ends
        assert _optimal_chain(values, r) == recomputed_chain(values, r)

    @pytest.mark.parametrize("r", CHAIN_EXPONENTS)
    def test_ties_take_the_first_maximal_predecessor(self, r):
        # 0, 1, 1: slot 2's candidates 0 + 1 (from 0) and 1 + 0 (from 1)
        # tie, and the table ties at slots 1 and 2, so the chain is 0, 1
        v = np.array([[0], [1], [1]], dtype=complex)
        pred = np.empty(v.shape, dtype=np.intp)
        _best_power_sums(v, r, _dp_workspace(3, 1), pred)
        assert pred[:, 0].tolist() == [0, 0, 0]
        assert _optimal_chain([0, 1, 1], r) == (1.0, [0, 1])
        # on small Gaussian integers many cells tie; each takes the least
        # maximal i
        v = gaussian_integers((6, 4096), 11)
        pred = np.empty(v.shape, dtype=np.intp)
        table = _best_power_sums(v, r, _dp_workspace(6, 4096), pred)
        ties = 0
        for j in range(1, 6):
            at_max = table[:j] + _power(v[j] - v[:j], r) == table[j]
            ties += int((at_max.sum(axis=0) > 1).sum())
            assert np.array_equal(pred[j], at_max.argmax(axis=0))
        assert ties > 1000

    @pytest.mark.parametrize("r", CHAIN_EXPONENTS)
    def test_dirty_workspace_and_table(self, r):
        # neither the workspace's nor the table's contents are read
        v = random_values((7, 300), 5)
        want = recomputed_predecessors(v, r)
        work = _dp_workspace(7, 300)
        for buf in work:
            buf.fill(np.nan)
        pred = np.full((7, 300), 123456, dtype=np.intp)
        _best_power_sums(v, r, work, pred)
        assert np.array_equal(pred, want)


def ulps(a, b):
    """|a - b| in units in the last place, elementwise, for a, b >= 0."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


# every non-negative double: subnormals, exact powers and overflowing cubes
non_negative = st.floats(min_value=0.0, allow_infinity=False)


def assert_rounded_squares(got, d):
    """Each of got is within 2 ulps of |z|^2 for its z of d, summed in 60
    digits and rounded once, and inf where that square rounds to inf, but
    for squares within an ulp of the overflow threshold (2^1024 - 2^970,
    the largest double plus half its ulp)."""
    got, d = np.ravel(got), np.ravel(d)
    with mpmath.workdps(60):
        threshold = mpmath.mpf((1 << 1024) - (1 << 970))
        exact = [mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2
                 for z in d]
        judged = np.array([abs(e - threshold) >= 2 ** 971 for e in exact])
        want = np.array([float(e) for e in exact])
    got, want = got[judged], want[judged]
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = ~np.isinf(want)
    assert ulps(got[finite], want[finite]).max(initial=0) <= 2
    return judged


class TestPowerRule:
    """The DP's |.|^r: r = 2 by re^2 + im^2, r = 3 by two
    multiplications, every other r `**`."""

    @given(arrays(complex, st.integers(1, 50),
                  elements=st.complex_numbers(allow_nan=False,
                                              allow_infinity=False)))
    @settings(max_examples=300, deadline=None)
    def test_square_within_two_ulps_of_exact(self, d):
        # every finite complex: subnormal parts, parts of far apart
        # scales and squares that overflow
        with np.errstate(over="ignore"):
            got = _power(d.copy(), 2.0)
        assert_rounded_squares(got, d)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_real_or_imaginary_square_is_abs_squared(self, xs):
        # re^2 + 0 and 0 + im^2 are fl(|d|)^2 to the bit, so a family of
        # real (or imaginary) values keeps every pin it had
        x = np.array(xs)
        for d in (x + 0j, x * 1j):
            with np.errstate(over="ignore"):
                assert_bitwise_equal(_power(d.copy(), 2.0), np.abs(d) ** 2)

    def test_square_overflow_edge(self):
        # |d| within 2^17 ulps of the square root of the largest double,
        # and within 4, at random angles: inf where the rounded exact
        # square overflows, but for squares within an ulp of the
        # threshold, where re^2 + im^2 may round either way
        rng = np.random.default_rng(0)
        k = np.concatenate([rng.integers(-1 << 17, 1 << 17, 1 << 13),
                            rng.integers(-4, 5, 1 << 13)])
        m = np.sqrt(np.finfo(float).max) * (1 + k * 2.0 ** -52)
        angle = rng.uniform(0, 2 * np.pi, len(k))
        d = m * np.cos(angle) + 1j * (m * np.sin(angle))
        with np.errstate(over="ignore"):
            got = _power(d.copy(), 2.0)
        assert np.isinf(got).any() and not np.isinf(got).all()
        judged = assert_rounded_squares(got, d)
        assert not judged.all()

    def test_square_is_sqrt12_correctly_rounded(self):
        # the chain 0, 1, 2j, 1, 0 of this family has squares 1, 5, 5, 1:
        # fl(|1 - 2j|)^2 is 5 + 1 ulp, so squaring |.| read one ulp high
        seq = IndexedSeq([1, 2, 3, 4, 6, 8, 9, 16],
                         [0, 1, 1, 0, 2j, 2j, 1, 0])
        got = variation(seq, 2.0)
        assert got.value == math.sqrt(12.0)
        assert got.optimal_subsequence == (1, 2, 6, 9, 16)

    @given(st.lists(non_negative, min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_cube_within_one_ulp_of_pow(self, xs):
        x = np.array(xs)
        with np.errstate(over="ignore"):
            want = x ** 3.0
            got = _power(x.astype(complex), 3.0)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert ulps(got, want).max() <= 1

    @given(st.lists(non_negative, min_size=1, max_size=50),
           st.sampled_from([1.0, 1.5, 2.0, 7.0]))
    @settings(max_examples=200, deadline=None)
    def test_other_exponents_are_pow(self, xs, r):
        x = np.array(xs)
        with np.errstate(over="ignore"):
            assert_bitwise_equal(_power(x.astype(complex), r), x ** r)

    def test_cube_overflow_edge(self):
        # every double within 2^17 ulps of the cube root of the largest
        # double: inf exactly where pow overflows
        edge = np.cbrt(np.finfo(float).max)
        x = edge * (1 + np.arange(-1 << 17, 1 << 17) * 2.0 ** -52)
        with np.errstate(over="ignore"):
            want = x ** 3.0
            got = _power(x.astype(complex), 3.0)
        assert np.isinf(want).any() and not np.isinf(want).all()
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert ulps(got[~np.isinf(got)], want[~np.isinf(want)]).max() <= 1

    @given(arrays(complex, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                  elements=st.complex_numbers(max_magnitude=1e300,
                                              allow_nan=False,
                                              allow_infinity=False)))
    @settings(max_examples=150, deadline=None)
    def test_kernel_pairs_are_cubes(self, pairs):
        # a family of two values has the one chain: its power sum is the
        # cube of its gap, formed in the kernel's own buffers
        v = np.ascontiguousarray(pairs.T[[0, -1]])
        gap = np.abs(v[1] - v[0])
        with np.errstate(over="ignore"):
            want = gap ** 3.0
        got = _best_power_sums(v, 3.0, _dp_workspace(2, v.shape[1]))[1]
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert ulps(got, want).max() <= 1

    @given(arrays(complex, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                  elements=st.complex_numbers(max_magnitude=1e300,
                                              allow_nan=False,
                                              allow_infinity=False)))
    @settings(max_examples=150, deadline=None)
    def test_kernel_pairs_are_squares(self, pairs):
        # a family of two values has the one chain: its power sum is the
        # square of its gap, formed in the kernel's own buffers
        v = np.ascontiguousarray(pairs.T[[0, -1]])
        with np.errstate(over="ignore"):
            gap = v[1] - v[0]
        got = _best_power_sums(v, 2.0, _dp_workspace(2, v.shape[1]))[1]
        assert_rounded_squares(got, gap)


class TestLastRowMaxima:
    """The column max of the DP table, all that `variation_values` keeps of
    it, is the table's last row."""

    @given(arrays(complex, st.tuples(st.integers(1, 8), st.integers(1, 6)),
                  elements=st.complex_numbers(max_magnitude=1e300,
                                              allow_nan=False,
                                              allow_infinity=False)),
           st.sampled_from(EXPONENTS), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_top_is_the_table_max(self, values, r, lattice):
        if lattice:
            # ties everywhere: small Gaussian integers
            values = np.round(values / 1e300 * 2)
        S, cols = values.shape
        table = _best_power_sums(values, r, _dp_workspace(S, cols))
        assert (table[1:] >= table[:-1]).all()
        assert_bitwise_equal(variation_values(values.T, r),
                             table.max(axis=0) ** (1.0 / r))

    @pytest.mark.parametrize("r", EXPONENTS)
    def test_overflow_columns(self, r, monkeypatch):
        # 50 columns in blocks of 16, 16, 16 and 2
        monkeypatch.setattr(varnorm, "DP_BLOCK_ROWS", 16)
        values = random_values((6, 50), 3)
        values[1, ::3] = 1e200
        values[3, 1::3] = -1e308 + 1e308j
        values[4, ::2] = 1e308
        top = variation_values(values.T, r)
        assert np.isinf(top).any()
        table = _best_power_sums(values, r, _dp_workspace(6, 50))
        assert_bitwise_equal(top, table.max(axis=0) ** (1.0 / r))


class TestSplitDP:
    """A call split across workers is bitwise equal to the serial path and
    to the broadcast loop: each column's DP is the same on any worker."""

    @pytest.fixture
    def split(self, monkeypatch):
        """split(W): every call at or over the gate of 0 cells runs on
        min(W, blocks) workers; returns the list of threads started."""
        started = []
        real_thread = threading.Thread

        def thread(*args, **kwargs):
            t = real_thread(*args, **kwargs)
            started.append(t)
            return t

        def split(workers):
            monkeypatch.setattr(varnorm, "PAR_MIN_CELLS", 0)
            monkeypatch.setattr(varnorm, "_cpus", lambda: workers)
            monkeypatch.setattr(varnorm.threading, "Thread", thread)
            return started

        return split

    @pytest.mark.parametrize("rows", (1, 2, 4095, 4097, 8193))
    @pytest.mark.parametrize("S", (1, 2, 16, 64))
    def test_matches_serial_and_loop(self, rows, S, split):
        r = EXPONENTS[(rows + S) % len(EXPONENTS)]
        values = random_values((rows, S), rows * 31 + S)
        want = loop_variation_values(values, r)
        assert_bitwise_equal(variation_values(values, r), want)
        # one worker is the serial path over the split blocks
        for workers in (1, 2, 3, 8):
            started = split(workers)
            assert_bitwise_equal(variation_values(values, r), want)
            # at least two blocks, at most one per row; the caller is the
            # first worker
            width = varnorm._block_columns(S, split=True)
            blocks = min(max(-(-rows // width), 2), rows)
            assert len(started) == min(workers, blocks) - 1
            started.clear()

    @pytest.mark.parametrize("workers", (2, 3))
    @pytest.mark.parametrize("r", EXPONENTS)
    def test_overflow_to_inf(self, workers, r, split):
        values = random_values((4097, 6), 7)
        values[::3, 1] = 1e200
        values[1::3, 3] = -1e308 + 1e308j
        values[::2, 4] = 1e308
        serial = variation_values(values, r)
        split(workers)
        top = variation_values(values, r)
        assert np.isinf(top).any() and not np.isnan(top).any()
        assert_bitwise_equal(top, serial)
        assert_bitwise_equal(top, loop_variation_values(values, r))

    @pytest.mark.parametrize("rows", (12288, 20480, 20481, 40000))
    def test_odd_block_counts(self, rows, split):
        # 3, 5, 6 and 10 blocks' worth of columns (S = 12, 4096 columns
        # a block), which no longer need dealing out in turn
        r = EXPONENTS[rows % len(EXPONENTS)]
        values = random_values((rows, 12), rows)
        want = loop_variation_values(values, r)
        for workers in (2, 3, 8):
            started = split(workers)
            assert_bitwise_equal(variation_values(values, r), want)
            assert len(started) == min(workers, -(-rows // 4096)) - 1
            started.clear()

    @pytest.mark.parametrize("rows,S", [(7, 2), (256, 256), (8193, 4),
                                        (12288, 12), (20481, 12)])
    @pytest.mark.parametrize("workers", (2, 3, 8))
    def test_adjacent_columns_per_worker(self, rows, S, workers, split,
                                         monkeypatch):
        # the columns each call of the kernel reads, found from where its
        # (S, c) view starts in the (S, rows) array that the DP reads
        split(workers)
        values = random_values((S, rows), rows + S)
        seen = []
        real = varnorm._best_power_sums

        def recorded(v, r, work):
            first = (v.ctypes.data - values.ctypes.data) // v.itemsize
            seen.append((threading.current_thread(), first, v.shape[1]))
            return real(v, r, work)

        monkeypatch.setattr(varnorm, "_best_power_sums", recorded)
        assert_bitwise_equal(variation_values(values.T, 2.0),
                             loop_variation_values(values.T, 2.0))
        width = varnorm._block_columns(S, split=True)
        runs = {}
        for thread, first, cols in seen:
            assert 0 < cols <= width
            runs.setdefault(thread, []).append((first, cols))
        assert len(runs) == min(workers, max(-(-rows // width), 2), rows)
        spans = []
        for blocks in runs.values():
            # one adjacent run of columns, in as few blocks as fit in it
            blocks.sort()
            for (a, cols), (b, _) in zip(blocks, blocks[1:]):
                assert b == a + cols
            start, end = blocks[0][0], blocks[-1][0] + blocks[-1][1]
            assert len(blocks) == -(-(end - start) // width)
            spans.append((start, end))
        # the runs tile the columns, the caller's first, and differ in
        # width by at most one column
        spans.sort()
        assert min(runs[threading.main_thread()])[0] == 0
        assert spans[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        widths = [end - start for start, end in spans]
        assert max(widths) - min(widths) <= 1

    @pytest.mark.parametrize("M,S", [(256, 17), (4097, 6), (5000, 16)])
    def test_transposed_views(self, M, S, split):
        spatial = np.fft.ifft(random_values((S, M), M), axis=1).T
        serial = variation_values(spatial, 3.0)
        for workers in (2, 3):
            split(workers)
            assert_bitwise_equal(variation_values(spatial, 3.0), serial)
            assert_bitwise_equal(variation_values(
                np.ascontiguousarray(spatial), 3.0), serial)
        assert_bitwise_equal(serial, loop_variation_values(spatial, 3.0))

    def test_worker_exception_reaches_caller(self, split, monkeypatch):
        split(3)
        real = varnorm._best_power_sums

        def fail_off_caller(v, r, work):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("worker failed")
            return real(v, r, work)

        monkeypatch.setattr(varnorm, "_best_power_sums", fail_off_caller)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker failed"):
            variation_values(random_values((9000, 4), 5), 2.0)
        # every worker was joined before the exception left the call
        assert threading.active_count() == before

    def test_caller_exception_joins_workers(self, split, monkeypatch):
        started = split(2)
        real = varnorm._best_power_sums

        def fail_on_caller(v, r, work):
            if threading.current_thread() is threading.main_thread():
                raise FloatingPointError("caller failed")
            return real(v, r, work)

        monkeypatch.setattr(varnorm, "_best_power_sums", fail_on_caller)
        with pytest.raises(FloatingPointError, match="caller failed"):
            variation_values(random_values((8192, 4), 5), 2.0)
        assert len(started) == 1 and not started[0].is_alive()

    def test_below_the_gate_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started below the gate")

        monkeypatch.setattr(varnorm, "_cpus", lambda: 2)
        monkeypatch.setattr(varnorm.threading, "Thread", no_thread)
        # 8192 x 8 (229K cells), the search's 8192 x 5, and one cell
        # under the gate
        for shape in [(8192, 8), (8192, 5), (PAR_MIN_CELLS - 1, 2)]:
            values = random_values(shape, shape[1])
            assert_bitwise_equal(variation_values(values, 2.0),
                                 loop_variation_values(values, 2.0))

    def test_at_the_gate_splits(self, monkeypatch):
        started = []
        real_thread = threading.Thread

        def thread(*args, **kwargs):
            t = real_thread(*args, **kwargs)
            started.append(t)
            return t

        monkeypatch.setattr(varnorm, "_cpus", lambda: 2)
        monkeypatch.setattr(varnorm.threading, "Thread", thread)
        values = random_values((PAR_MIN_CELLS, 2), 2)
        assert_bitwise_equal(variation_values(values, 2.0),
                             loop_variation_values(values, 2.0))
        assert len(started) == 1

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        # taskset -c 0: one worker, the caller, over the split blocks
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started on one CPU")

        monkeypatch.setattr(varnorm, "_cpus", lambda: 1)
        monkeypatch.setattr(varnorm.threading, "Thread", no_thread)
        values = random_values((16384, 16), 16)
        assert_bitwise_equal(variation_values(values, 2.0),
                             loop_variation_values(values, 2.0))

    @pytest.mark.parametrize("count,workers", [(2, 2), (None, 1)])
    def test_no_affinity_call(self, count, workers, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: the CPUs are
        # os.cpu_count(), or one when it is unknown
        started = []
        real_thread = threading.Thread

        def thread(*args, **kwargs):
            t = real_thread(*args, **kwargs)
            started.append(t)
            return t

        monkeypatch.delattr(varnorm.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(varnorm.os, "cpu_count", lambda: count)
        monkeypatch.setattr(varnorm.threading, "Thread", thread)
        assert varnorm._cpus() == workers
        values = random_values((16384, 16), 16)
        assert_bitwise_equal(variation_values(values, 2.0),
                             loop_variation_values(values, 2.0))
        assert len(started) == workers - 1

    def test_workspaces_made_by_the_caller(self, monkeypatch):
        made = []
        real = varnorm._dp_workspace

        def recorded(S, cols):
            made.append((threading.current_thread(), cols))
            return real(S, cols)

        monkeypatch.setattr(varnorm, "_dp_workspace", recorded)
        # (shape, CPUs, workspace columns): 16384 x 16 is two runs of 8192
        # columns in blocks of 4096; smooth's 256 x 256 two runs of 128;
        # 8195 x 16 on three CPUs runs of 2731, 2732 and 2732 columns,
        # and each workspace is as wide as the last, the widest
        for shape, cpus, cols in [((16384, 16), 2, 4096),
                                  ((256, 256), 2, 128),
                                  ((8195, 16), 3, 2732)]:
            monkeypatch.setattr(varnorm, "_cpus", lambda: cpus)
            made.clear()
            variation_values(random_values(shape, 4), 2.0)
            assert made == [(threading.main_thread(), cols)] * cpus

    def test_no_fft_on_a_worker(self, monkeypatch):
        # multiplier_variation runs its FFT in the caller and only the DP
        # blocks on the workers
        seen = {"fft": set(), "dp": set()}
        real_ifft, real_dp = np.fft.ifft, varnorm._best_power_sums

        def ifft(*args, **kwargs):
            seen["fft"].add(threading.current_thread())
            return real_ifft(*args, **kwargs)

        def dp(*args, **kwargs):
            seen["dp"].add(threading.current_thread())
            return real_dp(*args, **kwargs)

        monkeypatch.setattr(varnorm, "_cpus", lambda: 2)
        monkeypatch.setattr(np.fft, "ifft", ifft)
        monkeypatch.setattr(varnorm, "_best_power_sums", dp)
        rng = np.random.default_rng(0)
        M = 1 << 14
        mults = np.exp(2j * np.pi * rng.random((16, M)))
        spectral.multiplier_variation(np.fft.fft(rng.standard_normal(M)),
                                      mults, 2.0, mults)
        assert seen["fft"] == {threading.main_thread()}
        assert len(seen["dp"]) == 2


class TestCellBudget:
    def test_experiment_shapes_admitted(self):
        # the largest arrays of the acceptance gate and of the benchmark
        check_dp_cells(1 << 20, 6)
        check_dp_cells(1 << 18, 12)
        check_dp_cells(DP_CELL_BUDGET.limit, 2)

    def test_experiment_runs_admitted(self):
        # smooth --N 256 (8 trials; 20 in acceptance 08), the benchmark's
        # searches (L = 5 at 100 iterations, L = 4 at 200, 3 starts each),
        # acceptance 12's search and counterexample's at L = 5
        check_run_cells(20, 256, 256, "")
        check_run_cells(3 * 101, 8192, 5, "")
        check_run_cells(3 * 201, 8192, 4, "")
        check_run_cells(3 * 301, 8192, 3, "")
        check_run_cells(3 * 201, 8192, 5, "")

    def test_run_budget_boundary(self):
        check_run_cells(RUN_DP_CELL_BUDGET.limit, 1, 2, "")
        with pytest.raises(ResourceError, match="lower the trials"):
            check_run_cells(RUN_DP_CELL_BUDGET.limit + 1, 1, 2, "the trials")

    def test_over_budget_refused(self):
        with pytest.raises(ResourceError):
            check_dp_cells(DP_CELL_BUDGET.limit + 1, 2)
        with pytest.raises(ResourceError):
            check_dp_cells(1024, 4000)

    def test_refused_before_work(self):
        # a zero-stride view of 2^20 x 40 values (818 M cells) costs no
        # memory; the refusal comes before any copy of it is made
        values = np.broadcast_to(np.zeros(1, dtype=complex), (1 << 20, 40))
        with pytest.raises(ResourceError):
            variation_values(values, 2.0)


class TestOptimalSubsequence:
    """Each returned chain is increasing, drawn from the indices, and its
    power sum is the reported value to the power r."""

    @staticmethod
    def check_chain(seq, chain):
        assert list(chain) == sorted(set(chain))
        assert set(chain) <= set(seq.indices)

    @given(indexed_values, exponents)
    @settings(max_examples=200, deadline=None)
    def test_full_and_long(self, data, r):
        seq = IndexedSeq(*data)
        f = dict(zip(seq.indices, seq.values))
        for fn in (variation, long_variation):
            res = fn(seq, r)
            self.check_chain(seq, res.optimal_subsequence)
            assert power_sum(f, res.optimal_subsequence, r) == \
                pytest.approx(res.value ** r, rel=1e-9)
        chain = long_variation(seq, r).optimal_subsequence
        assert all(i & (i - 1) == 0 for i in chain)

    @given(indexed_values, exponents)
    @settings(max_examples=200, deadline=None)
    def test_short_per_block(self, data, r):
        seq = IndexedSeq(*data)
        f = dict(zip(seq.indices, seq.values))
        res = short_variation(seq, r)
        total = 0.0
        for chain in res.block_subsequences:
            self.check_chain(seq, chain)
            n = chain[0].bit_length() - 1
            assert len(chain) >= 2 and chain[-1] <= 1 << (n + 1)
            # each block's chain is optimal within its dyadic block
            block = [f[i] for i in seq.indices if 1 << n <= i <= 1 << (n + 1)]
            power = power_sum(f, chain, r)
            assert power == pytest.approx(
                brute_force_variation(block, r) ** r, rel=1e-9)
            total += power
        assert res.optimal_subsequence == sum(res.block_subsequences, ())
        assert total == pytest.approx(res.value ** r, rel=1e-9)
