"""Variation functionals against a brute-force subsequence-enumeration oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from circlelab import (IndexedSeq, ParameterError, ResourceError,
                       long_variation, short_variation, variation,
                       variation_values)
from circlelab.varnorm import (DP_CELL_BUDGET, _best_power_sums,
                               check_dp_cells)


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

    This was the library kernel before the transposed block kernel; it
    stays as the kernel's bitwise oracle.
    """
    best = np.zeros(values.shape, dtype=float)
    with np.errstate(over="ignore"):
        for j in range(1, values.shape[-1]):
            cand = best[..., :j] + np.abs(values[..., j:j + 1]
                                          - values[..., :j]) ** r
            best[..., j] = np.maximum(cand.max(axis=-1), 0.0)
    return best


def assert_bitwise_equal(got, want):
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


EXPONENTS = (1.0, 1.5, 2.0, 3.0, 7.0)
# row counts around the kernel's 4096-row blocks
BLOCK_ROWS = (1, 4095, 4096, 4097, 8193)


def random_values(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBlockKernel:
    """The transposed block kernel is bitwise equal to the broadcast loop."""

    @pytest.mark.parametrize("rows,S,r", [
        *[(rows, S, r) for rows in BLOCK_ROWS for S in (1, 2)
          for r in EXPONENTS],
        *[(rows, 64, r) for rows, r in zip(BLOCK_ROWS, EXPONENTS)]])
    def test_block_boundaries(self, rows, S, r):
        values = random_values((rows, S), rows * 101 + S)
        assert_bitwise_equal(_best_power_sums(values, r),
                             loop_best_power_sums(values, r))

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
        assert_bitwise_equal(_best_power_sums(values, r),
                             loop_best_power_sums(values, r))

    @given(arrays(complex, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                  elements=st.complex_numbers(max_magnitude=1e300,
                                              allow_nan=False,
                                              allow_infinity=False)),
           st.sampled_from(EXPONENTS))
    @settings(max_examples=200, deadline=None)
    def test_drawn_values(self, values, r):
        assert_bitwise_equal(_best_power_sums(values, r),
                             loop_best_power_sums(values, r))

    @pytest.mark.parametrize("r", EXPONENTS)
    def test_overflow_to_inf(self, r):
        # the gaps overflow in |.|^r for r >= 2 (1e200) and in the
        # subtraction itself (+-1e308)
        values = random_values((4097, 6), 7)
        values[::3, 1] = 1e200
        values[1::3, 3] = -1e308 + 1e308j
        values[::2, 4] = 1e308
        best = _best_power_sums(values, r)
        assert np.isinf(best).any() and not np.isnan(best).any()
        assert_bitwise_equal(best, loop_best_power_sums(values, r))

    @pytest.mark.parametrize("M,S", [(256, 17), (4097, 6), (5000, 16)])
    def test_transposed_views(self, M, S):
        # verify_smooth and verify_main_decomposition pass (M, S) views
        # of (S, M) FFT outputs
        spatial = np.fft.ifft(random_values((S, M), M), axis=1).T
        assert not spatial.flags.c_contiguous
        for r in (2.0, 3.0):
            best = _best_power_sums(spatial, r)
            assert_bitwise_equal(best, loop_best_power_sums(spatial, r))
            assert_bitwise_equal(
                best, _best_power_sums(np.ascontiguousarray(spatial), r))

    def test_real_input(self):
        values = np.random.default_rng(3).standard_normal((4100, 5))
        assert_bitwise_equal(_best_power_sums(values, 3.0),
                             loop_best_power_sums(values, 3.0))


class TestCellBudget:
    def test_experiment_shapes_admitted(self):
        # the largest arrays of the acceptance gate and of the benchmark
        check_dp_cells(1 << 20, 6)
        check_dp_cells(1 << 18, 12)
        check_dp_cells(DP_CELL_BUDGET, 2)

    def test_over_budget_refused(self):
        with pytest.raises(ResourceError):
            check_dp_cells(DP_CELL_BUDGET + 1, 2)
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
