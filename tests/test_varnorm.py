"""Variation functionals against a brute-force subsequence-enumeration oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import (IndexedSeq, ParameterError, long_variation,
                       short_variation, sup_variation, variation,
                       variation_values)


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
