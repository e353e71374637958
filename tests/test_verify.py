"""Fit helpers and the named verification experiments at modest parameters."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import (IntPoly, ParameterError, ResourceError, VerifyConfig,
                       fit_constant, fit_power_law, verify_entropy,
                       verify_est, verify_main_decomposition, verify_smooth)
from circlelab import arith, verify
from circlelab.verify import (_circular_distance, _clipped_walk_multipliers,
                              _power_fit)

SQUARES = IntPoly([0, 0, 1])


class TestFits:
    def test_fit_constant_examples(self):
        assert fit_constant([(1.0, 2.0), (3.0, 2.0)]) == 1.5
        assert fit_constant([(0.0, 1.0)]) == 0.0

    def test_fit_constant_validation(self):
        with pytest.raises(ParameterError):
            fit_constant([])
        with pytest.raises(ParameterError):
            fit_constant([(1.0, 0.0)])
        with pytest.raises(ParameterError):
            fit_constant([(-1.0, 1.0)])

    def test_power_law_exact(self):
        points = [(n, 2.0 ** -n) for n in range(4, 12)]
        assert fit_power_law(points) == pytest.approx(-1.0, abs=1e-12)

    def test_power_law_synthetic_with_noise(self):
        rng = np.random.default_rng(0)
        points = [(n, 2.0 ** (-0.5 * n) * math.exp(rng.normal(0, 0.02)))
                  for n in range(4, 16)]
        assert fit_power_law(points) == pytest.approx(-0.5, abs=0.05)

    def test_power_law_validation(self):
        with pytest.raises(ParameterError):
            fit_power_law([(1, 1.0), (2, 0.5)])  # too few
        with pytest.raises(ParameterError):
            fit_power_law([(1, 1.0), (2, 0.0), (3, 1.0)])  # non-positive
        with pytest.raises(ParameterError):
            fit_power_law([(1, 1.0), (1, 2.0), (1, 3.0)])  # degenerate

    def test_power_fit_residual_zero_on_exact(self):
        slope, residual = _power_fit([1, 2, 3], [0.5, 0.25, 0.125])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-10)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            VerifyConfig(n_range=())
        with pytest.raises(ParameterError):
            VerifyConfig(n_range=(5, 4))
        with pytest.raises(ParameterError):
            VerifyConfig(samples_per_arc=2)


class TestSmooth:
    def test_walk_constraints(self):
        m = _clipped_walk_multipliers(16, 32, 1.0, 0.1,
                                      np.random.default_rng(0))
        assert np.all(np.abs(m) <= 1.0 + 1e-12)
        assert np.all(np.abs(np.diff(m, axis=0)) <= 0.1 + 1e-12)

    def test_constant_ratio_reasonable(self):
        rep = verify_smooth(N=16, A=1.0, a=1.0 / 16, trials=4, seed=0)
        assert 0 < rep.constant < 10

    def test_dp_cells_checked_first(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work began before the DP-cell budget")

        monkeypatch.setattr(verify, "_ramp_multipliers", never)
        with pytest.raises(ResourceError):
            verify_smooth(100_000, 1.0, 1e-5, 2, 0)

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            verify_smooth(8, 1.0, 2.0, 2, 0)  # a > A
        with pytest.raises(ParameterError):
            verify_smooth(0, 1.0, 0.5, 2, 0)

    def test_deterministic(self):
        a = verify_smooth(8, 1.0, 0.125, 3, 5)
        b = verify_smooth(8, 1.0, 0.125, 3, 5)
        assert a.values == b.values


class TestEntropy:
    def test_single_frequency_small_variation(self):
        # nested projections of one frequency: at most one jump
        cfg = VerifyConfig(seed=1)
        rep = verify_entropy(1, sigma=2.0, r=3.0, cfg=cfg, trials=4,
                             grid_factor=1 << 14)
        # ratio <= 2 (one projection transition, unit-normalized)
        assert rep.values[0] <= 2.0

    def test_parameter_checks(self):
        cfg = VerifyConfig()
        with pytest.raises(ParameterError):
            verify_entropy(4, sigma=1.0, r=3.0, cfg=cfg)
        with pytest.raises(ParameterError):
            verify_entropy(4, sigma=2.0, r=2.0, cfg=cfg)
        with pytest.raises(ParameterError):
            # tau so tiny no admissible neighbourhood scale remains
            verify_entropy(4, sigma=2.0, r=3.0, cfg=cfg, tau=1e-12,
                           grid_factor=1 << 10)

    @staticmethod
    def loop_circular_distance(freqs, M):
        """One pass over the grid per frequency (the distance oracle)."""
        j = np.arange(M)
        dmin = np.full(M, M, dtype=float)
        for lam in freqs:
            d = np.abs(j - lam)
            np.minimum(dmin, np.minimum(d, M - d), out=dmin)
        return dmin

    @given(st.integers(1, 600).flatmap(lambda M: st.tuples(
        st.just(M), st.lists(st.integers(0, M - 1), min_size=1,
                             max_size=40, unique=True))))
    @settings(max_examples=200, deadline=None)
    def test_circular_distance_oracle(self, data):
        M, freqs = data
        freqs = np.array(sorted(freqs), dtype=np.int64)
        assert np.array_equal(_circular_distance(freqs, M),
                              self.loop_circular_distance(freqs, M))

    def test_circular_distance_placed_frequencies(self):
        M = 64 << 14
        freqs = verify._place_separated_frequencies(
            64, M, M // 128, np.random.default_rng(4))
        assert np.array_equal(_circular_distance(freqs, M),
                              self.loop_circular_distance(freqs, M))

    def test_dp_cells_checked_first(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work began before the DP-cell budget")

        monkeypatch.setattr(verify, "_place_separated_frequencies", never)
        # M = 2^26 grid points, 6 neighbourhood scales
        with pytest.raises(ResourceError):
            verify_entropy(4096, sigma=2.0, r=3.0, cfg=VerifyConfig())

    def test_ratio_positive_and_bounded(self):
        cfg = VerifyConfig(seed=2)
        rep = verify_entropy(4, sigma=2.0, r=3.0, cfg=cfg, trials=4,
                             grid_factor=1 << 12)
        assert 0 < rep.values[0] < 50


class TestEst:
    CFG = VerifyConfig(n_range=(6, 7, 8), samples_per_arc=16, seed=0)

    def test_reports_structure(self):
        rep1, rep2, rep3 = verify_est(SQUARES, self.CFG, betas_per_scale=4)
        for rep in (rep1, rep2, rep3):
            assert len(rep.scales) == 3
            assert all(v >= 0 for v in rep.values)
        # part 1: |K_t - K_{t+1}| <= 2/t = 2 * 2^-n, so ratios stay <= 2
        assert rep1.constant <= 2.0 + 1e-9
        # part 2: minor-arc maxima decay
        assert rep2.slope < 0

    def test_degree_one_rejected(self):
        with pytest.raises(ParameterError):
            verify_est(IntPoly([0, 1]), self.CFG)

    def test_rejection_loop_capped(self, monkeypatch):
        # a classifier that calls every alpha major never yields a sample
        draws = []

        def always_major(alpha, P, params):
            draws.append(alpha)
            return SimpleNamespace(is_major=True)

        monkeypatch.setattr(verify, "classify_arc", always_major)
        with pytest.raises(ResourceError):
            verify_est(SQUARES, self.CFG, betas_per_scale=4)
        assert len(draws) == (verify.REJECTION_ATTEMPT_FACTOR
                              * self.CFG.samples_per_arc)


class TestMainDecomposition:
    def test_small_run(self):
        cfg = VerifyConfig(n_range=(6, 7, 8), samples_per_arc=16, seed=0)
        rep = verify_main_decomposition(SQUARES, cfg, 1 << 12, t_samples=6)
        assert len(rep.minor.values) == 3
        assert all(v >= 0 for v in rep.minor.values)
        # reassembly: the triangle inequality for the block variation
        assert rep.reassembly_lhs <= rep.reassembly_rhs + 1e-9
        # annulus values recorded with offsets inside the critical range
        assert len(rep.annulus_offsets) == len(rep.annulus_values)

    def test_grid_never_classified_per_point(self, monkeypatch):
        def per_point(*args, **kwargs):
            raise AssertionError("grid point classified one at a time")

        monkeypatch.setattr(arith, "classify_arc", per_point)
        monkeypatch.setattr(arith, "fractions_near", per_point)
        cfg = VerifyConfig(n_range=(6, 7, 8), samples_per_arc=16, seed=0)
        rep = verify_main_decomposition(SQUARES, cfg, 1 << 10, t_samples=6)
        assert rep.reassembly_lhs <= rep.reassembly_rhs + 1e-9

    def test_dp_cells_checked_first(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work began before the DP-cell budget")

        monkeypatch.setattr(verify, "average_multiplier", never)
        # 2^22 points and 16 scales in the last block: 503 M cells
        cfg = VerifyConfig(n_range=(6, 7, 8), samples_per_arc=16)
        with pytest.raises(ResourceError):
            verify_main_decomposition(SQUARES, cfg, 1 << 22)

    def test_power_of_two_enforced(self):
        cfg = VerifyConfig(n_range=(6, 7, 8), samples_per_arc=16)
        with pytest.raises(ParameterError):
            verify_main_decomposition(SQUARES, cfg, 1000)
