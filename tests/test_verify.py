"""Fit helpers and the named verification experiments at modest parameters."""

import math
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import (ArcParams, IntPoly, ParameterError, ResourceError,
                       variation_values, verify_entropy, verify_est,
                       verify_main_decomposition, verify_smooth)
from circlelab import spectral, verify
from circlelab.verify import (_circular_distance, _clipped_walk_multipliers,
                              _power_fit)
from oracles import (assert_pin_moved, classify_arc, fit_power_law,
                     sequential_entropy)

SQUARES = IntPoly([0, 0, 1])


class TestFits:
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
            fit_power_law([(1, 1.0), (2, 0.0), (3, 1.0)])  # non-positive

    @given(st.lists(st.integers(-1000, 1000), max_size=12, unique=True)
           .flatmap(lambda ns: st.tuples(st.just(ns), st.lists(
               st.floats(allow_nan=False, allow_infinity=False),
               min_size=len(ns), max_size=len(ns)))))
    @settings(max_examples=200, deadline=None)
    def test_report_on_distinct_scales_never_raises(self, data):
        # _power_fit sees only the report's positive values, and only when
        # three or more of them are left, each at its own scale
        ns, vs = data
        rep = verify._make_report("r", ns, vs)
        assert rep.values == tuple(vs)
        assert rep.constant == (max(vs) if vs else 0.0)

    def test_power_fit_residual_zero_on_exact(self):
        slope, residual = _power_fit([1, 2, 3], [0.5, 0.25, 0.125])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-10)


def report_hex(rep):
    """A report's values, constant, slope and residual, as float.hex."""
    return ([v.hex() for v in rep.values], rep.constant.hex(),
            rep.slope.hex(), rep.residual.hex())


# verify_est(P, 8, 12, delta, 64, 0) as `report_hex` per part, recorded
# when part 2 labelled its draws one at a time; the parts 1 and 2 of
# delta = 0.05 and 1/8 are the same
PINNED_EST = {
    (0, 0, 1): (
        (["0x1.15b5cc4b8cdd4p+0", "0x1.3e9486100ab4cp+0",
          "0x1.0d04c5ac54ab6p+0", "0x1.0632913c5c8b6p+0",
          "0x1.0cf762beb9881p+0"],
         "0x1.3e9486100ab4cp+0", "-0x1.31d0f2d520a00p-5",
         "0x1.0e7925fc663e6p-3"),
        (["0x1.592359f913fefp-4", "0x1.4e218ab5eab18p-4",
          "0x1.6f14443be2a15p-5", "0x1.62d0ba1b6e583p-5",
          "0x1.6fd052ea60ceep-6"],
         "0x1.592359f913fefp-4", "-0x1.e453596d01126p-2",
         "0x1.54a9ce6078598p-2"),
        (["0x1.ea996c230cc1bp-1", "0x1.bbdf93886f1f3p-1",
          "0x1.27a51d86408e0p+0", "0x1.ef00e527947e7p-1",
          "0x1.335ae551f5cbep+0"],
         "0x1.335ae551f5cbep+0", "0x1.4af646da64e20p-4",
         "0x1.acbc0425c0ff3p-3")),
    (0, 0, 0, 1): (
        (["0x1.0ed6e996f6dbep+0", "0x1.12ace3998ed63p+0",
          "0x1.0a2b16c2c21eap+0", "0x1.092bb023f1352p+0",
          "0x1.085eb80fbfc01p+0"],
         "0x1.12ace3998ed63p+0", "-0x1.8b11de9b48f47p-7",
         "0x1.3708770349c88p-6"),
        (["0x1.d51c78d75462dp-4", "0x1.4ec6bab5ce4a6p-4",
          "0x1.0bfb357c44c96p-4", "0x1.2bae3ec3ba8e2p-5",
          "0x1.d8f52cac59723p-6"],
         "0x1.d51c78d75462dp-4", "-0x1.06f951b241c8bp-1",
         "0x1.4f8574f40d38ep-3"),
        (["0x1.6696e6abf3887p-1", "0x1.5b3904b0f99c2p-1",
          "0x1.a0887a6891c89p-1", "0x1.6a2d63e73f741p-1",
          "0x1.adad1569d0a40p-1"],
         "0x1.adad1569d0a40p-1", "0x1.dd5247e7d0662p-5",
         "0x1.286cd6c61ca6bp-3")),
}
PINNED_EST_PART3_WIDE = {
    (0, 0, 1):
        (["0x1.d738beab6b2fap-1", "0x1.9c59e063f15b9p-1",
          "0x1.25efa323a3ae9p+0", "0x1.c9b54643d3cf7p-1",
          "0x1.32422480ca50fp+0"],
         "0x1.32422480ca50fp+0", "0x1.739b2a1cc09bdp-4",
         "0x1.1ab171add840fp-2"),
    (0, 0, 0, 1):
        (["0x1.5b1bfef4f786ap-1", "0x1.4f7060626d75dp-1",
          "0x1.9ea9e4c8d9634p-1", "0x1.66637222447a2p-1",
          "0x1.ac7e796548143p-1"],
         "0x1.ac7e796548143p-1", "0x1.200c70367e817p-4",
         "0x1.411ed03c2c615p-3"),
}


# verify_est(P, 8, 12, 0.05, 64, 5) as `report_hex` per part, recorded
# when weyl_sum_prefixes took every alpha as a Fraction: at this seed part
# 3 of n^3 draws alphas near 0 of dyadic den > 2^64 beside ones of den
# <= 2^53, so its prefix calls mix residue paths
PINNED_EST_SEED5 = {
    (0, 0, 1): (
        (["0x1.13b6e7d9c7b46p+0", "0x1.1be228a609722p+0",
          "0x1.13c60aecb34b7p+0", "0x1.11accb410bb8ap+0",
          "0x1.072ee45952948p+0"],
         "0x1.1be228a609722p+0", "-0x1.3276bc2292c78p-6",
         "0x1.23f1f307708d2p-5"),
        (["0x1.796294cbffccdp-4", "0x1.215aacb13d248p-4",
          "0x1.5acf40e1d91c8p-5", "0x1.491dd9410707fp-5",
          "0x1.7b54894d3b149p-6"],
         "0x1.796294cbffccdp-4", "-0x1.eb757ed140760p-2",
         "0x1.bb38ea8290566p-3"),
        (["0x1.19d7724060ddbp+0", "0x1.fe1324451bb3cp-1",
          "0x1.2287ffea28350p+0", "0x1.0f3b2b5aefc3cp+0",
          "0x1.2e65694309482p+0"],
         "0x1.2e65694309482p+0", "0x1.de49fbff65f12p-6",
         "0x1.d24dabf43b63ep-4")),
    (0, 0, 0, 1): (
        (["0x1.1a85e817105e0p+0", "0x1.0fd63ee27a683p+0",
          "0x1.0c4d72a306e03p+0", "0x1.0a8ccec6733f9p+0",
          "0x1.05c7a9836392ep+0"],
         "0x1.1a85e817105e0p+0", "-0x1.96eb2254a53bep-6",
         "0x1.1ae3df2777f21p-6"),
        (["0x1.7bd36afe07175p-4", "0x1.0a10d9c71aacep-4",
          "0x1.c8c01027be71cp-5", "0x1.288328871f9dbp-5",
          "0x1.bed84ee54bd53p-6"],
         "0x1.7bd36afe07175p-4", "-0x1.bffb3eafcec6fp-2",
         "0x1.da6f758839245p-4"),
        (["0x1.580a609eb2ad1p-1", "0x1.9b6c144f8b252p-1",
          "0x1.418fbfef69069p-1", "0x1.abd90c2dd53fcp-1",
          "0x1.9c0a29e248b89p-1"],
         "0x1.abd90c2dd53fcp-1", "0x1.d896245e46874p-5",
         "0x1.c3d5eac3749c1p-3")),
}


class TestConfig:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work began before the parameter checks")

        monkeypatch.setattr(verify, "weyl_sum_prefixes", never)
        monkeypatch.setattr(spectral, "average_multipliers", never)

    def test_validation(self):
        # an empty range of scales, and a decreasing one
        for n_min, n_max in [(8, 7), (5, 4)]:
            with pytest.raises(ParameterError):
                verify_est(SQUARES, n_min, n_max, 0.05, 64, 0)
            with pytest.raises(ParameterError):
                verify_main_decomposition(SQUARES, 1 << 10, n_min, n_max,
                                          0.05, 0, 0.1)
        with pytest.raises(ParameterError):
            verify_est(SQUARES, 6, 8, 0.05, 2, 0)  # samples_per_arc = 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_floor(self, bad):
        with pytest.raises(ParameterError):
            verify_main_decomposition(SQUARES, 1 << 10, 6, 8, 0.05, 0, bad)

    @pytest.mark.parametrize("n_min,n_max,delta,exc", [
        (0, 8, 0.05, ParameterError),
        (6, 8, 0.5, ParameterError),
        (6, 8, math.nan, ParameterError),
        # the scale n = 27 fits the phase-term budget, n = 28 does not
        (27, 28, 0.05, ResourceError),
    ])
    def test_est_checked_before_part_one(self, n_min, n_max, delta, exc):
        with pytest.raises(exc):
            verify_est(SQUARES, n_min, n_max, delta, 64, 0)


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

    def test_total_cells_checked_first(self, monkeypatch):
        # 129 trials of 256 x 256(255)/2 cells are over the run budget
        def never(*args, **kwargs):
            raise AssertionError("work began before the run budget")

        monkeypatch.setattr(verify, "_ramp_multipliers", never)
        with pytest.raises(ResourceError, match="run budget"):
            verify_smooth(256, 1.0, 0.05, 129, 0)

    @pytest.mark.parametrize("N,over", [(1024, False), (1025, True)])
    def test_run_budget_at_the_default_trials(self, N, over, monkeypatch):
        # smooth's 8 trials of 256 x N(N-1)/2 cells: 2^30 - 2^20 at
        # N = 1024, 2^30 + 2^20 at N = 1025
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(verify, "_ramp_multipliers", reached)
        with pytest.raises(ResourceError if over else Reached):
            verify_smooth(N, 1.0, 0.05, 8, 0)

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            verify_smooth(8, 1.0, 2.0, 2, 0)  # a > A
        with pytest.raises(ParameterError):
            verify_smooth(0, 1.0, 0.5, 2, 0)

    @pytest.mark.parametrize("A,a", [(math.inf, 0.5), (math.nan, 0.5),
                                     (1.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_rejected(self, A, a):
        with pytest.raises(ParameterError):
            verify_smooth(8, A, a, 2, 0)

    @pytest.mark.parametrize("A,a", [
        # sqrt(N A a) underflowed to 0: ZeroDivisionError
        (1e-170, 1e-170),
        # the ramp family and fhat * m overflowed: null values
        (1e306, 0.5), (1e308, 0.5),
        # a step below ulp(A): C was FFT roundoff over a vanishing bound
        (1.0, 1e-300),
        # just outside each edge of the range
        (2.0 ** 256 * (1 + 2.0 ** -52), 2.0 ** 256),
        (2.0 ** -256, 2.0 ** -256 * (1 - 2.0 ** -52)),
        (1.0, 2.0 ** -40 * (1 - 2.0 ** -52))])
    def test_out_of_range_refused_before_the_first_draw(self, A, a,
                                                       monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a draw came before the range check")

        monkeypatch.setattr(np.random, "default_rng", never)
        with pytest.raises(ParameterError, match="2\\^-256"):
            verify_smooth(4, A, a, 2, 0)

    @pytest.mark.parametrize("A,a", [
        (2.0 ** 256, 2.0 ** 256), (2.0 ** 256, 2.0 ** 216),
        (2.0 ** -216, 2.0 ** -256), (2.0 ** -256, 2.0 ** -256),
        (1.0, 2.0 ** -40), (3000.0, 0.5)])
    def test_range_edges_finite(self, A, a):
        # at every edge of the range the report is finite and positive,
        # with no floating-point warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_smooth(16, A, a, 3, 0)
        assert all(0 < v < 2 for v in rep.values[1:])
        assert 0 < rep.constant < 2

    # (N, A, a, trials, seed), the report as float.hex, and the pin it
    # replaced where that moved: N16's was recorded when the r = 2 DP
    # squared |f_b - f_a| rather than summing re^2 + im^2, and N5's when
    # the ramp's phases were np.exp(2j pi x), not the table kernel's e(x)
    PINNED = [
        ((1, 1.0, 0.5, 2, 0),
         (["0x0.0p+0", "0x0.0p+0"], "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
         None),
        ((5, 1.0, 0.2, 3, 7),
         (["0x1.999999999999ap-1", "0x1.a0d10b1b88804p-2",
           "0x1.a32431d778074p-2"], "0x1.999999999999ap-1",
          "-0x1.eefd9f625fb9dp-2", "0x1.1ccaa0a9547e5p-2"),
         (["0x1.9999999999999p-1", "0x1.a0d10b1b88804p-2",
           "0x1.a32431d778074p-2"], "0x1.9999999999999p-1",
          "-0x1.eefd9f625fb9cp-2", "0x1.1ccaa0a9547e3p-2")),
        ((16, 2.0, 0.125, 3, 1),
         (["0x1.e000000000000p-1", "0x1.4411ef43b786ap-2",
           "0x1.46d491cc504c8p-2"], "0x1.e000000000000p-1",
          "-0x1.8df3378b46c93p-1", "0x1.c988682ff7ccep-2"),
         (["0x1.e000000000000p-1", "0x1.4411ef43b786ap-2",
           "0x1.46d491cc504c7p-2"], "0x1.e000000000000p-1",
          "-0x1.8df3378b46c96p-1", "0x1.c988682ff7ccdp-2")),
    ]

    @pytest.mark.parametrize("args,want,was", PINNED,
                             ids=["N1", "N5", "N16"])
    def test_pinned_report(self, args, want, was):
        assert report_hex(verify_smooth(*args)) == want
        if was is not None:
            assert_pin_moved(want, was)

    def test_deterministic(self):
        a = verify_smooth(8, 1.0, 0.125, 3, 5)
        b = verify_smooth(8, 1.0, 0.125, 3, 5)
        assert a.values == b.values


class TestEntropy:
    def test_single_frequency_small_variation(self):
        # nested projections of one frequency: at most one jump
        rep = verify_entropy(1, sigma=2.0, r=3.0, seed=1, trials=4,
                             grid_factor=1 << 14)
        # ratio <= 2 (one projection transition, unit-normalized)
        assert rep.values[0] <= 2.0

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            verify_entropy(4, sigma=1.0, r=3.0, seed=0)
        with pytest.raises(ParameterError):
            verify_entropy(4, sigma=2.0, r=2.0, seed=0)
        for sigma, r in [(math.nan, 3.0), (math.inf, 3.0), (2.0, math.nan),
                         (2.0, math.inf)]:
            with pytest.raises(ParameterError):
                verify_entropy(4, sigma=sigma, r=r, seed=0)
        with pytest.raises(ParameterError, match="lower sigma$"):
            # sigma so large no admissible neighbourhood scale remains
            verify_entropy(4, sigma=1e6, r=3.0, seed=0)

    @pytest.mark.parametrize("bad", [
        {"trials": 0}, {"trials": -2}, {"grid_factor": 0},
        {"grid_factor": -8}], ids=repr)
    def test_library_parameters_checked_before_any_fft(self, monkeypatch,
                                                       bad):
        def never(*args, **kwargs):
            raise AssertionError("work began before the parameter checks")

        monkeypatch.setattr(np.fft, "fft", never)
        with pytest.raises(ParameterError):
            verify_entropy(4, sigma=2.0, r=3.0, seed=0, **bad)

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
            64, M, np.random.default_rng(4))
        assert np.array_equal(_circular_distance(freqs, M),
                              self.loop_circular_distance(freqs, M))

    @given(st.integers(1, 256), st.integers(1, 1 << 14),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_placed_frequencies_are_separated(self, N, grid_factor, seed):
        # the tau = 1/(2N) separation that verify_entropy assumes: spacing
        # M/N less twice the jitter, M // (8N), is at least M/(2N)
        M = N * grid_factor
        freqs = verify._place_separated_frequencies(
            N, M, np.random.default_rng(seed))
        assert len(freqs) == N and 0 <= freqs[0] and freqs[-1] < M
        gaps = np.diff(np.concatenate([freqs, [freqs[0] + M]]))
        assert 2 * N * int(gaps.min()) >= M

    def test_dp_cells_checked_first(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work began before the DP-cell budget")

        monkeypatch.setattr(verify, "_place_separated_frequencies", never)
        # M = 2^26 grid points, 6 neighbourhood scales
        with pytest.raises(ResourceError):
            verify_entropy(4096, sigma=2.0, r=3.0, seed=0)

    # (num_freqs, sigma, r, seed, trials, grid_factor), the report as
    # float.hex, and the pin it replaced where that moved: recorded when
    # the masks were a dense stack, whose points the norm summed in grid
    # order (the decimated transform puts x0 + Q m in column x0 K + m)
    PINNED = [
        ((2, 2.0, 3.0, 1, 3, 1 << 10),
         (["0x1.16bd15df396c7p-4"], "0x1.ef890a7066162p-8", "0x0.0p+0",
          "0x0.0p+0"), None),
        ((3, 1.5, 4.0, 2, 2, 1 << 11),
         (["0x1.9f36e68c6d28cp-4"], "0x1.580517df5d59cp-7", "0x0.0p+0",
          "0x0.0p+0"),
         (["0x1.9f36e68c6d28dp-4"], "0x1.580517df5d59dp-7", "0x0.0p+0",
          "0x0.0p+0")),
    ]

    def test_trials_copy_no_stack(self, monkeypatch):
        # each trial reads the masks through multiplier_variation's `out`
        # and copies no (scales, M) stack
        shapes = []
        copyto = np.copyto

        def recorded(dst, *args, **kwargs):
            shapes.append(np.shape(dst))
            return copyto(dst, *args, **kwargs)

        monkeypatch.setattr(np, "copyto", recorded)
        verify_entropy(2, 2.0, 3.0, 1, trials=3, grid_factor=1 << 10)
        assert not [shape for shape in shapes if len(shape) == 2]

    @pytest.mark.parametrize("args,want,was", PINNED, ids=["N2", "N3"])
    def test_pinned_report(self, args, want, was):
        num_freqs, sigma, r, seed, trials, grid_factor = args
        rep = verify_entropy(num_freqs, sigma, r, seed, trials=trials,
                             grid_factor=grid_factor)
        assert report_hex(rep) == want
        if was is not None:
            assert_pin_moved(want, was)

    def test_ratio_positive_and_bounded(self):
        rep = verify_entropy(4, sigma=2.0, r=3.0, seed=2, trials=4,
                             grid_factor=1 << 12)
        assert 0 < rep.values[0] < 50

    def test_sigma_near_one_refused_before_any_k(self):
        # 3.7 million admissible k at M = 2^18: the DP-cell budget refuses
        # them from their count, before a k or a mask is made
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="DP-cell budget"):
                verify_entropy(16, sigma=1 + 1e-6, r=3.0, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 21

    @given(st.integers(1, 8),
           st.one_of(st.integers(1, 1 << 10), st.integers(400, 1 << 10)),
           st.integers(1, 4), st.sampled_from([1.5, 2.0, 3.0]),
           st.sampled_from([2.5, 3.0, 4.0]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pipeline_matches_sequential_oracle(self, num_freqs, grid_factor,
                                                trials, sigma, r, seed):
        args = (num_freqs, sigma, r, seed, trials, grid_factor)
        try:
            want = sequential_entropy(*args)
        except ParameterError:
            with pytest.raises(ParameterError, match="no admissible k"):
                verify_entropy(num_freqs, sigma, r, seed, trials=trials,
                               grid_factor=grid_factor)
            return
        rep = verify_entropy(num_freqs, sigma, r, seed, trials=trials,
                             grid_factor=grid_factor)
        assert report_hex(rep) == report_hex(want)

    def test_pipeline_under_fast_thread_switches(self):
        # the caller and each helper share `rng` only one after the other:
        # switching threads every microsecond must not reorder its draws
        args = (4, 2.0, 3.0, 11, 6, 1 << 10)
        want = sequential_entropy(*args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = verify_entropy(*args[:4], trials=args[4],
                                 grid_factor=args[5])
        finally:
            sys.setswitchinterval(interval)
        assert report_hex(rep) == report_hex(want)

    def test_a_helper_error_surfaces_after_its_join(self, monkeypatch):
        # trial 1's draw runs on the helper and fails there
        threads = []
        draw = spectral._complex_normal

        def failing(rng, M):
            threads.append(threading.current_thread())
            if len(threads) == 2:
                raise RuntimeError("second draw failed")
            return draw(rng, M)

        monkeypatch.setattr(spectral, "_complex_normal", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second draw failed"):
            verify_entropy(2, 2.0, 3.0, 1, trials=3, grid_factor=1 << 10)
        assert threading.active_count() == before
        assert threads[0] is threading.current_thread()
        assert threads[1] is not threads[0] and len(threads) == 2

    def test_a_trial_error_waits_for_the_helper(self, monkeypatch):
        # trial 0's DP fails while the helper draws trial 1
        draws = []
        draw = spectral._complex_normal

        def recorded(rng, M):
            draws.append(M)
            return draw(rng, M)

        def failing(*args, **kwargs):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(spectral, "_complex_normal", recorded)
        monkeypatch.setattr(spectral, "multiplier_variation", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="trial failed"):
            verify_entropy(2, 2.0, 3.0, 1, trials=3, grid_factor=1 << 10)
        assert threading.active_count() == before and len(draws) == 2

    def test_one_trial_starts_no_thread(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a thread was made")

        args = (2, 2.0, 3.0, 1, 1, 1 << 10)
        want = sequential_entropy(*args)
        monkeypatch.setattr(verify.threading, "Thread", never)
        rep = verify_entropy(*args[:4], trials=1, grid_factor=args[5])
        assert report_hex(rep) == report_hex(want)


class TestEst:
    # n_min, n_max, delta, samples_per_arc, seed
    SMALL = (6, 8, 0.05, 16, 0)

    def test_reports_structure(self):
        rep1, rep2, rep3 = verify_est(SQUARES, *self.SMALL,
                                      betas_per_scale=4)
        for rep in (rep1, rep2, rep3):
            assert len(rep.scales) == 3
            assert all(v >= 0 for v in rep.values)
        # part 1: |K_t - K_{t+1}| <= 2/t = 2 * 2^-n, so ratios stay <= 2
        assert rep1.constant <= 2.0 + 1e-9
        # part 2: minor-arc maxima decay
        assert rep2.slope < 0

    def test_degree_one_rejected(self):
        with pytest.raises(ParameterError):
            verify_est(IntPoly([0, 1]), *self.SMALL)

    def test_batched_prefixes_match_one_per_draw(self, monkeypatch):
        # n^3 near 0 draws dyadic den > 2^64, so part 3 mixes residue paths
        args = (IntPoly([0, 0, 0, 1]), 8, 12, 0.05, 64, 5)
        batched = verify.weyl_sum_prefixes
        calls = []

        def counted(P, t_max, k, D):
            calls.append(len(k))
            return batched(P, t_max, k, D)

        def one_per_draw(P, t_max, k, D):
            # k[i] over D, or over D[i] where each alpha has its own
            return (block for i in range(len(k))
                    for block in batched(P, t_max, k[i:i + 1],
                                         D if np.ndim(D) == 0 else D[i:i + 1]))

        monkeypatch.setattr(verify, "weyl_sum_prefixes", counted)
        want = verify_est(*args)
        # parts 1 and 2 and one call per fraction of part 3, at each scale
        assert len(calls) == 20 and sum(calls) == 5 * (16 + 64 + 2 * 12)
        monkeypatch.setattr(verify, "weyl_sum_prefixes", one_per_draw)
        assert verify_est(*args) == want

    def test_rejection_loop_capped(self, monkeypatch):
        # a classifier that calls every alpha major never yields a sample
        draws = []

        def always_major(P, params, k, D):
            draws.extend(k)
            return SimpleNamespace(major=np.ones(len(k), dtype=bool))

        monkeypatch.setattr(verify, "arc_labels", always_major)
        with pytest.raises(ResourceError):
            verify_est(SQUARES, *self.SMALL, betas_per_scale=4)
        assert len(draws) == (verify.REJECTION_ATTEMPT_FACTOR
                              * self.SMALL[3])

    @pytest.mark.parametrize("P,n_min,n_max,delta", [
        (SQUARES, 1, 3, 0.125), (IntPoly([0, 0, 0, 2]), 1, 3, 0.05),
        (SQUARES, 8, 10, 0.125)])
    def test_minor_draws_match_one_at_a_time_loop(self, monkeypatch, P,
                                                  n_min, n_max, delta):
        # at n = 1..3 about half of all draws land on a Major arc
        samples, seed = 16, 3
        batched = verify.weyl_sum_prefixes
        seen = []

        def recorded(P, t_max, k, D):
            # parts 1 and 2 pass their draws as int64 numerators over 2^53
            if len(seen) < 2 * (n_max - n_min + 1):
                assert k.dtype == np.int64 and D == 1 << 53
                seen.append((k / D).tolist())
            return batched(P, t_max, k, D)

        monkeypatch.setattr(verify, "weyl_sum_prefixes", recorded)
        verify_est(P, n_min, n_max, delta, samples, seed, betas_per_scale=4)
        rng = np.random.default_rng(seed)
        for n in range(n_min, n_max + 1):
            assert seen.pop(0) == [rng.random() for _ in range(16)]
        for n in range(n_min, n_max + 1):
            params = ArcParams(n, delta, P.degree)
            want = []
            while len(want) < samples:
                alpha = rng.random()
                if not classify_arc(alpha, P, params).is_major:
                    want.append(alpha)
            assert seen.pop(0) == want

    @pytest.mark.parametrize("poly", [(0, 0, 1), (0, 0, 0, 1)],
                             ids=["squares", "cubes"])
    @pytest.mark.parametrize("delta", [0.05, 0.125])
    def test_pinned_reports(self, poly, delta):
        # at delta = 1/8, s_max = 1 and the draws are labelled on the
        # object path; part 2 draws no Major alpha at these scales
        reps = verify_est(IntPoly(poly), 8, 12, delta, 64, 0)
        want = PINNED_EST[poly]
        if delta == 0.125:
            want = want[:2] + (PINNED_EST_PART3_WIDE[poly],)
        assert tuple(map(report_hex, reps)) == want

    @pytest.mark.parametrize("poly", [(0, 0, 1), (0, 0, 0, 1)],
                             ids=["squares", "cubes"])
    def test_pinned_reports_seed_5(self, poly):
        reps = verify_est(IntPoly(poly), 8, 12, 0.05, 64, 5)
        assert tuple(map(report_hex, reps)) == PINNED_EST_SEED5[poly]

    def test_samples_budgeted_before_part_one(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work began before the budget check")

        monkeypatch.setattr(verify, "weyl_sum_prefixes", fail)
        monkeypatch.setattr(verify, "arc_labels", fail)
        # 64 alphas of 2^23 terms, 10^8 of 2^9 and 2^20 of 2^9 are over
        # the budget of 2^28 terms; 2^26 alphas of 2^2 terms fit it, but
        # their 8 bytes each are over the alpha-byte budget of 2^28
        for n_max, samples in ((22, 64), (8, 10 ** 8), (1, 1 << 26)):
            with pytest.raises(ResourceError):
                verify_est(SQUARES, n_max, n_max, 0.05, samples, 0)
        with pytest.raises(ResourceError):
            verify_est(SQUARES, 8, 8, 0.05, 16, 0, betas_per_scale=1 << 20)

    @pytest.mark.parametrize("samples,over", [
        (verify.ALPHA_BYTE_BUDGET.limit // verify.ALPHA_BYTES, False),
        (verify.ALPHA_BYTE_BUDGET.limit // verify.ALPHA_BYTES + 1, True),
        # parts 1 and 2 keep a running max: an alpha costs only its int64
        # numerator, so 2^25 samples a scale fit
        (1 << 25, False), ((1 << 25) + 1, True)])
    def test_alpha_byte_budget_edge(self, samples, over, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(verify, "weyl_sum_prefixes", reached)
        with pytest.raises(ResourceError if over else Reached):
            verify_est(SQUARES, 1, 1, 0.125, samples, 0)

    def test_draws_labelled_in_capped_batches(self, monkeypatch):
        # 3 LABEL_BATCH samples at n = 8 (no draw is Major there): the
        # first three batches are full, and every batch is labelled
        # before the next is drawn
        monkeypatch.setattr(verify, "LABEL_BATCH", 64)
        labels = verify.arc_labels
        sizes = []

        def sized(P, params, k, D):
            sizes.append(len(k))
            return labels(P, params, k, D)

        monkeypatch.setattr(verify, "arc_labels", sized)
        reps = verify_est(SQUARES, 8, 8, 0.05, 3 * 64, 0, betas_per_scale=4)
        assert sizes[:3] == [64, 64, 64] and max(sizes) == 64
        monkeypatch.setattr(verify, "LABEL_BATCH", 1 << 16)
        assert verify_est(SQUARES, 8, 8, 0.05, 3 * 64, 0,
                          betas_per_scale=4) == reps


# main-decomp --poly P --modulus M --n-max n_max (n_min 8, seed 0), as
# float.hex: minor values, annulus offsets and values, reassembly lhs and
# rhs; the number of distinct indicators that get a variation; and the
# minor and annulus values that these replaced: squares' recorded when the
# r = 2 DP squared |f_b - f_a| rather than summing re^2 + im^2, and
# 0,1,3's when the norms were np.linalg.norm, whose BLAS dot sums in
# another order
PINNED_DECOMPOSITIONS = [
    ("0,0,1", 1 << 14, 10,
     ["0x1.597f7c74333c7p-4", "0x1.f5620f7cda214p-5", "0x1.6525dea7d256fp-5"],
     (10, 9, 8, 7, 6),
     ["0x1.e6206a10a8367p-6", "0x1.e9c6faf15577ap-6", "0x1.03ab76b5f80a4p-5",
      "0x1.afdae46c9ecbep-7", "0x1.5f5c21f355745p-6"],
     "0x1.645a6a93d2a62p+2", "0x1.a819fec8297a3p+3", 19,
     (["0x1.597f7c74333c7p-4", "0x1.f5620f7cda214p-5",
       "0x1.6525dea7d256fp-5"],
      ["0x1.e6206a10a8366p-6", "0x1.e9c6faf15577ap-6",
       "0x1.03ab76b5f80a4p-5", "0x1.afdae46c9ecbep-7",
       "0x1.5f5c21f355745p-6"])),
    ("0,1,3", 1 << 13, 9,
     ["0x1.5fb4657fd8c83p-4", "0x1.00a70aac58ffcp-4"],
     (9, 8, 7, 6, 5),
     ["0x1.6220e0f64aa3cp-5", "0x1.5fb3d900082c5p-5", "0x1.7bbc735e7c99dp-5",
      "0x1.48430a55532f8p-4", "0x1.0c1adbaef97efp-8"],
     "0x1.764f689d25702p+2", "0x1.c103c52fe583cp+3", 17,
     (["0x1.5fb4657fd8c84p-4", "0x1.00a70aac58ffdp-4"],
      ["0x1.6220e0f64aa3cp-5", "0x1.5fb3d900082c5p-5",
       "0x1.7bbc735e7c99bp-5", "0x1.48430a55532f8p-4",
       "0x1.0c1adbaef97efp-8"])),
]


class TestMainDecomposition:
    @pytest.mark.parametrize("poly,M,n_max,minor,offsets,values,lhs,rhs,"
                             "indicators,was", PINNED_DECOMPOSITIONS,
                             ids=["squares", "0,1,3"])
    def test_pinned_report_one_variation_per_indicator(
            self, monkeypatch, poly, M, n_max, minor, offsets, values, lhs,
            rhs, indicators, was):
        calls = []

        def counted(*args):
            calls.append(args)
            return variation_values(*args)

        monkeypatch.setattr(spectral, "variation_values", counted)
        P = IntPoly([int(c) for c in poly.split(",")])
        rep = verify_main_decomposition(P, M, 8, n_max, 0.05, 0, 0.1)
        assert [v.hex() for v in rep.minor.values] == minor
        assert rep.annulus_offsets == offsets
        assert [v.hex() for v in rep.annulus_values] == values
        assert rep.reassembly_lhs.hex() == lhs
        assert rep.reassembly_rhs.hex() == rhs
        # each block's Minor part, each non-empty shell of the last block,
        # its deep part and the whole signal, each transformed once
        assert len(calls) == indicators
        assert_pin_moved((minor, values), was)

    def test_small_run(self):
        rep = verify_main_decomposition(SQUARES, 1 << 12, 6, 8, 0.05, 0, 0.1,
                                        t_samples=6)
        assert len(rep.minor.values) == 3
        assert all(v >= 0 for v in rep.minor.values)
        # reassembly: the triangle inequality for the block variation
        assert rep.reassembly_lhs <= rep.reassembly_rhs + 1e-9
        # annulus values recorded with offsets inside the critical range
        assert len(rep.annulus_offsets) == len(rep.annulus_values)

    def test_dp_cells_checked_first(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work began before the DP-cell budget")

        monkeypatch.setattr(spectral, "average_multipliers", never)
        # 2^22 points and 16 scales in the last block: 503 M cells
        with pytest.raises(ResourceError):
            verify_main_decomposition(SQUARES, 1 << 22, 6, 8, 0.05, 0, 0.1)

    def test_power_of_two_enforced(self):
        with pytest.raises(ParameterError):
            verify_main_decomposition(SQUARES, 1000, 6, 8, 0.05, 0, 0.1)
