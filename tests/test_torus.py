"""Lacunary polynomials, the exponent-ladder construction, and the optimizer."""

import cmath
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circlelab import (CounterexampleParams, IntPoly, ParameterError,
                       ResourceError, build_sequences, dyadic_gauss_mean,
                       eta_error, exact_ladder_radius,
                       fast_dyadic_quadratic_weyl, search_coefficients,
                       v2_partial_sums_norm, weyl_sum)
from circlelab import expsum, torus
from circlelab.errors import LENGTH_BUDGET, PHASE_TERM_BUDGET
from circlelab.torus import (_independent_phase_matrix, _ladder_phases,
                             _partial_sum_objective, _partial_sums,
                             check_samples, eta_multipliers)

from oracles import (chain_gradient, cumsum_partial_sum_objective,
                     direct_dyadic_tail_mean, eval_dyadic, eval_float,
                     l2_norm, per_sample_ladder_phases,
                     recomputed_predecessors)
from test_varnorm import assert_bitwise_equal

SQUARES = IntPoly([0, 0, 1])


class TestTrigPoly:
    def test_l2_norm_parseval(self):
        assert l2_norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)

    def test_eval_dyadic_matches_float(self):
        freqs, coeffs = (1, 8, 64), (1.0, 0.5j, -2.0)
        for numer in [0, 1, 12345, (1 << 20) - 1]:
            x = numer / 2.0 ** 20
            assert eval_dyadic(freqs, coeffs, numer, 20) == \
                pytest.approx(eval_float(freqs, coeffs, x), abs=1e-9)


class TestBuildSequences:
    def test_reference_example(self):
        params = build_sequences(2, 14)
        assert params.k == (8, 0)
        assert params.j == (2, 6)
        coupling, closure = params.identity_defects()
        assert coupling == (0,)
        assert all(c in (0, 1) for c in closure)

    def test_identities_hold_everywhere(self):
        for L in range(1, 9):
            for R in range(1, 4097):
                try:
                    params = build_sequences(L, R)
                except ParameterError:
                    continue
                coupling, closure = params.identity_defects()
                assert all(c == 0 for c in coupling), (L, R)
                assert all(c in (0, 1) for c in closure), (L, R)
                assert params.k[-1] == 0
                assert all(a > b for a, b in zip(params.k, params.k[1:]))
                assert all(a < b for a, b in zip(params.j, params.j[1:]))

    def test_small_R_rejected(self):
        with pytest.raises(ParameterError):
            build_sequences(3, 5)

    def test_L_below_one_rejected(self):
        with pytest.raises(ParameterError, match="^L must be >= 1$"):
            build_sequences(0, 10)

    @given(st.integers(1, 64).flatmap(lambda L: st.tuples(
        st.just(L), st.one_of(st.integers(0, 1 << 40),
                              st.integers(1 << L, (1 << L) + (1 << (L + 2)))))))
    @settings(max_examples=500, deadline=None)
    def test_admitted_ladders_are_monotone(self, data):
        # the range check alone makes j rise and k fall: j_(l-1) =
        # ceil((j_l - L)/2) < j_l once j_l >= 1, and k_(l-1) = R - j_l
        L, R = data
        try:
            params = build_sequences(L, R)
        except ParameterError:
            return
        assert params.k[-1] == 0
        assert all(a > b for a, b in zip(params.k, params.k[1:]))
        assert all(a < b for a, b in zip(params.j, params.j[1:]))

    def test_up_front_bound_refuses_no_ladder(self):
        # the recursion alone, without the R >= 2^L bound checked first
        def admits(L, R):
            k, j = [0] * L, [0] * L
            j[L - 1] = -((L - R) // 2)
            for l in range(L - 1, 0, -1):
                k[l - 1] = R - j[l]
                j[l - 1] = -((L + k[l - 1] - R) // 2)
            return (min(k) >= 0 and min(j) >= 1
                    and all(a < b for a, b in zip(j, j[1:]))
                    and all(a > b for a, b in zip(k, k[1:])))

        for L in range(1, 10):
            for R in range(-4, 1200):
                try:
                    build_sequences(L, R)
                    built = True
                except ParameterError:
                    built = False
                assert built == admits(L, R), (L, R)

    def test_huge_L_refused_before_its_lists(self):
        # [0] * L would raise OverflowError or allocate 2 x 8 GB
        for L in (1 << 63, 10 ** 9):
            with pytest.raises(ParameterError, match="too small"):
                build_sequences(L, 14)

    def test_exact_ladder_radius_divides_evenly(self):
        for L in [2, 3, 4]:
            R = exact_ladder_radius(L, 30)
            assert (R - ((1 << (L + 1)) - 1) * L) % (1 << (L + 1)) == 0
            params = build_sequences(L, R)
            _, closure = params.identity_defects()
            assert all(c == 0 for c in closure)


def weyl_factor(freq, R, N):
    """The multiplier of K_N (alpha = 2^-R) at frequency freq.

    Power-of-two frequencies 2^k with k <= R go through the fast dyadic
    evaluator, as in `eta_multipliers`; any other frequency takes the
    conjugate Weyl sum of n^2 at the exact rational freq/2^R.
    """
    k = freq.bit_length() - 1
    if freq > 0 and freq == 1 << k and k <= R:
        return fast_dyadic_quadratic_weyl(k, R, N)
    return weyl_sum(SQUARES, N, Fraction(freq, 1 << R)).conjugate()


def average(freqs, coeffs, R, N):
    """The coefficients of K_N * f, f = sum coeffs[i] e(freqs[i] x): each
    coefficient picks up its Weyl factor."""
    return [coeff * weyl_factor(freq, R, N)
            for freq, coeff in zip(freqs, coeffs)]


class TestAverageTrigPoly:
    def test_matches_direct_summation(self):
        R, N = 10, 32
        freqs, coeffs = (16, 1024), (1.5, -0.5j)
        out = average(freqs, coeffs, R, N)
        for freq, coeff, got in zip(freqs, coeffs, out):
            w = sum(cmath.exp(2j * math.pi * ((freq * n * n) % (1 << R))
                              / (1 << R)) for n in range(1, N + 1)) / N
            assert got == pytest.approx(coeff * w, abs=1e-12)

    @pytest.mark.parametrize("freq", [0, 3, 12, 1 << 11, 1 << 12, 5 << 20,
                                      (1 << 40) + 1])
    @pytest.mark.parametrize("N", [1, 37, 1 << 16, (1 << 16) + 5])
    def test_direct_loop_oracle(self, freq, N):
        # non-dyadic, zero and 2^k (k > R) frequencies take the Weyl sum;
        # the oracle is the mask loop they went through before
        R = 10
        mask, scale = (1 << R) - 1, 2.0 ** (-R)
        want = sum(np.exp(2j * math.pi * (((freq * n * n) & mask) * scale))
                   for n in range(1, N + 1)) / N
        (out,) = average([freq], [1.0], R, N)
        assert abs(out - want) <= 1e-12

    def test_term_budget_checked_first(self):
        # N > PHASE_TERM_BUDGET: refused before any phase is computed
        with mock.patch.object(expsum, "_phase_chunks",
                               side_effect=AssertionError):
            with pytest.raises(ResourceError):
                average([3], [1.0], 10, PHASE_TERM_BUDGET.limit + 1)

    def test_consistent_with_pointwise_average(self):
        # K_N f(x) = (1/N) sum_n f(x + n^2 2^-R) on a dense grid
        R, N, G = 8, 12, 1 << 10
        freqs, coeffs = (4, 32, 7), (1.0, 2.0j, -1.0)
        out = average(freqs, coeffs, R, N)
        xs = np.arange(G) / G
        lhs = np.array([eval_float(freqs, out, x) for x in xs])
        rhs = np.zeros(G, dtype=complex)
        for n in range(1, N + 1):
            shift = (n * n) / 2.0 ** R
            rhs += np.array([eval_float(freqs, coeffs, x + shift)
                             for x in xs])
        assert np.allclose(lhs, rhs / N, atol=1e-9)


class TestPartialSum:
    @given(st.integers(1, 9), st.integers(1, 300),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reversed_cumsum(self, L, samples, seed):
        rng = np.random.default_rng(seed)
        az = (rng.standard_normal((samples, L))
              + 1j * rng.standard_normal((samples, L)))
        want = np.cumsum(az[:, ::-1], axis=1)[:, ::-1]
        got = _partial_sums(np.ascontiguousarray(az.T))
        assert_bitwise_equal(got.T, want)

    @given(st.integers(1, 9), st.integers(1, 300),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_objective_matches_cumsum_oracle(self, L, samples, seed,
                                             complex_coeffs):
        rng = np.random.default_rng([seed, 1])
        coeffs = rng.random(L)
        if complex_coeffs:
            coeffs = coeffs + 1j * rng.standard_normal(L)
        z = _independent_phase_matrix(L, samples, seed)
        assert z.shape == (L, samples)
        got = _partial_sum_objective(coeffs, z)
        want = cumsum_partial_sum_objective(coeffs,
                                            np.ascontiguousarray(z.T))
        assert_bitwise_equal(got, want)

    def test_wrong_coefficient_count_rejected(self):
        # one coefficient per rung: a term off the ladder, a missing rung or
        # any other shape is refused before the sample count is read and
        # before any phase is drawn
        params = build_sequences(2, 14)
        with mock.patch("circlelab.torus._ladder_phases",
                        side_effect=AssertionError):
            for coeffs in ([1.0], [0.6, 0.8, 0.1], [], [[0.6, 0.8]], 1.0):
                for fn in (eta_error, v2_partial_sums_norm):
                    with pytest.raises(ParameterError,
                                       match="2 coefficients"):
                        fn(coeffs, params, 0, 0)


class TestEtaError:
    def test_zero_function(self):
        params = build_sequences(2, 14)
        sup, rms = eta_error([0.0, 0.0], params, 64, 0)
        assert sup == 0.0 and rms == 0.0

    def test_matches_dense_grid_oracle(self):
        params = build_sequences(2, 14)
        a = (0.8, 0.6)
        G = 1 << 16
        xs = np.arange(G) / G
        z = np.exp(2j * np.pi * np.outer(xs, [1 << k for k in params.k]))
        az = z * np.array(a)[None, :]
        partial = np.cumsum(az[:, ::-1], axis=1)[:, ::-1]
        W = np.array([[fast_dyadic_quadratic_weyl(ki, params.R, 1 << jl)
                       for ki in params.k] for jl in params.j])
        eta_grid = np.abs(partial - az @ W.T).sum(axis=1)
        sup_oracle = float(eta_grid.max())
        rms_oracle = float(np.sqrt(np.mean(eta_grid ** 2)))
        sup, rms = eta_error(a, params, 1 << 14, 0)
        assert sup == pytest.approx(sup_oracle, rel=0.05)
        assert rms == pytest.approx(rms_oracle, rel=0.05)

    def test_two_seeds_agree(self):
        params = build_sequences(2, 14)
        _, rms1 = eta_error([0.6, 0.8], params, 4096, 1)
        _, rms2 = eta_error([0.6, 0.8], params, 4096, 2)
        assert rms1 == pytest.approx(rms2, rel=0.1)


class TestV2PartialSums:
    def test_two_rung_analytic_value(self):
        # With L = 2 the variation of (S_1, S_2) is |S_1 - S_2| = |a_1|
        params = build_sequences(2, 14)
        a1, a2 = 0.8, 0.6
        val = v2_partial_sums_norm([a1, a2], params, 4096, 0)
        assert val == pytest.approx(a1, abs=1e-10)

    def test_scales_linearly(self):
        params = build_sequences(2, 14)
        v1 = v2_partial_sums_norm([0.5, 0.5], params, 2048, 3)
        v2 = v2_partial_sums_norm([1.5, 1.5], params, 2048, 3)
        assert v2 == pytest.approx(3 * v1, rel=1e-10)


def scaled_ladder_phases(params, sample_count, seed):
    """_ladder_phases with the residue scaled by a float 2^-bits, which
    overflows once R + 64 > 1024."""
    bits = params.R + 64
    rng = np.random.default_rng(seed)
    mask = (1 << bits) - 1
    scale = 2.0 ** (-bits)
    phases = np.empty((params.L, sample_count), dtype=float)
    for s in range(sample_count):
        numer = int.from_bytes(rng.bytes((bits + 7) // 8), "big") & mask
        for i, ki in enumerate(params.k):
            phases[i, s] = ((numer << ki) & mask) * scale
    return phases


class TestLadderPhases:
    @given(L=st.integers(1, 5), R=st.integers(1, 400),
           samples=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sample_draws(self, L, R, samples, seed):
        try:
            params = build_sequences(L, R)
        except ParameterError:
            assume(False)
        want, rng = per_sample_ladder_phases(params, samples, seed)
        gen = np.random.default_rng(seed)
        with mock.patch("numpy.random.default_rng", return_value=gen):
            got = _ladder_phases(params, samples, seed)
        assert_bitwise_equal(got, want)
        assert gen.integers(0, 1 << 63) == rng.integers(0, 1 << 63)

    # R + 64 bits in 12, 13, 14, 15, 16 and 17 bytes: every byte count mod
    # 4, in odd (3, 5) and even (4) word counts, which the draws above may
    # miss
    @pytest.mark.parametrize("R", [32, 33, 41, 49, 57, 65])
    def test_byte_counts_and_the_next_draw(self, R):
        params = build_sequences(2, R)
        want, rng = per_sample_ladder_phases(params, 33, R)
        gen = np.random.default_rng(R)
        with mock.patch("numpy.random.default_rng", return_value=gen):
            got = _ladder_phases(params, 33, R)
        assert_bitwise_equal(got, want)
        # the generator is left where the per-sample draws leave it
        assert gen.integers(0, 1 << 63) == rng.integers(0, 1 << 63)

    @given(L=st.integers(1, 7), R=st.integers(1, 900),
           samples=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_float_scaling(self, L, R, samples, seed):
        try:
            params = build_sequences(L, R)
        except ParameterError:
            assume(False)
        assert_bitwise_equal(_ladder_phases(params, samples, seed),
                             scaled_ladder_phases(params, samples, seed))

    def test_wide_sample_points(self):
        # R + 64 = 1081 bits: the residues are far above the float range
        params = build_sequences(7, 1017)
        phases = _ladder_phases(params, 256, 3)
        assert np.all((phases >= 0) & (phases < 1))
        val = v2_partial_sums_norm(np.ones(params.L), params, 256, 3)
        assert math.isfinite(val) and val > 0


def recorded_ascents(monkeypatch):
    """Each start's `_power_ascent` call of the searches that follow: its
    start vector, its history and the iterate it returned."""
    calls = []
    real = torus._power_ascent

    def recorded(a, z, steps, bufs):
        history, best = real(a, z, steps, bufs)
        calls.append((a.copy(), history, best))
        return history, best

    monkeypatch.setattr(torus, "_power_ascent", recorded)
    return calls


class TestSearch:
    def test_zero_iterations_and_restarts_return_uniform(self):
        coeffs, val = search_coefficients(3, 0, 0, 1)
        assert coeffs == (1 / math.sqrt(3),) * 3
        z = _independent_phase_matrix(3, 8192, 1)
        assert val == _partial_sum_objective(np.array(coeffs), z)

    def test_L2_optimum_is_exactly_one(self):
        # V^2 of two partial sums is |a_1 z_1|: the step moves to e_1
        for seed in range(3):
            coeffs, val = search_coefficients(2, 150, 2, seed)
            assert coeffs == (1.0, 0.0) and val == 1.0

    @pytest.mark.parametrize("L", [3, 4, 5, 6])
    def test_last_coefficient_is_exactly_zero(self, L):
        # a_L z_L is in every partial sum and cancels in every difference,
        # so no chain block reaches it and its gradient entry is 0
        coeffs, _ = search_coefficients(L, 200, 2, 0)
        assert coeffs[-1] == 0.0 and all(c > 0 for c in coeffs[:-1])

    def test_L3_matches_grid_oracle(self):
        z = _independent_phase_matrix(3, 4096, 0)
        best = 0.0
        grid = np.linspace(0, 1, 21)
        for a1 in grid:
            for a2 in grid:
                for a3 in grid:
                    v = np.array([a1, a2, a3])
                    n = np.linalg.norm(v)
                    if n == 0:
                        continue
                    best = max(best, _partial_sum_objective(v / n, z))
        _, val = search_coefficients(3, iterations=400, restarts=3, seed=0,
                                     sample_count=4096)
        assert val >= best - 0.02
        assert val <= best + 0.05

    def test_cold_searches_rise_in_L(self):
        # the rows at L + 1 extend those at L, and each search starts cold:
        # 1.0, 1.14733, 1.23736, 1.29733 and 1.34301 at L = 2..6
        vals = [search_coefficients(L, 200, 0, 0)[1] for L in range(2, 7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("seed", [0, 1, 7, 12, 12345])
    @pytest.mark.parametrize("restarts", [0, 2])
    def test_L3_known_answer(self, seed, restarts):
        # a_3 = 0 and a chain's power sum is a sum of squared block sums,
        # so Phi^2 = a_1^2 + a_2^2 + 2 a_1 a_2 c_n with c_n the sample mean
        # of max(0, Re(z_1 conj z_2)): maximal at (1, 1, 0)/sqrt 2, where
        # Phi = sqrt(1 + c_n)
        z = _independent_phase_matrix(3, 8192, seed)
        c_n = np.mean(np.maximum(0.0, (z[0] * z[1].conj()).real))
        want = math.sqrt(1.0 + c_n)
        (a1, a2, a3), val = search_coefficients(3, 200, restarts, seed)
        assert abs(a1 - a2) <= 2 * math.ulp(a1)
        assert a3 == 0.0
        assert abs(val - want) <= 2 * math.ulp(want)

    def test_deterministic(self):
        a = search_coefficients(2, 50, 1, 7)
        b = search_coefficients(2, 50, 1, 7)
        assert a == b
        assert search_coefficients(5, 50, 2, 7) == \
            search_coefficients(5, 50, 2, 7)

    @pytest.mark.parametrize("L,seed", [(L, seed) for L in (2, 3, 4, 5, 6)
                                        for seed in (0, 1)])
    def test_history_never_decreases(self, L, seed, monkeypatch):
        # Boyd: Phi^2 is convex and g . a = 2 Phi^2, so a step to g/|g|
        # never lowers Phi; in floats a fixed point can fall by an ulp
        # (seen at L = 3, the uniform start's second step), which stops it
        calls = recorded_ascents(monkeypatch)
        coeffs, val = search_coefficients(L, 200, 2, seed)
        assert len(calls) == 3
        for start, history, best in calls:
            assert all(b >= a * (1 - 2.0 ** -50)
                       for a, b in zip(history, history[1:]))
            assert all(b > a * (1 + torus.POWER_RISE_TOL)
                       for a, b in zip(history[:-2], history[1:-1]))
        # the best iterate of the best start is returned
        top = max(max(h) for _, h, _ in calls)
        assert any(tuple(best) == coeffs and max(h) == top
                   for _, h, best in calls)
        assert val == top == _partial_sum_objective(
            np.array(coeffs), _independent_phase_matrix(L, 8192, seed))

    def test_best_iterate_when_the_last_step_falls(self, monkeypatch):
        # at L = 3, seed 3 and 2048 samples the uniform start's second
        # step falls by an ulp: the first step's iterate is returned
        calls = recorded_ascents(monkeypatch)
        coeffs, val = search_coefficients(3, 200, 0, 3, sample_count=2048)
        ((start, history, best),) = calls
        assert len(history) == 3 and history[2] < history[1]
        assert val == history[1] == _partial_sum_objective(
            np.array(coeffs), _independent_phase_matrix(3, 2048, 3))
        assert coeffs == tuple(best)

    def test_both_stops(self, monkeypatch):
        calls = recorded_ascents(monkeypatch)
        # the cap: one step each, from every start
        search_coefficients(5, 1, 2, 0)
        assert [len(h) for _, h, _ in calls] == [2, 2, 2]
        assert all(h[1] > h[0] for _, h, _ in calls)
        # the rise: every start stops before the cap, at the first step
        # that raises Phi by no more than 1e-12, relatively
        calls.clear()
        search_coefficients(5, 200, 2, 0)
        for _, h, _ in calls:
            assert len(h) < 201
            assert h[-1] <= h[-2] * (1 + 1e-12)
            assert all(b > a * (1 + 1e-12) for a, b in zip(h[:-2], h[1:-1]))

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_same_search_with_recomputed_chains(self, L, monkeypatch):
        # the chain mode's predecessors replaced by the recompute loop's:
        # every step, and so the whole search, is bitwise the same; the
        # objective is the cumsum oracle's at the returned coefficients
        got = search_coefficients(L, 60, 2, L, sample_count=256)
        real = torus._best_power_sums

        def recomputed(v, r, work, pred=None):
            table = real(v, r, work)
            if pred is not None:
                pred[...] = recomputed_predecessors(v, r)
            return table

        monkeypatch.setattr(torus, "_best_power_sums", recomputed)
        want = search_coefficients(L, 60, 2, L, sample_count=256)
        assert got == want
        z = _independent_phase_matrix(L, 256, L)
        assert got[1] == cumsum_partial_sum_objective(
            np.array(got[0]), np.ascontiguousarray(z.T))

    @given(L=st.integers(2, 6), samples=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1), lattice=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_gradient_matches_chain_oracle(self, L, samples, seed, lattice):
        rng = np.random.default_rng(seed)
        if lattice:
            # phases on the eighths and coefficients 0, 1 or 2: equal
            # partial sums and tied chains
            z = expsum._e_pos(rng.integers(0, 8, (L, samples)) / 8.0)
            a = rng.integers(0, 3, L).astype(float)
        else:
            z = expsum._e_pos(rng.random((L, samples)))
            a = rng.random(L)
        p = _partial_sums(z * a[:, None])
        work = torus._dp_workspace(L, samples)
        pred = np.empty((L, samples), dtype=np.intp)
        b = torus._best_power_sums(p, 2.0, work, pred)
        d = np.empty((L - 1, samples), dtype=complex)
        g = torus._chain_gradient(b, pred, p, z, d)
        want = chain_gradient(a, z)
        assert g[-1] == 0.0 and want[-1] == 0.0
        assert g == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_one_workspace_for_every_step(self, monkeypatch):
        # a fresh workspace, table or (L, samples) buffer per step can land
        # on new pages, each faulted in when first written; the reported
        # objective comes from the kept table row, so variation_values
        # (which makes a workspace per call) is never called
        calls = []
        real_dp = torus._best_power_sums

        def dp(v, r, work, pred=None):
            calls.append((v, work, pred))
            return real_dp(v, r, work, pred)

        def never(*args):
            raise AssertionError("a DP outside the held workspace")

        monkeypatch.setattr(torus, "_best_power_sums", dp)
        monkeypatch.setattr(torus, "variation_values", never)
        got = search_coefficients(3, 20, 1, 0)
        monkeypatch.undo()
        assert got == search_coefficients(3, 20, 1, 0)
        v0, work0, pred0 = calls[0]
        assert len(calls) > 4 and all(
            v is v0 and pred is pred0
            and all(a is b for a, b in zip(work, work0))
            for v, work, pred in calls)
        assert v0.shape == pred0.shape == (3, 8192)
        assert pred0.dtype == np.intp

    def test_L_validation(self):
        with pytest.raises(ParameterError):
            search_coefficients(1, 10, 1, 0)

    @pytest.mark.parametrize("L,iterations,restarts,over", [
        # 3 starts x 201 evaluations at L = 30
        (30, 200, 2, True),
        (5, 200, 2, False),
        # search-coeffs' defaults: 603 x 8192 x 210 cells at L = 21 fit
        # the run budget, 603 x 8192 x 231 at L = 22 do not
        (21, 200, 2, False),
        (22, 200, 2, True),
        # counterexample's search, one start: 201 x 8192 x 630 cells at
        # L = 36 fit, past L = 25, the most the sample-bit budget admits
        (36, 200, 0, False),
        (37, 200, 0, True),
        # L = 2: 8192 cells an evaluation, 2^17 evaluations in the budget;
        # a second start is 2 x 65537
        (2, 65536, 0, False),
        (2, 65536, 1, True),
    ])
    def test_run_budget_before_phases(self, L, iterations, restarts, over):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        with mock.patch("circlelab.torus._independent_phase_matrix", reached):
            with pytest.raises(ResourceError if over else Reached):
                search_coefficients(L, iterations, restarts, 0)

    @pytest.mark.parametrize("iterations,restarts", [(-1, 1), (10, -1)])
    def test_negative_counts_rejected(self, iterations, restarts):
        with pytest.raises(ParameterError):
            search_coefficients(2, iterations, restarts, 0)

    @pytest.mark.parametrize("L,samples,error", [
        # (8192, 2000) is 1.6e10 DP cells; the phase matrix would be 262 MB
        (2000, 8192, ResourceError),
        (3, LENGTH_BUDGET.limit + 1, ResourceError),
        (3, 0, ParameterError),
    ])
    def test_refused_before_phases(self, L, samples, error):
        def never(*args):
            raise AssertionError("phase matrix built before the checks")

        with mock.patch("circlelab.torus._independent_phase_matrix", never):
            with pytest.raises(error):
                search_coefficients(L, 10, 1, 0, sample_count=samples)


def oracle_multipliers(params):
    """W entry by entry: the closed form where 2^(j_l) is a whole number of
    periods, else the tail summed term by term."""
    W = np.empty((params.L, params.L), dtype=complex)
    for l, jl in enumerate(params.j):
        for i, ki in enumerate(params.k):
            m = params.R - ki
            W[l, i] = (dyadic_gauss_mean(m) if jl >= m
                       else direct_dyadic_tail_mean(m, 1 << jl))
    return W


class TestEtaMultipliers:
    # (m, j): one rung at k = 0 whose average over 2^j terms leaves a
    # tail of 2^j terms at modulus 2^m, on both sides of each gate
    EDGES = [(26, 10), (27, 10), (27, 11), (44, 27), (45, 28), (45, 29),
             (60, 43), (60, 44), (100, 84), (100, 85), (1000, 984),
             (1000, 985)]

    def test_refused_as_the_per_entry_tails_are(self):
        # the one check up front refuses exactly the entries whose tail the
        # kernel refuses, and sums nothing before it
        refused = []
        for m, jl in self.EDGES:
            params = CounterexampleParams(1, m, (0,), (jl,))
            try:
                fast_dyadic_quadratic_weyl(0, m, 1 << jl)
                kernel_refused = False
            except ResourceError:
                kernel_refused = True
            with mock.patch("circlelab.torus.fast_dyadic_quadratic_weyl",
                            lambda k, R, N: 0j):
                try:
                    eta_multipliers(params)
                    check_refused = False
                except ResourceError:
                    check_refused = True
            assert check_refused == kernel_refused, (m, jl)
            refused.append(check_refused)
        assert any(refused) and not all(refused)

    def test_every_admissible_ladder_is_admitted(self):
        # no ladder with L <= 9 and R < 6000 leaves a tail that no regime
        # computes
        checked = 0
        with mock.patch("circlelab.torus.fast_dyadic_quadratic_weyl",
                        lambda k, R, N: 0j):
            for L in range(1, 10):
                for R in range(1 << L, 6000):
                    try:
                        params = build_sequences(L, R)
                    except ParameterError:
                        continue
                    eta_multipliers(params)
                    checked += 1
        assert checked > 45000

    def test_longest_admitted_tail(self):
        # L = 2: W is the per-entry kernel values at R = 46, and at R = 48,
        # where j_2 = 23 leaves a tail of 2^23 terms, it matches the
        # term-by-term sums
        params = build_sequences(2, 46)
        W = eta_multipliers(params)
        assert_bitwise_equal(W, np.array(
            [[fast_dyadic_quadratic_weyl(ki, 46, 1 << jl) for ki in params.k]
             for jl in params.j]))
        params = build_sequences(2, 48)
        assert params.j[-1] == 23
        assert np.abs(eta_multipliers(params)
                      - oracle_multipliers(params)).max() <= 4e-16
        # a tail of 2^29 terms at m = 45 is within 2^16 of its period, and
        # m > 44: refused before any sum
        with mock.patch("circlelab.torus.fast_dyadic_quadratic_weyl",
                        side_effect=AssertionError):
            with pytest.raises(ResourceError, match=r"2\^29 terms"):
                eta_multipliers(CounterexampleParams(1, 45, (0,), (29,)))


class TestSampleCount:
    """eta_error and v2_partial_sums_norm refuse a bad sample count before
    any multiplier or phase is computed."""

    @pytest.mark.parametrize("samples,error", [
        (0, ParameterError), (-1, ParameterError),
        (LENGTH_BUDGET.limit + 1, ResourceError)])
    def test_refused_before_work(self, samples, error):
        params = build_sequences(2, 14)
        f = [0.6, 0.8]
        with mock.patch("circlelab.torus._ladder_phases",
                        side_effect=AssertionError), \
                mock.patch("circlelab.torus.eta_multipliers",
                           side_effect=AssertionError):
            with pytest.raises(error):
                eta_error(f, params, samples, 0)
            with pytest.raises(error):
                v2_partial_sums_norm(f, params, samples, 0)

    @pytest.mark.parametrize("L,R,samples", [
        (4, 262081, 4096), (2, 193, LENGTH_BUDGET.limit),
        (2, 99999999999999999999999, 1)])
    def test_sample_bits_refused_before_work(self, L, R, samples):
        # samples x (R + 64) bits over the budget, by one sample point's
        # bits at the first two; one point fewer bits is admitted
        params = build_sequences(L, R)
        f = np.ones(L)
        with mock.patch("circlelab.torus._ladder_phases",
                        side_effect=AssertionError), \
                mock.patch("circlelab.torus.eta_multipliers",
                           side_effect=AssertionError):
            with pytest.raises(ResourceError, match="sample-bit budget"):
                eta_error(f, params, samples, 0)
            with pytest.raises(ResourceError, match="sample-bit budget"):
                v2_partial_sums_norm(f, params, samples, 0)
        check_samples(build_sequences(L, min(R - 1, 262080)), samples)

    def test_one_point_admitted(self):
        params = build_sequences(2, 14)
        sup, rms = eta_error([0.6, 0.8], params, 1, 0)
        assert rms == pytest.approx(sup)
