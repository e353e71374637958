"""Empirical-bound harness: decay fits and named experiments.

Implicit-constant estimates are operationalized as stability checks: the
harness records the worst lhs/rhs ratio per scale and fits log-log slopes,
and the acceptance suite asserts non-growth (factor-of-4 stability by
default) rather than absolute thresholds.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple, Sequence

import numpy as np

from .arith import ArcParams, IntPoly, ReducedFraction, arc_labels
from .errors import (ALPHA_BYTE_BUDGET, LENGTH_BUDGET, PHASE_TERM_BUDGET,
                     RUN_DP_CELL_BUDGET, Budget, ParameterError,
                     ResourceError, check_budget)
from .expsum import _e_pos, check_count, weyl_sum_prefixes

# the Z/M experiments (smooth, entropy, main-decomp) import spectral and
# varnorm inside their functions, so that `est` loads neither

# verify_est part 2: most alpha draws per minor-arc sample before giving up
# (major arcs cover about half the circle at n = 1, delta = 1/8, and under
# 1 % from n = 6 on, so only a broken classifier reaches this)
REJECTION_ATTEMPT_FACTOR = 64
# verify_est part 2: the most draws one arc_labels call labels, so that its
# temporaries do not grow with the sample count
LABEL_BATCH = 1 << 16
# verify_est: the bytes of an alpha, its int64 numerator (parts 1 and 2
# keep a running max of the statistics, not one per alpha)
ALPHA_BYTES = 8
# verify_est part 3: the fractions whose major arcs are probed
EST_FRACTIONS = (ReducedFraction(0, 1), ReducedFraction(1, 3))
# verify_smooth: the multipliers and signals live on Z/SMOOTH_MODULUS
SMOOTH_MODULUS = 256


class BoundFitReport(NamedTuple):
    name: str
    scales: tuple
    values: tuple          # per-scale max ratios (or raw maxima)
    constant: float        # max over all recorded ratios
    slope: float           # least-squares log2 slope against the scale
    residual: float


def _power_fit(ns: Sequence[float], vs: Sequence[float]):
    """(slope, residual) of log vs on ns log 2; 3 or more distinct ns."""
    ns = np.asarray(ns, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if np.any(vs <= 0):
        raise ParameterError("values must be positive")
    x = ns * math.log(2.0)
    y = np.log(vs)
    A = np.vstack([x, np.ones_like(x)]).T
    # LAPACK on purpose: one point per scale, shell or trial, a 2-column
    # fit far too small to thread
    (slope, _), res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return float(slope), residual


def _make_report(name, scales, values) -> BoundFitReport:
    positive = [(n, v) for n, v in zip(scales, values) if v > 0]
    if len(positive) >= 3:
        slope, residual = _power_fit([p[0] for p in positive],
                                     [p[1] for p in positive])
    else:
        slope, residual = 0.0, 0.0
    return BoundFitReport(name, tuple(scales), tuple(values),
                          max(values) if values else 0.0, slope, residual)


def _max_steps(n: int, prefixes: np.ndarray) -> np.ndarray:
    """max over t >= 2^n of |K_hat_(t+1) - K_hat_t|, per row of prefixes."""
    return np.abs(np.diff(prefixes[:, (1 << n) - 1:], axis=1)).max(axis=1)


def _max_block_diffs(n: int, prefixes: np.ndarray) -> np.ndarray:
    """max over t in [2^n, 2^(n+1)) of |C_hat_t|, per row of prefixes."""
    block = prefixes[:, (1 << n) - 1:1 << (n + 1)]
    return np.abs(block - block[:, :1]).max(axis=1)


def _max_stat(stat, n: int, P: IntPoly, t_max: int, k, D) -> float:
    """The max of stat(n, prefixes) over the alphas k/D, a running max over
    the blocks of prefixes, so that no statistic outlives its block."""
    return max(float(stat(n, prefixes).max())
               for prefixes in weyl_sum_prefixes(P, t_max, k, D))


def _scale_params(n_min: int, n_max: int, delta: float, degree: int,
                  budget: Budget) -> list:
    """ArcParams at n = n_min..n_max, refused unless n_min <= n_max and
    the longest sum, of 2^(n_max+1) terms, fits `budget`.
    """
    if n_min > n_max:
        raise ParameterError("need n_min <= n_max")
    # 2^(n_max+1), its exponent capped far past every limit
    check_budget(budget, 1 << max(min(n_max + 1, 1 << 16), 0),
                 f"n_max={n_max}", "n_max")
    return [ArcParams(n, delta, degree) for n in range(n_min, n_max + 1)]


def verify_est(P: IntPoly, n_min: int, n_max: int, delta: float,
               samples_per_arc: int, seed: int, betas_per_scale: int = 12):
    """The three-part multiplier smoothness experiment at n = n_min..n_max.

    Part 1: |K_hat_t - K_hat_{t+1}| against 2^-n (triangle-inequality bound).
    Part 2: minor-arc decay of max |C_hat_t|, power-law fitted in n.
    Part 3: major-arc asymptotics near each of EST_FRACTIONS, with the
    part-2 fitted exponent feeding the right-hand side.
    Each part draws a scale's alphas first, as integer numerators, and
    takes their prefixes in one `weyl_sum_prefixes` call (part 3: one per
    fraction).  Every parameter, the terms of the largest call and the
    bytes of a scale's alphas are checked before part 1.
    """
    if P.degree < 2:
        raise ParameterError("verify_est needs degree >= 2")
    if samples_per_arc < 16:
        raise ParameterError("samples_per_arc must be >= 16")
    blocks = _scale_params(n_min, n_max, delta, P.degree, PHASE_TERM_BUDGET)
    rows = max(16, samples_per_arc, betas_per_scale)
    check_budget(PHASE_TERM_BUDGET, rows << (n_max + 1),
                 f"the largest prefix call, of 2^{n_max + 1} terms an alpha,",
                 "the samples or n_max")
    check_budget(ALPHA_BYTE_BUDGET, rows * ALPHA_BYTES, "each scale",
                 "the samples")
    ns = tuple(range(n_min, n_max + 1))
    rng = np.random.default_rng(seed)
    d, bd = P.degree, P.leading
    D = 1 << 53  # rng.random() draws k / 2^53 for an integer k

    part1_vals = []
    for n in ns:
        k = (rng.random(16) * D).astype(np.int64)
        part1_vals.append(_max_stat(_max_steps, n, P, 1 << (n + 1), k, D)
                          / 2.0 ** (-n))
    report1 = _make_report("est_part1_triangle", ns, part1_vals)

    part2_vals = []
    cap = REJECTION_ATTEMPT_FACTOR * samples_per_arc
    for params in blocks:
        n = params.n
        k = np.empty(samples_per_arc, dtype=np.int64)
        got = attempts = 0
        while got < samples_per_arc:
            if attempts == cap:
                raise ResourceError(
                    f"only {got} of {samples_per_arc} minor-arc samples at "
                    f"n={n} after {attempts} draws; lower delta or raise n")
            # as many draws as samples are missing (fewer at the caps): a
            # batch fills the samples only if it keeps all its draws, so
            # the stream and the draw count are those of one at a time
            need = min(samples_per_arc - got, cap - attempts, LABEL_BATCH)
            attempts += need
            draws = (rng.random(need) * D).astype(np.int64)
            kept = draws[~arc_labels(P, params, draws, D).major]
            k[got:got + len(kept)] = kept
            got += len(kept)
        part2_vals.append(_max_stat(_max_block_diffs, n, P,
                                    (1 << (n + 1)) - 1, k, D))
    report2 = _make_report("est_part2_minor_decay", ns, part2_vals)
    nu_hat = max(-report2.slope, 1e-6)

    part3_vals = []
    for params in blocks:
        n, w = params.n, params.width
        worst = 0.0
        for frac in EST_FRACTIONS:
            s = frac.level
            lo, hi = -n * d - 2, math.log2(w)
            betas, alphas = [], []
            for _ in range(betas_per_scale):
                beta = 2.0 ** rng.uniform(lo, hi)
                sign = 1 if rng.random() < 0.5 else -1
                alpha = (frac.a / frac.q + sign * beta) / bd
                betas.append(beta)
                # a float, passed as the dyadic rational it is
                alphas.append((alpha % 1.0).as_integer_ratio())
            lhs = np.concatenate([_max_block_diffs(n, prefixes) for prefixes
                                  in weyl_sum_prefixes(P, (1 << (n + 1)) - 1,
                                                       *zip(*alphas))])
            for beta, lhs_b in zip(betas, lhs):
                x = 2.0 ** n * beta ** (1.0 / d)
                rhs = 2.0 ** (-nu_hat * s) * (min(x, 1.0 / x) + 2.0 ** (-n / 2))
                worst = max(worst, float(lhs_b) / rhs)
        part3_vals.append(worst)
    report3 = _make_report("est_part3_major_asymptotics", ns, part3_vals)
    return report1, report2, report3


def _clipped_walk_multipliers(N: int, M: int, A: float, a: float, rng):
    """N multiplier rows on Z/M: sup |m_n| <= A, sup |m_n - m_{n+1}| <= a."""
    from .spectral import _complex_normal
    m = np.empty((N, M), dtype=complex)
    start = _complex_normal(rng, M)
    m[0] = start * (A / np.maximum(np.abs(start), A))
    for n in range(1, N):
        step = _complex_normal(rng, M) * a
        mag = np.abs(step)
        step *= np.where(mag > a, a / np.maximum(mag, 1e-300), 1.0)
        nxt = m[n - 1] + step
        nmag = np.abs(nxt)
        m[n] = nxt * np.where(nmag > A, A / np.maximum(nmag, 1e-300), 1.0)
    return m


def _ramp_multipliers(N: int, M: int, A: float, a: float, rng) -> np.ndarray:
    """Ballistic zigzag family: full-size steps with reversals at |m| = A.

    This is the family that saturates the sqrt(N A a) budget (a diffusive
    walk only reaches ~ a sqrt(N)), so including it keeps the fitted
    constant meaningful across parameter regimes.
    """
    path = np.empty(N)
    pos, step = -A, a
    for n in range(N):
        path[n] = pos
        pos += step
        if pos > A or pos < -A:
            step = -step
            pos += 2 * step
    phases = _e_pos(rng.random(M))
    return path[:, None] * phases[None, :]


def verify_smooth(N: int, A: float, a: float, trials: int,
                  seed: int) -> BoundFitReport:
    """Tests ||V^2(B_n f)||_2 <= C sqrt(N A a) ||f||_2 on multiplier families.

    Trial 0 uses the deterministic saturating zigzag family; the remaining
    trials draw clipped random walks.  2^-256 <= a <= A <= 2^256 keeps
    sqrt(N A a) a normal float and fhat * m and its squared differences
    finite, and A <= 2^40 a keeps a step of a resolvable against |m| <= A.
    """
    from .spectral import _complex_normal, _pairwise_norm, multiplier_variation
    from .varnorm import check_dp_cells
    if not (2.0 ** -256 <= a <= A <= 2.0 ** 256 and A <= 2.0 ** 40 * a):
        raise ParameterError("need 2^-256 <= a <= A <= 2^256 and A <= 2^40 a")
    if N < 1 or trials < 1:
        raise ParameterError("N and trials must be positive")
    M = SMOOTH_MODULUS
    check_dp_cells(M, N, "N")
    check_budget(RUN_DP_CELL_BUDGET, trials * M * (N * (N - 1) // 2),
                 "the run of trials", "the trials or N")
    rng = np.random.default_rng(seed)
    bound = math.sqrt(N * A * a)
    ratios = []
    for trial in range(trials):
        if trial == 0:
            mults = _ramp_multipliers(N, M, A, a, rng)
        else:
            mults = _clipped_walk_multipliers(N, M, A, a, rng)
        f = _complex_normal(rng, M)
        v = multiplier_variation(np.fft.fft(f), mults, 2.0, mults)
        ratios.append(v / _pairwise_norm(f) / bound)
    return _make_report("smooth_lemma", tuple(range(trials)), tuple(ratios))


def _place_separated_frequencies(N: int, M: int, rng):
    """N sorted frequencies on Z/M, N | M: spacing M/N, each jittered by at
    most M // (8N) either way, so every circular gap is >= 3/4 M/N."""
    base = np.arange(N) * (M // N)
    jitter = rng.integers(-(M // (8 * N)), M // (8 * N) + 1, size=N)
    freqs = (base + jitter) % M
    freqs.sort()
    return freqs


def _circular_distance(freqs: np.ndarray, M: int) -> np.ndarray:
    """Distance on Z/M from each j = 0..M-1 to the nearest of the sorted
    frequencies in [0, M), as floats.

    One `searchsorted` over the frequencies shifted by -M, 0 and +M puts
    the nearest one at the insertion point or just before it.
    """
    ext = np.concatenate([freqs - M, freqs, freqs + M])
    j = np.arange(M)
    right = np.searchsorted(ext, j)
    return np.minimum(j - ext[right - 1], ext[right] - j).astype(float)


def verify_entropy(num_freqs: int, sigma: float, r: float, seed: int,
                   trials: int = 8, grid_factor: int = 1 << 14
                   ) -> BoundFitReport:
    """Discrete surrogate of the separated-frequency variation bound.

    Places num_freqs frequencies separated by >= M tau on Z/M, with
    tau = 1/(2 num_freqs), builds the nested sigma^-k neighbourhood
    projections (admissible k obey sigma^-k < tau/100) once, as
    `spectral.projections` of their masks, and records
    ||V^r(proj_k f)|| / ||f|| over random f against the
    (r/(r-2) log N)^2 / (sigma - 1) envelope.  Every parameter is checked
    before the first FFT.

    The caller draws trial 0's f.  While it runs trial t's projections
    (scatter, decimated inverse FFT and DP), one helper thread draws
    trial t+1's f, takes its norm and transforms it in place; each helper
    is joined before the next one starts, so the draws come from `rng` in
    the sequential order and the report is bitwise that of one trial
    after another.
    """
    from .spectral import (_complex_normal, _pairwise_norm,
                           multiplier_variation, projections)
    from .varnorm import check_dp_cells
    if not (1 < sigma < math.inf and 2 < r < math.inf):
        raise ParameterError("need finite sigma > 1 and r > 2")
    N = int(num_freqs)
    if N < 1 or trials < 1 or grid_factor < 1:
        raise ParameterError("num_freqs, trials and grid_factor must be "
                             "positive")
    tau = 1.0 / (2 * N)
    M = N * grid_factor
    rng = np.random.default_rng(seed)

    k_min = int(math.floor(math.log(100.0 / tau) / math.log(sigma))) + 1
    k_max = int(math.floor(math.log(M / 2.0) / math.log(sigma)))
    if k_max < k_min:
        raise ParameterError(
            "no admissible k: neighbourhoods overlap or fall below the grid "
            "resolution; lower sigma")
    # a range, so that a sigma near 1 is refused before any k is made
    ks = range(k_min, k_max + 1)
    check_dp_cells(M, len(ks), "the number of frequencies, or raise sigma")
    check_budget(LENGTH_BUDGET, M, f"modulus M={M} ({N} frequencies x "
                 f"{grid_factor})", "the number of frequencies")

    freqs = _place_separated_frequencies(N, M, rng)
    dmin = _circular_distance(freqs, M)
    proj = projections(np.stack([dmin <= sigma ** (-k) * M for k in ks]))

    def draw(slot):
        # a trial's (||f||, fhat), fhat made in f's own memory; an exception
        # is kept, to be re-raised once its thread is joined
        try:
            f = _complex_normal(rng, M)
            slot[0] = (_pairwise_norm(f), np.fft.fft(f, out=f))
        except BaseException as exc:
            slot[0] = exc

    work = np.empty(proj.shape, dtype=complex)
    ratios = []
    slot = [None]
    draw(slot)
    for t in range(trials):
        if isinstance(slot[0], BaseException):
            raise slot[0]
        norm, fhat = slot[0]
        helper = None
        if t + 1 < trials:
            helper = threading.Thread(target=draw, args=(slot,))
            helper.start()
        try:
            ratios.append(multiplier_variation(fhat, proj, r, out=work)
                          / norm)
        finally:
            if helper is not None:
                helper.join()
    value = max(ratios)
    envelope = (r / (r - 2.0) * max(math.log(N), 1.0)) ** 2 / (sigma - 1.0)
    return BoundFitReport("entropy_surrogate", (N,), (value,),
                          value / envelope, 0.0, 0.0)


class DecompositionReport(NamedTuple):
    minor: BoundFitReport
    annulus_offsets: tuple        # |l| values used in the decay fit
    annulus_values: tuple         # normalized block quantities per offset
    annulus_decay_exponent: float
    reassembly_lhs: float
    reassembly_rhs: float


def verify_main_decomposition(P: IntPoly, M: int, n_min: int, n_max: int,
                              delta: float, seed: int, nu_floor: float,
                              t_samples: int = 16) -> DecompositionReport:
    """Minor-arc smallness and annulus decay of the short-variation blocks.

    The n-th Minor value is normalized by 2^(-n nu_floor / 2).  The true
    in-arc annuli sit far below the 1/M grid resolution at these
    scales, so the decay check runs over resolvable distance shells around
    the admitted fractions (the multiplier bound 2^(-|l|/d) is symmetric
    in the shell offset l = k - nd, so the shells probe the same decay).
    """
    from .spectral import (_complex_normal, _pairwise_norm,
                           average_multipliers, multiplier_variation)
    from .varnorm import check_dp_cells
    if not math.isfinite(nu_floor):
        raise ParameterError("nu_floor must be finite")
    M = check_count(M, "modulus M", LENGTH_BUDGET)
    if M & (M - 1):
        raise ParameterError("M must be a power of two")
    d = P.degree
    blocks = _scale_params(n_min, n_max, delta, d, LENGTH_BUDGET)
    # the normalizer 2^(-n nu_floor / 2) must stay a normal float at every
    # n, far from underflow to 0 and from overflow: the largest |exponent|
    # is at n = n_max
    if n_max * abs(nu_floor) / 2 > 1000:
        raise ParameterError(
            f"nu_floor={nu_floor} puts 2^(-n nu_floor / 2) outside "
            f"2^-1000..2^1000 at n_max={n_max}; need n_max * |nu_floor| / 2 "
            f"<= 1000")

    def block_scales(n):
        return sorted(set(np.linspace(1 << n, 1 << (n + 1), t_samples,
                                      dtype=int).tolist()))

    # the last block has the most distinct scales
    check_dp_cells(M, len(block_scales(n_max)), "the modulus")
    rng = np.random.default_rng(seed)
    f = _complex_normal(rng, M)
    fhat = np.fft.fft(f)
    fnorm = _pairwise_norm(f)

    minor_vals = []
    ann_offsets, ann_values = [], []
    lhs_total, rhs_total = 0.0, 0.0
    for params in blocks:
        n = params.n
        ts = block_scales(n)
        # ts[0] = 2^n: every row minus the block's base multiplier
        cmults = average_multipliers(P, ts, M)
        cmults -= cmults[0].copy()
        work = np.empty_like(cmults)

        def block_norm(indicator: np.ndarray) -> float:
            return multiplier_variation(fhat * indicator, cmults, 2.0,
                                        out=work)

        arcs = arc_labels(P, params, np.arange(M), M)
        val = block_norm((~arcs.major).astype(float))
        minor_vals.append(val / (2.0 ** (-n * nu_floor / 2.0) * fnorm))

        l_n = params.critical_annulus_index
        if n == n_max:
            # reassembly: V^2 of the full signal vs the sum over the
            # resolvable shells k <= log2 M and the deep part below them
            lhs_total = block_norm(np.ones(M))
            log2_m = int(math.log2(M))
            for k in range(1, log2_m + 1):
                ind = arcs.shell == k
                if not ind.any():
                    continue
                val = block_norm(ind.astype(float))
                rhs_total += val
                offs = abs(k - n * d)
                part_norm = _pairwise_norm(fhat[ind]) / math.sqrt(M)
                if offs <= l_n and part_norm > 0:
                    ann_offsets.append(offs)
                    ann_values.append(val / part_norm)
            deep = arcs.shell > log2_m
            if deep.any():
                rhs_total += block_norm(deep.astype(float))

    minor_report = _make_report("main_decomposition_minor",
                                tuple(range(n_min, n_max + 1)), minor_vals)
    if len(ann_offsets) >= 3:
        slope, _ = _power_fit(ann_offsets, ann_values)
        decay = -slope
    else:
        decay = math.nan
    return DecompositionReport(minor_report, tuple(ann_offsets),
                               tuple(ann_values), decay,
                               lhs_total, rhs_total)
