"""Lacunary trigonometric polynomials and the 2-variation lower-bound lab.

The averaging frequency is alpha = 2^-R, the test functions are supported
on power-of-two frequencies 2^k with k <= R, and sample points are dyadic
rationals with R + 64 random bits, so every phase 2^k x mod 1 is computed
with exact integer shifts before being rounded once to double precision.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (LENGTH_BUDGET, RUN_DP_CELL_BUDGET, SAMPLE_BIT_BUDGET,
                     ParameterError, check_budget)
from .dyadic import check_tail_regime, fast_dyadic_quadratic_weyl
from .expsum import _e_pos, check_count
from .varnorm import (_best_power_sums, _dp_workspace, check_dp_cells,
                      variation_values)

# a start of the coefficient search stops once a power step raises its
# objective by no more than this, relatively
POWER_RISE_TOL = 1e-12


class CounterexampleParams(NamedTuple):
    """The recursively built exponent ladders k_1 > ... > k_L, j_1 < ... < j_L."""

    L: int
    R: int
    k: tuple
    j: tuple

    def identity_defects(self):
        """(k_{l-1} + j_l - R) for l >= 2 and (k_l + 2 j_l + L - R) for all l."""
        coupling = tuple(self.k[l - 1] + self.j[l] - self.R
                         for l in range(1, self.L))
        closure = tuple(self.k[l] + 2 * self.j[l] + self.L - self.R
                        for l in range(self.L))
        return coupling, closure


def build_sequences(L: int, R: int) -> CounterexampleParams:
    """Top-down recursion k_L = 0, j_l = (R - L - k_l)/2, k_{l-1} = R - j_l.

    Divisions round up so that k_{l-1} + j_l = R stays exact and
    k_l + 2 j_l + L lands in {R, R+1}; when 2^(L+1) divides
    R - (2^(L+1)-1) L everything divides evenly and the closed forms of
    the construction are reproduced exactly.
    """
    if L < 1:
        raise ParameterError("L must be >= 1")
    # j_(l-1) = ceil((j_l - L)/2) >= 1 gives j_l >= 2 j_(l-1), so an
    # admissible ladder has R > 2 j_(L-1) >= 2^L: refused before the
    # lists of L rungs are made
    if L >= int(R).bit_length():
        raise ParameterError(
            f"R={R} too small for L={L}: sequences leave the admissible range")
    k = [0] * L
    j = [0] * L
    j[L - 1] = -((L - R) // 2)  # ceil((R - L) / 2)
    for l in range(L - 1, 0, -1):
        k[l - 1] = R - j[l]
        j[l - 1] = -((L + k[l - 1] - R) // 2)  # ceil((R - L - k)/2)
    # j_(l-1) = ceil((j_l - L)/2) < j_l once j_l >= 1, and k_(l-1) =
    # R - j_l, so a ladder in range has j rising and k falling
    if any(x < 0 for x in k) or any(x < 1 for x in j):
        raise ParameterError(
            f"R={R} too small for L={L}: sequences leave the admissible range")
    return CounterexampleParams(L, R, tuple(k), tuple(j))


def exact_ladder_radius(L: int, R: int) -> int:
    """Nearest R' >= max(R, minimum) with 2^(L+1) | R' - (2^(L+1)-1) L.

    At such R' the recursion divides evenly and matches the closed forms.
    """
    mod = 1 << (L + 1)
    target = ((mod - 1) * L) % mod
    r = max(R, 1)
    while r % mod != target or not _admissible(L, r):
        r += 1
    return r


def _admissible(L: int, R: int) -> bool:
    try:
        build_sequences(L, R)
        return True
    except ParameterError:
        return False


def check_samples(params: CounterexampleParams, sample_count: int) -> None:
    """Refuse a sample count below 1 (exit 2), over LENGTH_BUDGET, or over
    SAMPLE_BIT_BUDGET at R + 64 random bits a point (exit 3)."""
    n = check_count(sample_count, "sample_count", LENGTH_BUDGET,
                    "the sample count")
    check_budget(SAMPLE_BIT_BUDGET, n * (params.R + 64),
                 f"drawing {n} sample points of R + 64 bits",
                 "the sample count or R")


def _ladder_phases(params: CounterexampleParams, sample_count: int,
                   seed: int) -> np.ndarray:
    """(L, samples) phases {2^{k_i} x} at exact dyadic sample points.

    Each point is an (R + 64)-bit numerator, the big-endian value of the
    first nbytes bytes of a row of little-endian uint32 words, masked to
    R + 64 bits: one draw of every row gives the bytes and leaves the
    generator as `sample_count` calls of `Generator.bytes(nbytes)` would.
    """
    bits = params.R + 64
    nbytes = (bits + 7) // 8
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 1 << 32, size=(sample_count, -(-nbytes // 4)),
                         dtype=np.uint32)
    raw = words.astype("<u4", copy=False).view(np.uint8)[:, :nbytes].tobytes()
    del words
    numers = np.fromiter((int.from_bytes(raw[i:i + nbytes], "big")
                          for i in range(0, len(raw), nbytes)),
                         dtype=object, count=sample_count)
    del raw
    phases = np.empty((params.L, sample_count), dtype=float)
    for i, ki in enumerate(params.k):
        # {2^{k_i} x} is the numerator's low bits - k_i bits over
        # 2^(bits - k_i); an int over an int divides correctly rounded
        den = 1 << (bits - ki)
        phases[i] = (numers & (den - 1)) / den
    return phases


def _partial_sums(p: np.ndarray) -> np.ndarray:
    """Rows a_i z_i of p (L, samples) become S_l f = sum_{i >= l} a_i z_i,
    in place, with a reversed cumulative sum's additions in its order."""
    for l in range(len(p) - 2, -1, -1):
        p[l] += p[l + 1]
    return p


def _ladder_coeffs(coeffs, params: CounterexampleParams) -> np.ndarray:
    """One complex coefficient per rung, in `params.k` order."""
    a = np.asarray(coeffs, dtype=complex)
    if a.shape != (params.L,):
        raise ParameterError(
            f"need {params.L} coefficients, one per rung, not shape {a.shape}")
    return a


def eta_multipliers(params: CounterexampleParams) -> np.ndarray:
    """W[l, i]: the exact multiplier of K_{2^{j_l}} at frequency 2^{k_i}.

    Any entry's dyadic tail that no regime computes is refused first, so
    callers can build W before any other expensive work: entry (l, i) has
    a tail of 2^(j_l) terms at m = R - k_i when j_l < m, and
    `check_tail_regime` reads exponents only.
    """
    for jl in params.j:
        for ki in params.k:
            if jl < params.R - ki:
                check_tail_regime(params.R - ki, jl + 1)
    return np.array([[fast_dyadic_quadratic_weyl(ki, params.R, 1 << jl)
                      for ki in params.k] for jl in params.j])


def eta_error(coeffs: Sequence[complex], params: CounterexampleParams,
              sample_count: int, seed: int,
              W: Optional[np.ndarray] = None):
    """Monte Carlo sup and RMS of eta(f) = sum_l |S_l f - K_{2^{j_l}} * f|.

    f = sum_i coeffs[i] e(2^{k_i} x), one coefficient per rung in
    `params.k` order.  The averaging multipliers W[l, i] are exact
    (`eta_multipliers(params)` unless given); only the spatial supremum
    is estimated by sampling.
    """
    a = _ladder_coeffs(coeffs, params)
    check_samples(params, sample_count)
    if W is None:
        W = eta_multipliers(params)
    phases = _ladder_phases(params, sample_count, seed)
    az = _e_pos(phases) * a[:, None]   # (L, samples)
    partial = _partial_sums(az.copy())
    # row l-1 = K_{2^{j_l}} * f, formed sample-major: W @ az rounds
    # differently in the last bit.  BLAS on purpose: these are the
    # recorded bits, and a (samples, L) x (L, L) product left the BLAS
    # worker idle when measured
    averaged = (az.T @ W.T).T
    eta = np.abs(partial - averaged).sum(axis=0)
    return float(eta.max()), float(np.sqrt(np.mean(eta ** 2)))


def v2_partial_sums_norm(coeffs: Sequence[complex],
                         params: CounterexampleParams,
                         sample_count: int, seed: int) -> float:
    """Monte Carlo L^2(T) norm of x -> V^2((S_m f(x))_{m=1..L}), with f
    given by its coefficients as in `eta_error`."""
    a = _ladder_coeffs(coeffs, params)
    check_samples(params, sample_count)
    phases = _ladder_phases(params, sample_count, seed)
    return _partial_sum_objective(a, _e_pos(phases))


def _independent_phase_matrix(L: int, sample_count: int,
                              seed: int) -> np.ndarray:
    """(L, samples) per-frequency phase rows, stable in L for fixed seed.

    Row i only depends on (seed, i), so embedding an optimal
    coefficient vector into a longer ladder reuses identical samples and
    the optimizer's objective is exactly monotone in L.
    """
    rows = [np.random.default_rng([seed, i]).random(sample_count)
            for i in range(L)]
    return _e_pos(np.stack(rows))


def _v2_rms(v: np.ndarray) -> float:
    """The RMS of the samples' V^2 values."""
    return float(np.sqrt(np.mean(v ** 2)))


def _partial_sum_objective(coeffs: np.ndarray, z: np.ndarray) -> float:
    """RMS over the samples of V^2 of the partial sums of coeffs * z."""
    p = _partial_sums(z * coeffs[:, None])
    return _v2_rms(variation_values(p.T, 2.0))


def _chain_gradient(b, pred, p, z, d) -> np.ndarray:
    """The gradient of Phi^2 = mean V^2(S f)^2 in the real coefficients.

    b and pred are the chain-mode DP of the partial sums p = S f (L,
    samples) of the coefficients times z.  A sample's chain ends at its
    first slot at the max and follows pred to slot 0; t in its block
    [i, j) gains 2 Re(conj(p_i - p_j) z_t), averaged over the samples, so
    t = L - 1 gains 0.  d is an (L - 1, samples) complex buffer.  This is
    `_optimal_chain`'s chain, which stops at a slot of power sum 0: a
    slot s > 0 of power sum 0 has p_i = p_s for i < s, so a successor's
    first maximal predecessor is never s (unless |p_s - p_i|^2 underflows).
    """
    L, n = p.shape
    end = (b < b[-1]).sum(axis=0)   # b rises along j
    on = np.empty((L, n), dtype=bool)   # the slots of each sample's chain
    on[0] = True
    nxt = end.copy()
    for j in range(L - 1, 0, -1):
        np.equal(nxt, j, out=on[j])
        # an arithmetic select: masked ones cost about 3 ns an element
        nxt += on[j] * (pred[j] - j)
    # d[t] = p at the last chain slot <= t minus p at the first one > t;
    # past the chain's end d is 0, as p_j = p_end there (b[j] = b[end])
    fill = p[0]
    for t in range(L - 1):
        d[t] = fill = np.where(on[t], p[t], fill)
    fill = p[-1]
    for t in range(L - 2, -1, -1):
        fill = np.where(on[t + 1], p[t + 1], fill)
        d[t] -= fill
    # Re(conj(d) z) summed as the interleaved (re, im) products
    prods = d.view(float)
    prods *= z[:L - 1].view(float)
    return np.append(prods.sum(axis=1) * (2.0 / n), 0.0)


def _power_ascent(a: np.ndarray, z: np.ndarray, steps: int, bufs):
    """Boyd's power method for Phi(a) = ||V^2(S f)||_2 from unit a.

    A step moves to g / ||g||, g the gradient of the convex Phi^2, so
    g . a = 2 Phi^2 > 0 and Phi never falls.  At most `steps` steps; it
    stops once Phi rises by no more than POWER_RISE_TOL, relatively.  Phi
    is `_partial_sum_objective`'s, from the DP's last row.  `bufs` is the
    held (workspace, pred, p, d).  Returns Phi's history and the best a.
    """
    work, pred, p, d = bufs
    history, best = [], a
    for step in range(steps + 1):
        _partial_sums(np.multiply(z, a[:, None], out=p))
        b = _best_power_sums(p, 2.0, work, pred)
        phi = _v2_rms(b[-1] ** (1.0 / 2.0))
        risen = not history or phi > history[-1] * (1.0 + POWER_RISE_TOL)
        if not history or phi > history[-1]:
            best = a
        history.append(phi)
        if not risen or step == steps:
            break
        g = _chain_gradient(b, pred, p, z, d)
        a = g / math.hypot(*g)
    return history, best


def search_coefficients(L: int, iterations: int, restarts: int, seed: int,
                        sample_count: int = 8192,
                        init: Optional[Sequence[float]] = None):
    """Maximize ||V^2(S_m f)||_2 over unit-norm real coefficient vectors.

    `_power_ascent` from `init` (made non-negative, zero-padded and
    normalized; one with no weight off the last rung has Phi = 0 and is
    replaced), else from the uniform vector, then from `restarts` random
    starts of the generator of (seed, 999), each for at most `iterations`
    steps.  Returns the best iterate and its objective.  All steps share
    the phases, one DP workspace, one predecessor table and one buffer.
    """
    if L < 2:
        raise ParameterError("L must be >= 2")
    if iterations < 0 or restarts < 0:
        raise ParameterError("iterations and restarts must be >= 0")
    check_count(sample_count, "sample_count", LENGTH_BUDGET,
                "the sample count")
    check_dp_cells(sample_count, L, "L")
    # every start is evaluated once and then once per iteration at most
    # (an init takes the uniform start's place, so it counts one too many)
    check_budget(RUN_DP_CELL_BUDGET,
                 (restarts + 1 + (init is not None)) * (iterations + 1)
                 * sample_count * (L * (L - 1) // 2),
                 "the coefficient search", "the restarts or the iterations")
    first = np.ones(L)
    if init is not None:
        if len(init) > L:
            raise ParameterError("init longer than L")
        padded = np.zeros(L)
        padded[:len(init)] = np.abs(np.asarray(init, dtype=float))
        if padded[:-1].any():
            first = padded
    z = _independent_phase_matrix(L, sample_count, seed)
    rng = np.random.default_rng([seed, 999])
    bufs = (_dp_workspace(L, sample_count),
            np.empty((L, sample_count), dtype=np.intp), np.empty_like(z),
            np.empty((L - 1, sample_count), dtype=complex))
    best_a, best_phi = None, -math.inf
    for start in [first] + [rng.random(L) for _ in range(restarts)]:
        history, a = _power_ascent(start / math.hypot(*start), z,
                                   iterations, bufs)
        if max(history) > best_phi:
            best_a, best_phi = a, max(history)
    return tuple(best_a), best_phi
