"""Multiplier-side objects: Weyl sums and Gauss weights.

Phase arithmetic is exact: alpha is treated as the exact rational it is
(floats are dyadic rationals), and alpha * P(n) is reduced mod 1 with
integer arithmetic before ever touching floating point, so normalized
sums are correct to machine precision even when P(n) is huge.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .arith import IntPoly, ReducedFraction, congruence_data
from .errors import (PHASE_TERM_BUDGET, Budget, ParameterError,
                     check_budget)

# phases are produced and consumed in chunks of this many terms
_PHASE_CHUNK = 1 << 16
# the e(-ph) kernel's temporaries, and a block of weyl_sum_prefixes, cover
# at most this many terms, so they stay in cache (2^16-term blocks cost
# `est` about 3 MB more peak memory and twice the page faults)
_CACHE_CHUNK = 1 << 14


def check_count(n: int, name: str, budget: Budget = PHASE_TERM_BUDGET,
                lower: str = "") -> int:
    """n as an int, refused unless 1 <= n <= the budget's limit.

    ParameterError (exit 2) below 1, ResourceError (exit 3) above the
    budget, with `lower` (by default the count's name) as what to lower;
    callers check a count before any work that it sizes.
    """
    n = int(n)
    if n < 1:
        raise ParameterError(f"{name} must be a positive integer")
    check_budget(budget, n, name, lower or name)
    return n


# dyadic den = 2^e, 64 < e <= 128: residues in two uint64 limbs
_LIMB_PAIR = np.dtype([("hi", np.uint64), ("lo", np.uint64)])
_LOW32 = np.uint64(0xFFFFFFFF)


def _residue_dtype(den: int) -> np.dtype:
    """The dtype of residues mod den: the path that reduces them.

    uint64 for den = 2^e, e <= 64; the limb pair for 64 < e <= 128; int64
    for any other den < 2^31; Python ints in an object array otherwise.
    """
    if den & (den - 1) == 0 and den <= 1 << 128:
        return np.dtype(np.uint64) if den <= 1 << 64 else _LIMB_PAIR
    return np.dtype(np.int64 if den < 1 << 31 else object)


def _residue_rows(coeffs, k, dens, start: int, stop: int) -> np.ndarray:
    """k_i Q(n) mod den_i for n = start..stop-1, one row per k_i.

    Q(n) = sum_j coeffs[j] n^j has any Python int coefficients (the leading
    one may vanish mod den); k is a 1-D integer or object array, and dens
    is as `weyl_sum_prefixes` takes D, every den of one `_residue_dtype`.
    For den = 2^e, Horner runs in uint64 with wraparound, in one limb or
    two, and masks once at the end, since mod 2^e factors through mod 2^64
    and 2^128.  Other den are reduced at every step, in int64 for den <
    2^31 (callers keep stop <= PHASE_TERM_BUDGET + 1 < 2^31, so every
    product stays below 2^62) and on Python ints otherwise.  Returns
    (rows, stop - start).
    """
    dens = np.asarray(dens, dtype=object).reshape(-1)
    dtype = _residue_dtype(dens[0])
    # cs[j]: every row's k_i times the coefficient of n^(d-j)
    desc = np.array(coeffs[::-1], dtype=object)[:, None]
    if dtype == np.uint64 and k.dtype != object:
        cs = (desc % (1 << 64)).astype(np.uint64) * k.astype(np.uint64)
    else:
        cs = desc * k.astype(object) % dens
    if dtype == _LIMB_PAIR:
        return _limb_residue_rows(cs, dens, start, stop)
    cs = cs.astype(dtype)[..., None]
    n = np.arange(start, stop, dtype=dtype)
    acc = np.empty((len(k), len(n)), dtype=dtype)
    acc[...] = cs[0]
    for c in cs[1:]:
        acc *= n
        acc += c
        if dtype != np.uint64:
            np.remainder(acc, dens.astype(dtype)[:, None], out=acc)
    if dtype == np.uint64:
        acc &= (dens - 1).astype(dtype)[:, None]
    return acc


def _limb_residue_rows(cs, dens, start: int, stop: int) -> np.ndarray:
    """`_residue_rows` for den = 2^e, 64 < e <= 128, in (hi, lo) uint64 limbs.

    From cs, the reduced coefficients as Python ints, Horner multiplies by
    n < 2^32 with lo split into 32-bit halves, so each partial product fits
    64 bits, and carries by unsigned compare.
    """
    c_hi = (cs >> 64).astype(np.uint64)[..., None]
    c_lo = (cs & ((1 << 64) - 1)).astype(np.uint64)[..., None]
    n = np.arange(start, stop, dtype=np.uint64)
    shape = (cs.shape[1], len(n))
    hi, lo = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    hi[...], lo[...] = c_hi[0], c_lo[0]
    mid, tmp = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    for ch, cl in zip(c_hi[1:], c_lo[1:]):
        # (hi, lo) * n = hi n 2^64 + (lo >> 32) n 2^32 + (lo & LOW32) n
        np.right_shift(lo, 32, out=mid)
        mid *= n
        lo &= _LOW32
        lo *= n
        hi *= n
        np.right_shift(mid, 32, out=tmp)
        hi += tmp
        mid <<= 32
        lo += mid
        np.less(lo, mid, out=tmp)
        hi += tmp
        lo += cl
        np.less(lo, cl, out=tmp)
        hi += tmp
        hi += ch
    hi &= ((dens >> 64) - 1).astype(np.uint64)[:, None]
    out = np.empty(shape, _LIMB_PAIR)
    out["hi"], out["lo"] = hi, lo
    return out


def residue_counts(coeffs, t: int, q: int) -> np.ndarray:
    """How often Q(n) = sum_j coeffs[j] n^j hits each residue mod q, n = 1..t.

    Both t and q must fit PHASE_TERM_BUDGET, which keeps q < 2^31.
    """
    t, q = check_count(t, "t"), check_count(q, "q")
    counts = np.zeros(q, dtype=np.int64)
    for start in range(1, t + 1, _PHASE_CHUNK):
        r = _residue_rows(coeffs, np.ones(1, np.int64), q, start,
                          min(start + _PHASE_CHUNK, t + 1))[0]
        counts += np.bincount(r.astype(np.intp), minlength=q)
    return counts


def _limb_phases(r: np.ndarray, dens) -> np.ndarray:
    """r / den correctly rounded, for limb-pair residues r < den = 2^e.

    The 64 bits from the leading bit of r down, with a sticky bit for any
    set bit below them, round to the same 53 bits as r itself; that window
    converts correctly rounded, and scaling by a power of two is exact.
    """
    hi, lo = r["hi"], r["lo"]
    # k: the bit length of hi, read off exact floats of its 32-bit halves
    top = hi >> 32
    k = np.where(top > 0, np.frexp(top.astype(float))[1] + 32,
                 np.frexp((hi & _LOW32).astype(float))[1])
    ku = k.astype(np.uint64)
    # numpy shifts by 64 or more give 0, so k = 0 leaves window = lo
    window = (hi << (64 - ku)) | (lo >> ku)
    window |= (lo << (64 - ku)) != 0
    exps = np.array([den.bit_length() - 1 for den in dens])[:, None]
    return np.ldexp(window.astype(float), k - exps)


def _phase_rows(coeffs, k, dens, start: int, stop: int) -> np.ndarray:
    """frac(k_i Q(n) / den_i) for n = start..stop-1, one row per k_i, exactly.

    k_i Q(n) is reduced mod den_i by `_residue_rows`, and each residue r
    becomes r/den_i correctly rounded.
    """
    r = _residue_rows(coeffs, k, dens, start, stop)
    dens = np.asarray(dens, dtype=object).reshape(-1)
    if r.dtype == _LIMB_PAIR:
        return _limb_phases(r, dens)
    if r.dtype == object:
        # Python ints divide correctly rounded
        return (r / dens[:, None]).astype(float)
    # on uint64 a power-of-two den scales the correctly rounded float(r)
    # exactly, and on int64 r and den < 2^31 are exact floats: one rounding
    return r / dens.astype(float)[:, None]


def _phase_chunks(coeffs, t: int, num, den) -> Iterator[np.ndarray]:
    """frac(num Q(n) / den) for n = 1..t, reduced exactly, in chunks."""
    return (_phase_rows(coeffs, np.array([num], dtype=object), den, start,
                        min(start + _PHASE_CHUNK, t + 1))[0]
            for start in range(1, t + 1, _PHASE_CHUNK))


# e(-h/4096) for h = 0..4095 as real and imaginary parts: cos and sin of
# the first octant, whose angles are within half an ulp, and the rest by
# the circle's symmetries, so every entry is within an ulp
_octant = np.arange(513) * (math.pi / 2048)
_c8, _s8 = np.cos(_octant), np.sin(_octant)
_cq = np.concatenate([_c8, _s8[511:0:-1]])
_sq = np.concatenate([_s8, _c8[511:0:-1]])
_E_RE = np.concatenate([_cq, -_sq, -_cq, _sq])
_E_IM = np.concatenate([-_sq, -_cq, _sq, _cq])
del _octant, _c8, _s8, _cq, _sq


def _e_work(n: int):
    """Scratch for `_e_neg` on up to n terms, to reuse across its calls."""
    m = min(n, _CACHE_CHUNK)
    return np.empty((6, m)), np.empty(m, dtype=np.intp)


def _e_neg(ph: np.ndarray, out: np.ndarray, work) -> np.ndarray:
    """out = e(-ph) = exp(-2 pi i ph) for 1-D phases 0 <= ph <= 1.

    ph = h/4096 + l exactly, h an integer and 0 <= l < 2^-12.  The table
    gives e(-h/4096) = a + ib, and theta = 2 pi l < 1.54e-3 gives
    w = 1 - cos(theta) and s = sin(theta) by 3-term series (error below
    2e-20), so e(-ph) = a - (a w - b s) + i (b - (b w + a s)).  `work` is
    an `_e_work` scratch; the temporaries cover _CACHE_CHUNK terms at a time.
    """
    scale = 4096.0
    floats, h = work
    for lo in range(0, len(ph), _CACHE_CHUNK):
        k = min(_CACHE_CHUNK, len(ph) - lo)
        x, t2, w, s, a, b = floats[:, :k]
        hk = h[:k]
        np.multiply(ph[lo:lo + k], scale, out=x)
        hk[...] = x
        x -= hk
        x *= 2.0 * math.pi / scale
        np.multiply(x, x, out=t2)
        # w = t2 (1/2 - t2/24), s = theta (1 - t2 (1/6 - t2/120))
        np.multiply(t2, -1.0 / 24.0, out=w)
        w += 0.5
        w *= t2
        np.multiply(t2, -1.0 / 120.0, out=s)
        s += 1.0 / 6.0
        s *= t2
        np.subtract(1.0, s, out=s)
        s *= x
        # ph = 1, which r/den can round to, wraps to h = 0
        np.take(_E_RE, hk, out=a, mode="wrap")
        np.take(_E_IM, hk, out=b, mode="wrap")
        ok = out[lo:lo + k]
        np.multiply(a, w, out=x)
        np.multiply(b, s, out=t2)
        x -= t2
        np.subtract(a, x, out=ok.real)
        np.multiply(b, w, out=x)
        np.multiply(a, s, out=t2)
        x += t2
        np.subtract(b, x, out=ok.imag)
    return out


def _e_pos(ph) -> np.ndarray:
    """e(ph) = exp(2 pi i ph) for phases 0 <= ph <= 1 of any shape: the
    package's one e(x), `_e_neg` on the flattened phases, conjugated."""
    flat = np.reshape(ph, -1)
    out = _e_neg(flat, np.empty(flat.size, dtype=complex), _e_work(flat.size))
    return np.conjugate(out, out=out).reshape(np.shape(ph))


def _esum(phase_chunks) -> complex:
    """sum e(-ph) over every phase of every chunk."""
    total = 0.0 + 0.0j
    buf = np.empty(_PHASE_CHUNK, dtype=complex)
    work = _e_work(_PHASE_CHUNK)
    for ph in phase_chunks:
        total += complex(_e_neg(ph, buf[:len(ph)], work).sum())
    return total


def weyl_sum(P: IntPoly, t: int, alpha) -> complex:
    """(1/t) sum_{n=1}^t e(-alpha P(n)) for an int, float or Fraction alpha."""
    t = check_count(t, "t")
    return _esum(_phase_chunks(P.coeffs, t, *alpha.as_integer_ratio())) / t


def weyl_sum_prefixes(P: IntPoly, t_max: int, k, D) -> Iterator[np.ndarray]:
    """K_hat_t for t = 1..t_max (column t-1) at every alpha = k/D, in blocks.

    k and D are as `arith.arc_labels` takes them, or D is a list of one
    denominator per k.  Returns an iterator of (rows, t_max) complex arrays
    whose rows follow k.  A block holds at most _CACHE_CHUNK terms, or one
    row when t_max is larger, and each chunk of it takes one residue pass
    per residue path among its D.  The iterator keeps no block it handed
    out, so a caller that reduces each block holds one at a time.  More
    than PHASE_TERM_BUDGET terms in all, len(k) * t_max, are refused
    before the first block.
    """
    t_max = check_count(t_max, "t_max")
    k = k if isinstance(k, np.ndarray) else np.array(k, dtype=object)
    D = np.array(D, dtype=object)  # Python ints, exact at any size
    if D.shape not in ((), k.shape) or np.any(D < 1):
        raise ParameterError("need D >= 1, one for all k or one per k")
    check_budget(PHASE_TERM_BUDGET, len(k) * t_max,
                 f"a prefix call of {len(k)} alphas to t_max={t_max}",
                 "t_max or the alpha count")
    per_block = max(1, _CACHE_CHUNK // t_max)
    width = min(t_max, _CACHE_CHUNK)
    work = _e_work(per_block * width)
    phases = np.empty(per_block * width)
    # numpy divides a complex by a real as a product with its reciprocal
    inv = 1.0 / np.arange(1, t_max + 1)

    def block(first: int) -> np.ndarray:
        rows = k[first:first + per_block]
        # (row indices, numerators, denominators) of each residue path
        paths = [(slice(None), rows, D)]
        if D.ndim:
            dens, by_path = D[first:first + per_block], {}
            for i, den in enumerate(dens):
                by_path.setdefault(_residue_dtype(den), []).append(i)
            paths = [(idx, rows[idx], dens[idx]) for idx in by_path.values()]
        sums = np.empty((len(rows), t_max), dtype=complex)
        for start in range(0, t_max, width):
            stop = min(start + width, t_max)
            ph = phases[:len(rows) * (stop - start)].reshape(len(rows), -1)
            for idx, ks, ds in paths:
                ph[idx] = _phase_rows(P.coeffs, ks, ds, start + 1, stop + 1)
            # a full-width block, or a slice of its one row: contiguous
            _e_neg(ph.reshape(-1), sums[:, start:stop].reshape(-1), work)
        np.cumsum(sums, axis=1, out=sums)
        sums.real *= inv
        sums.imag *= inv
        return sums

    return map(block, range(0, len(k), per_block))


def gauss_weight(P: IntPoly, frac: ReducedFraction, i: int) -> complex:
    """Complete normalized sum S_P^i(a/q) over residues mod q_i.

    For monic quadratic P this reduces to (1/q) sum_r e(-a r^2 / q).  A
    q_i above PHASE_TERM_BUDGET is refused before any work.
    """
    cd = congruence_data(P, frac, i)
    # q_i divides q b_d, b_d the leading coefficient
    qi = check_count(cd.q_i, "q_i", lower="q or P's leading coefficient")
    # phases are a_d r^d + ... + a_1 r, no constant term
    coeffs = (0,) + cd.numerators[::-1]
    return _esum(_phase_chunks(coeffs, qi, 1, qi)) / qi
