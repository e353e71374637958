"""Exact variation functionals of finite indexed families of complex values.

The r-variation is the supremum over increasing index subsequences of the
l^r norm of consecutive differences.  For a finite family the supremum is
attained, and the forward dynamic program below (best[j] = best chain
ending at j) explores every candidate, so the result is exact up to
floating-point rounding of |.|^r.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DP_CELL_BUDGET, ParameterError, check_budget

# families per DP block: the kernel runs on (S, 4096) slices whose rows are
# contiguous, so every DP step is a pass over 4096 adjacent slot values
# (`_block_columns` doubles it for the short steps of small split calls)
DP_BLOCK_ROWS = 4096
# a call of at least this many DP cells is split across the process's CPUs;
# below it a thread costs more than it saves (8192 x 8, 229K cells, broke
# even on a 2-vCPU host, and 8192 x 4 took twice as long on two threads)
PAR_MIN_CELLS = 1 << 19


class IndexedSeq(NamedTuple("IndexedSeq", [("indices", tuple),
                                             ("values", tuple)])):
    """Complex values attached to strictly increasing positive indices.

    Its length is the number of indices.
    """

    __slots__ = ()

    def __new__(cls, indices: Sequence[int], values: Sequence[complex]):
        idx = tuple(int(i) for i in indices)
        vals = tuple(complex(v) for v in values)
        if len(idx) != len(vals):
            raise ParameterError("indices and values must have equal length")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ParameterError("indices must be strictly increasing")
        if any(i <= 0 for i in idx):
            raise ParameterError("indices must be positive")
        if not all(map(cmath.isfinite, vals)):
            raise ParameterError("values must be finite")
        return super().__new__(cls, idx, vals)

    @classmethod
    def from_values(cls, values: Iterable[complex]) -> "IndexedSeq":
        vals = tuple(values)
        return cls(range(1, len(vals) + 1), vals)

    def __len__(self) -> int:
        return len(self.indices)


class VariationResult(NamedTuple):
    value: float
    optimal_subsequence: tuple
    block_subsequences: Optional[tuple] = None


def check_r(r: float) -> float:
    r = float(r)
    if not math.isfinite(r):
        raise ParameterError(f"variation exponent r must be finite, not {r}")
    if r < 1:
        raise ParameterError("variation exponent r must be >= 1")
    return r


def check_dp_cells(rows: int, S: int, lower: str = "the rows or S") -> None:
    """Refuse a DP over `rows` families of length S, S(S-1)/2 cells each,
    above DP_CELL_BUDGET, naming `lower` as what to lower; callers that
    know the shape before they build the values check here first."""
    check_budget(DP_CELL_BUDGET, rows * (S * (S - 1) // 2),
                 f"a variation over {rows} families of length {S}", lower)


def _dp_workspace(S: int, cols: int):
    """The best table and the difference and candidate buffers of DP
    blocks of at most `cols` columns.

    Flat, so that `_best_power_sums` can view C-ordered (S, c) and
    (S-1, c) arrays of any c <= cols in them, as the temporaries they
    replace were.
    """
    n = max(S - 1, 0) * cols
    return np.empty(S * cols), np.empty(n, dtype=complex), np.empty(n)


def _power(d: np.ndarray, r: float, out: Optional[np.ndarray] = None,
           sq: Optional[np.ndarray] = None):
    """out = |d|^r for complex differences d, and out: the DP's one rule
    for |f_b - f_a|^r.  d is scratch: the rule may overwrite it.

    r = 2 is re^2 + im^2 of d's float view, squared in place, with no
    modulus: 1.10 ulp at most from the exact |d|^2 over 2000 draws, where
    fl(|d|)^2 strayed 3.58; bitwise fl(|d|)^2 where d is real or
    imaginary; and inf where the rounded exact square overflows, but for
    squares within an ulp of the threshold.  r = 3 is |d| and then
    (c*c)*c through `sq`: about 7x cheaper than pow, within 1 ulp of
    |d| ** 3.0 and inf exactly where it overflows.  Every other r is |d|
    and then pow.  d's last axis is contiguous; `out` and `sq` are float
    arrays of d's shape, not the same one (each made when None).
    """
    if out is None:
        out = np.empty(d.shape)
    if r == 2.0:
        f = d.view(float)
        np.multiply(f, f, out=f)
        np.add(f[..., 0::2], f[..., 1::2], out=out)
        return out
    np.abs(d, out=out)
    if r == 3.0:
        if sq is None:
            sq = np.empty_like(out)
        np.multiply(out, out, out=sq)
        np.multiply(sq, out, out=out)
    else:
        out **= r
    return out


def _best_power_sums(v: np.ndarray, r: float, work,
                     pred: Optional[np.ndarray] = None) -> np.ndarray:
    """b[j, c]: the largest sum of |f_b - f_a|^r over chains ending at j.

    `v` is an (S, cols) complex array with contiguous rows, one family per
    column, so every step of the DP works on contiguous rows.  The table
    and every step live in `work`, a `_dp_workspace` of at least cols
    columns, so no step allocates.  A singleton chain has power sum 0.
    Overflow to inf is wrong (V^r stays finite as r grows); it waits for
    ROADMAP item 2's scale-safe DP.

    Chain mode: given an (S, cols) intp table `pred`, the kernel also
    writes pred[j, c], the first i < j whose candidate b[i, c] +
    |f_j - f_i|^r is b[j, c] (row 0, which has no predecessor, gets 0).
    The power sums are the default mode's bits.
    """
    S, cols = v.shape
    n = max(S - 1, 0)
    b, diff, cand = (buf[:rows * cols].reshape(rows, cols)
                     for buf, rows in zip(work, (S, n, n)))
    # r = 3's squares go to diff's memory, which a step no longer reads
    # once its |.| is taken (a fourth buffer re-faulted in small calls)
    sq = work[1].view(float)[:n * cols].reshape(n, cols)
    b[0] = 0.0
    if pred is not None:
        pred[0] = 0
    with np.errstate(over="ignore"):
        for j in range(1, S):
            c = cand[:j]
            np.subtract(v[:j], v[j], out=diff[:j])
            _power(diff[:j], r, c, sq[:j])
            c += b[:j]
            c.max(axis=0, out=b[j])
            if pred is not None:
                # the least i at the max: a scan down from j - 1 moving to
                # each i at it, selecting by arithmetic (a masked copy of
                # random masks costs about 3 ns an element)
                pred[j] = j - 1
                for i in range(j - 2, -1, -1):
                    pred[j] += (c[i] == b[j]) * (i - pred[j])
    return b


def _optimal_chain(values: Sequence[complex], r: float):
    """Max over increasing chains of sum |f_j - f_i|^r, and one such chain.

    The chain ends at the first maximal slot and is read back from the
    kernel's chain mode: each slot's first maximal predecessor, until a
    slot whose best power sum is 0.
    """
    v = np.asarray(values, dtype=complex)
    check_dp_cells(1, len(v), "the number of values")
    pred = np.empty((len(v), 1), dtype=np.intp)
    best = _best_power_sums(v[:, None], r, _dp_workspace(len(v), 1),
                            pred)[:, 0]
    end = j = int(np.argmax(best))
    chain = [end]
    while best[j] > 0:
        j = int(pred[j, 0])
        chain.append(j)
    return float(best[end]), chain[::-1]


def variation(seq: IndexedSeq, r: float) -> VariationResult:
    """The r-variation of the family, with an optimizing subsequence."""
    r = check_r(r)
    if len(seq) == 0:
        raise ParameterError("sequence must be non-empty")
    power, chain = _optimal_chain(seq.values, r)
    value = power ** (1.0 / r)
    return VariationResult(value, tuple(seq.indices[j] for j in chain))


def long_variation(seq: IndexedSeq, r: float) -> VariationResult:
    """Variation restricted to indices that are exact powers of two."""
    r = check_r(r)
    keep = [j for j, i in enumerate(seq.indices) if i & (i - 1) == 0]
    if not keep:
        return VariationResult(0.0, ())
    sub = IndexedSeq([seq.indices[j] for j in keep],
                     [seq.values[j] for j in keep])
    return variation(sub, r)


def _dyadic_blocks(indices):
    """Closed dyadic blocks [2^n, 2^(n+1)] meeting the index set.

    Endpoint indices belong to two blocks, matching the defining display
    2^n <= i_k <= 2^(n+1).
    """
    lo = indices[0].bit_length() - 1
    hi = indices[-1].bit_length() - 1
    for n in range(max(lo - 1, 0), hi + 1):
        members = [j for j, i in enumerate(indices)
                   if (1 << n) <= i <= (1 << (n + 1))]
        if members:
            yield n, members


def short_variation(seq: IndexedSeq, r: float) -> VariationResult:
    """Blockwise short variation: per-block max power sums, then the 1/r root."""
    r = check_r(r)
    if len(seq) == 0:
        raise ParameterError("sequence must be non-empty")
    total = 0.0
    blocks = []
    flat = []
    for _, members in _dyadic_blocks(seq.indices):
        power, chain = _optimal_chain([seq.values[j] for j in members], r)
        if power > 0:
            total += power
            picked = tuple(seq.indices[members[j]] for j in chain)
            blocks.append(picked)
            flat.extend(picked)
    return VariationResult(total ** (1.0 / r), tuple(flat),
                           block_subsequences=tuple(blocks))


def _cpus() -> int:
    """The CPUs this process may run on (`taskset -c 0` makes it one);
    os.cpu_count() where the OS has no affinity call (macOS, Windows)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return os.cpu_count() or 1
    return len(affinity(0))


def _block_columns(S: int, split: bool) -> int:
    """The widest DP block of a call over families of length S.

    A call split across workers with S <= 10 takes 2 * DP_BLOCK_ROWS
    columns: its steps are short, so halving their number saves more call
    overhead than the wider workspace costs in cache (2^18 x 6 at r = 3:
    2.77 -> 2.21 ns a cell; no gain from S = 12 on).  A serial 8192 x 4
    call took 2.2x as long in one such block as in two of DP_BLOCK_ROWS.
    """
    return 2 * DP_BLOCK_ROWS if split and S <= 10 else DP_BLOCK_ROWS


def variation_values(values: np.ndarray, r: float) -> np.ndarray:
    """Vectorized r-variation along the last axis (values only, no optimizer).

    `values` has shape (..., S); the leading axes are flattened into rows,
    one family per column of an (S, rows) array.  A call of PAR_MIN_CELLS
    cells or more runs on W = min(CPUs, max(blocks, 2), rows) workers, the
    caller and W - 1 threads, where blocks is rows over `_block_columns`
    rounded up; a smaller call runs on the caller alone.  Worker w takes
    the adjacent columns rows*w//W .. rows*(w+1)//W, in blocks of at most
    `_block_columns` columns, in a workspace of its own, and keeps only
    each block's column max.  Every column's DP is the same in any block
    on any worker, so the result is bitwise the same.  An empty last axis
    (S = 0), and a call over DP_CELL_BUDGET cells rows * S(S-1)/2, are
    refused before any work.
    """
    r = check_r(r)
    values = np.asarray(values)
    *lead, S = values.shape
    if S == 0:
        raise ParameterError("each family must be non-empty (last axis 0)")
    rows = math.prod(lead)
    check_dp_cells(rows, S)
    # one (S, rows) copy, none when the caller passes the .T of (S, rows)
    v = np.asarray(values.reshape(rows, S).T, dtype=complex, order="C")
    top = np.empty(rows)
    split = rows * (S * (S - 1) // 2) >= PAR_MIN_CELLS
    cols = _block_columns(S, split)
    workers = min(_cpus(), max(-(-rows // cols), 2), rows) if split else 1
    cuts = [rows * w // workers for w in range(workers + 1)]
    # every workspace is made here, in the calling thread, so none comes
    # from a worker thread's own malloc arena; the last run is the widest
    works = [_dp_workspace(S, min(cols, rows - cuts[-2]))
             for _ in range(workers)]
    failed = []

    def worker(w):
        # a column's max is the table's last row: b[j] >= b[j-1] +
        # |f_j - f_(j-1)|^r >= b[j-1], as no power is negative
        try:
            for a in range(cuts[w], cuts[w + 1], cols):
                block = slice(a, min(a + cols, cuts[w + 1]))
                top[block] = _best_power_sums(v[:, block], r, works[w])[-1]
        except BaseException as exc:  # re-raised once every thread is joined
            failed.append(exc)

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(1, workers)]
    for t in threads:
        t.start()
    worker(0)
    for t in threads:
        t.join()
    if failed:
        raise failed[0]
    # [()] makes a 1-D call's 0-d result a scalar, whose power is the
    # scalar one (numpy's array power can differ from it in the last bit)
    return top.reshape(lead)[()] ** (1.0 / r)
