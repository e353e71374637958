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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, ResourceError

# rows of the DP per block: each block is copied once, transposed, so every
# DP step runs over contiguous rows of 4096 slot values
DP_BLOCK_ROWS = 4096
# most DP cells rows * S(S-1)/2 one call may visit: above the 2^18 x 12
# (17.3 M cells) and 2^20 x 6 (15.7 M) arrays of the experiments, below the
# 8.2e9 cells of `average --modulus 1024 --scales 1,2,...,4000`
DP_CELL_BUDGET = 1 << 28


@dataclass(frozen=True)
class IndexedSeq:
    """Complex values attached to strictly increasing positive indices."""

    indices: tuple
    values: tuple

    def __init__(self, indices: Sequence[int], values: Sequence[complex]):
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
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values: Sequence[complex]) -> "IndexedSeq":
        return cls(range(1, len(tuple(values)) + 1), values)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class VariationResult:
    value: float
    optimal_subsequence: tuple
    r: float
    block_subsequences: Optional[tuple] = None

    def __float__(self) -> float:
        return self.value


def _check_r(r: float) -> float:
    r = float(r)
    if r < 1:
        raise ParameterError("variation exponent r must be >= 1")
    return r


def check_dp_cells(rows: int, S: int) -> None:
    """Refuse a DP over `rows` families of length S above DP_CELL_BUDGET.

    The DP visits S(S-1)/2 pairs per family; callers that know the shape
    before they build the values check here first.
    """
    cells = rows * (S * (S - 1) // 2)
    if cells > DP_CELL_BUDGET:
        raise ResourceError(
            f"variation over {rows} families of length {S} needs {cells} DP "
            f"cells, over the budget {DP_CELL_BUDGET}; lower the number of "
            f"points or of scales")


def _best_power_sums(values: np.ndarray, r: float) -> np.ndarray:
    """best[..., j]: the largest sum of |f_b - f_a|^r over chains ending at j.

    A singleton chain has power sum 0.  Overflow to inf is a valid answer,
    so it is not reported.  The families are flattened to (rows, S), and
    each block of DP_BLOCK_ROWS rows is copied into a C-ordered (S, block)
    array, so every step of the DP works on contiguous rows.
    """
    *lead, S = values.shape
    rows = math.prod(lead)
    check_dp_cells(rows, S)
    flat = values.reshape(rows, S)
    best = np.empty((rows, S))
    with np.errstate(over="ignore"):
        for lo in range(0, rows, DP_BLOCK_ROWS):
            v = np.array(flat[lo:lo + DP_BLOCK_ROWS].T, dtype=complex,
                         order="C")
            b = np.zeros(v.shape)
            for j in range(1, S):
                cand = np.abs(v[:j] - v[j])
                cand **= r
                cand += b[:j]
                np.maximum(cand.max(axis=0), 0.0, out=b[j])
            best[lo:lo + DP_BLOCK_ROWS] = b.T
    return best.reshape(values.shape)


def _optimal_chain(values: Sequence[complex], r: float):
    """Max over increasing chains of sum |f_j - f_i|^r, and one such chain.

    The chain is read back from `best`: the predecessor of j is the first
    i whose candidate, recomputed with the DP's own expression, is largest.
    """
    v = np.asarray(values, dtype=complex)
    best = _best_power_sums(v, r)
    end = j = int(np.argmax(best))
    chain = [end]
    with np.errstate(over="ignore"):
        while best[j] > 0:
            j = int(np.argmax(best[:j] + np.abs(v[j:j + 1] - v[:j]) ** r))
            chain.append(j)
    return float(best[end]), chain[::-1]


def variation(seq: IndexedSeq, r: float) -> VariationResult:
    """The r-variation of the family, with an optimizing subsequence."""
    r = _check_r(r)
    if len(seq) == 0:
        raise ParameterError("sequence must be non-empty")
    power, chain = _optimal_chain(seq.values, r)
    value = power ** (1.0 / r)
    return VariationResult(value, tuple(seq.indices[j] for j in chain), r)


def long_variation(seq: IndexedSeq, r: float) -> VariationResult:
    """Variation restricted to indices that are exact powers of two."""
    r = _check_r(r)
    keep = [j for j, i in enumerate(seq.indices) if i & (i - 1) == 0]
    if not keep:
        return VariationResult(0.0, (), r)
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
    r = _check_r(r)
    if len(seq) == 0:
        raise ParameterError("sequence must be non-empty")
    total = 0.0
    blocks = []
    flat = []
    for _, members in _dyadic_blocks(seq.indices):
        if len(members) < 2:
            continue
        power, chain = _optimal_chain([seq.values[j] for j in members], r)
        if power > 0:
            total += power
            picked = tuple(seq.indices[members[j]] for j in chain)
            blocks.append(picked)
            flat.extend(picked)
    return VariationResult(total ** (1.0 / r), tuple(flat), r,
                           block_subsequences=tuple(blocks))


def variation_values(values: np.ndarray, r: float) -> np.ndarray:
    """Vectorized r-variation along the last axis (values only, no optimizer).

    `values` has shape (..., S); the leading axes are flattened into rows
    and the DP runs on transposed blocks of DP_BLOCK_ROWS rows.  A call
    over DP_CELL_BUDGET cells rows * S(S-1)/2 is refused before any work.
    """
    r = _check_r(r)
    return _best_power_sums(np.asarray(values), r).max(axis=-1) ** (1.0 / r)
