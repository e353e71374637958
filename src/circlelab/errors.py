"""Exception hierarchy shared by all modules, and the package's size budgets.

The CLI maps these onto process exit codes, so new error kinds should
subclass one of the two below rather than raising bare exceptions.
"""

from typing import NamedTuple


class CircleLabError(Exception):
    """Base class for all library errors."""


class ParameterError(CircleLabError, ValueError):
    """Invalid argument or precondition violation (CLI exit code 2)."""


class ResourceError(CircleLabError, RuntimeError):
    """A computation would exceed its configured budget (CLI exit code 3).

    The message should tell the caller which parameter to lower.
    """


class Budget(NamedTuple):
    """A size limit: its name in refusals, the most it admits, its unit."""
    name: str
    limit: int
    unit: str


# the size limits, each checked by `check_budget` before the work it bounds
# arrays and averages: the modulus M of Z/M, each average's length N (and
# main-decomp's longest, 2^(n_max+1)), and a ladder's sample points
LENGTH_BUDGET = Budget("length", 1 << 22, "points")
# one weyl_sum or weyl_sum_prefixes call, all its alphas together (a
# 2^28-term prefix is a 4 GB array), and residue_counts' t and q; it keeps
# n < 2^31, as the int64 and two-limb residue paths need
PHASE_TERM_BUDGET = Budget("phase-term", 1 << 28, "terms")
# the alphas of one verify_est scale, 8 bytes (an int64 numerator) each
ALPHA_BYTE_BUDGET = Budget("alpha-byte", 1 << 28, "bytes")
# one variation DP, rows * S(S-1)/2 cells: above the 2^18 x 12 (17.3 M
# cells) and 2^20 x 6 (15.7 M) arrays of the experiments, below the 8.2e9
# cells of `average --modulus 1024 --scales 1,2,...,4000`
DP_CELL_BUDGET = Budget("DP-cell", 1 << 28, "DP cells")
# all the variation calls of one run, checked before its first draw:
# smooth's trials, or the coefficient search's starts times its
# evaluations per start; some 5-15 s at 5-13 ns a cell
RUN_DP_CELL_BUDGET = Budget("run", 1 << 30, "DP cells")
# a ladder's sample points of R + 64 bits, 128 MB of draws: 2^22 samples
# run up to R = 192, the default 4096 up to R = 262080
SAMPLE_BIT_BUDGET = Budget("sample-bit", 1 << 30, "random bits")


def check_budget(budget: Budget, used: int, what: str, lower: str) -> None:
    """Refuse (ResourceError) `what`, which needs `used` units of `budget`,
    if that is over its limit; `lower` names what the caller can lower.

    A count from 2^64 on is printed as a power of two: a product of
    command-line counts can have more digits than str() prints.
    """
    if used > budget.limit:
        shown = used if used < 1 << 64 else f">= 2^{used.bit_length() - 1}"
        raise ResourceError(
            f"{what} needs {shown} {budget.unit}, over the {budget.name} "
            f"budget of {budget.limit}; lower {lower}")
