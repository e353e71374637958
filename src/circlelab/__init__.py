"""circlelab: exact exponential sums, variation norms, and averaging labs.

Desk-scale numerical laboratory for polynomial averaging operators:
exact Weyl/Gauss sums, major/minor arc decompositions, r-variation
functionals, cyclic-group diagonalization, and the lacunary lower-bound
construction, all cross-checked against independent oracles.
"""

import os

# no OpenBLAS worker pool unless the user asks for one: set before numpy is
# first imported, it keeps the pool from spinning in every process, and
# no result depends on the thread count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# each exported name and the submodule that defines it; a name is imported
# on first use (PEP 562), so `import circlelab` loads no submodule and no
# numpy, and each CLI subcommand loads only the modules it runs
_EXPORTS = {name: module for module, names in (
    ("arith", "ArcParams CongruenceData IntPoly ReducedFraction arc_labels "
              "congruence_data"),
    ("dyadic", "dyadic_gauss_mean fast_dyadic_quadratic_weyl"),
    ("errors", "CircleLabError ParameterError ResourceError"),
    ("expsum", "gauss_weight weyl_sum weyl_sum_prefixes"),
    ("spectral", "average_multipliers variation_experiment"),
    ("torus", "CounterexampleParams build_sequences "
              "eta_error exact_ladder_radius search_coefficients "
              "v2_partial_sums_norm"),
    ("varnorm", "IndexedSeq VariationResult long_variation short_variation "
                "variation variation_values"),
    ("verify", "BoundFitReport DecompositionReport verify_entropy verify_est "
               "verify_main_decomposition verify_smooth"),
) for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
