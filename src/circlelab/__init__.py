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

from .arith import (ArcParams, CongruenceData, IntPoly, ReducedFraction,
                    arc_labels, congruence_data, eval_poly, farey_level)
from .errors import CircleLabError, ParameterError, ResourceError
from .expsum import (complete_dyadic_gauss, fast_dyadic_quadratic_weyl,
                     gauss_weight, weyl_sum, weyl_sum_prefixes)
from .spectral import CyclicSignal, average_multipliers, variation_experiment
from .torus import (CounterexampleParams, LacunaryTrigPoly, build_sequences,
                    eta_error, exact_ladder_radius, search_coefficients,
                    v2_partial_sums_norm)
from .varnorm import (IndexedSeq, VariationResult, long_variation,
                      short_variation, variation, variation_values)
from .verify import (BoundFitReport, DecompositionReport, verify_entropy,
                     verify_est, verify_main_decomposition, verify_smooth)
