"""circlelab: exact exponential sums, variation norms, and averaging labs.

Desk-scale numerical laboratory for polynomial averaging operators:
exact Weyl/Gauss sums, major/minor arc decompositions, r-variation
functionals, cyclic-group diagonalization, and the lacunary lower-bound
construction, all cross-checked against independent oracles.
"""

__version__ = "0.1.0"

from .arith import (ArcKind, ArcLabel, ArcParams, CongruenceData, IntPoly,
                    ReducedFraction, classify_arc, congruence_data,
                    dirichlet_approx, eval_poly, farey_level, shell_index)
from .errors import (CircleLabError, NumericError, ParameterError,
                     ResourceError)
from .expsum import (approx_multiplier, complete_dyadic_gauss,
                     diff_multiplier, fast_dyadic_quadratic_weyl,
                     gauss_weight, quadratic_gauss_row, smooth_cutoff_eval,
                     vt, weyl_sum, weyl_sum_prefix)
from .spectral import (Annulus, CyclicSignal, FrequencyMultiplier,
                       arc_projection_multiplier, average_multiplier, dft,
                       idft, polynomial_average, polynomial_average_direct,
                       variation_experiment)
from .torus import (CounterexampleParams, LacunaryTrigPoly, average_trigpoly,
                    build_sequences, eta_error, exact_ladder_radius,
                    partial_sum, search_coefficients, v2_partial_sums_norm)
from .varnorm import (IndexedSeq, VariationResult, long_variation,
                      short_variation, variation, variation_values)
from .verify import (BoundFitReport, DecompositionReport, VerifyConfig,
                     fit_constant, fit_power_law, verify_entropy, verify_est,
                     verify_main_decomposition, verify_smooth)
