"""Reference computations that only the tests need.

`polynomial_average` applies K_N on Z/M through the library's multiplier;
`polynomial_average_direct` sums the shifted signal term by term, so the
two check each other (acceptance criterion 04).
`cumsum_partial_sum_objective` is the ladder search's objective on
sample-major phases, by reversed cumulative sums.
"""

import numpy as np

from circlelab import (CyclicSignal, IntPoly, ParameterError,
                       average_multiplier, eval_poly, variation_values)


def polynomial_average(f: CyclicSignal, P: IntPoly, N: int) -> CyclicSignal:
    """K_N * f(x) = (1/N) sum_{n<=N} f(x + P(n) mod M), via diagonalization."""
    mult = average_multiplier(P, N, f.modulus)
    return CyclicSignal(f.modulus, np.fft.ifft(np.fft.fft(f.values) * mult))


def polynomial_average_direct(f: CyclicSignal, P: IntPoly, N: int) -> CyclicSignal:
    """Direct spatial-summation oracle for polynomial_average."""
    if N < 1:
        raise ParameterError("N must be >= 1")
    M = f.modulus
    out = np.zeros(M, dtype=complex)
    for n in range(1, N + 1):
        out += np.roll(f.values, -(eval_poly(P, n) % M))
    return CyclicSignal(M, out / N)


def cumsum_partial_sum_objective(coeffs: np.ndarray, z: np.ndarray) -> float:
    """||V^2(S_m f)||_2 over (samples, L) phases z, S_m f summed by cumsum."""
    partial = np.cumsum((z * coeffs[None, :])[:, ::-1], axis=1)[:, ::-1]
    v = variation_values(partial, 2.0)
    return float(np.sqrt(np.mean(v ** 2)))
