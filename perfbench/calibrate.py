"""Fixed work that gauges how fast the host runs at this moment.

It does what a small circlelab op does, without circlelab: it starts an
interpreter, imports numpy and scipy.special, fills fresh arrays, runs
FFTs over them and then an interpreter-bound loop.  run.py spawns it just
before every op and divides the op's times by its time (see run.py), so
that runs on a host whose speed drifts, as a shared machine's does, read
alike.  It uses no circlelab code, so no change to the program moves it.
"""

import numpy as np
import scipy.special  # noqa: F401

rng = np.random.default_rng(0)
x = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
for _ in range(3):
    x = np.fft.ifft(np.fft.fft(x) * 0.5)
total = 0
for n in range(200_000):
    total += n * n % 7
