"""A fixed calibration kernel, timed between the calls of every run.

The benchmark's machine is shared, and its speed jumps by a third or more
every few seconds as other work comes and goes.  The kernel does a fixed
amount of work shaped like partstab's: a vectorised transcendental
evaluation with a Python loop over its values and scalar math calls (the
root scan), small dense SVDs (null vectors), and a sparse tridiagonal LU
factorisation with solves (the oracle's shift-invert).  run.py times it
before and after every 0.1 s of timed calls and divides those calls'
times by (kernel time / REFERENCE_S), which reports them at the reference
speed; it prints the raw figures to stderr.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# median kernel time on the reference machine (2-core Xeon, 2.1 GHz,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread)
REFERENCE_S = 2.5e-3

_X = np.linspace(0.05, 40.0, 2048)
_M = np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 0.2], [0.1, 0.4, 1.0]])
_N = 2000
_T = sp.diags([np.full(_N - 1, -1.0), np.full(_N, 2.5), np.full(_N - 1, -1.0)],
              [-1, 0, 1], format="csc")
_B = np.ones(_N)


def kernel() -> float:
    """Seconds the fixed work took."""
    t = time.perf_counter()
    v = np.cos(_X) * np.cosh(0.01 * _X) - 0.3 * _X * np.sin(_X)
    for i in range(len(v) - 1):
        lo, hi = v[i], v[i + 1]
        if lo * hi < 0.0:
            for _ in range(12):
                math.exp(-abs(lo)) * math.sin(hi)
    for _ in range(40):
        np.linalg.svd(_M)
    lu = spla.splu(_T)
    for _ in range(8):
        lu.solve(_B)
    return time.perf_counter() - t
