"""A fixed reference kernel that measures how fast the machine runs right now.

It mixes the kinds of work webtorsion does: a pure-Python loop, small numpy
array passes, small HiGHS linear programs, and one qhull triangulation plus
one sparse LU factorization of a few thousand unknowns. It calls nothing in
webtorsion, so a change to the program never changes its time.
"""
import math
import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay

# fixes the unit of rescaled times: close to the kernel's time on the loaded
# 2-vCPU machine the benchmark was written on (about 0.04 s when it was quiet)
REFERENCE_S = 0.06

_N = 70
_LINE = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_LAPLACIAN = (sp.kron(sp.identity(_N), _LINE) + sp.kron(_LINE, sp.identity(_N))).tocsc()
_POINTS = np.random.default_rng(0).random((3000, 2))
_ANGLES = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
_LP_ROWS = np.column_stack((-np.cos(_ANGLES), -np.sin(_ANGLES), np.ones(16)))


def _kernel() -> None:
    s = 0.0
    for i in range(40_000):
        s += math.hypot(i * 1e-3, 1.0) - (i % 7) * 0.5
    a = np.arange(20_000.0)
    for _ in range(60):
        a = a + np.sort(np.sin(a) * a)[::-1] * 1e-9
    for _ in range(4):
        linprog(c=[0.0, 0.0, -1.0], A_ub=_LP_ROWS, b_ub=np.ones(16),
                bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    Delaunay(_POINTS)
    splu(_LAPLACIAN)


def sample() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
