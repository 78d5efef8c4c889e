"""A fixed calibration kernel that measures the host's current speed.

The 2-vCPU machine the benchmark was written on is a share of a host whose
speed drifted by up to 1.6x for stretches longer than a whole run, with no
steal time to show for it (README.md, "Host-speed calibration"). The kernel below does the same kinds
of work as the package, with fixed inputs and none of the package's code:
small numpy/scipy.special calls from a Python loop, small HiGHS LPs through
``scipy.optimize.linprog``, and small dense eigendecompositions and matrix
products. ``run.py`` times it between passes and scales each pass by it, so
a slow stretch of the host slows the kernel and the pass alike and cancels.
A change to ``src/`` cannot change the kernel's time.
"""

import math
import time

import numpy as np
from scipy.optimize import linprog
from scipy.special import gammaln

# Kernel seconds that define the reference host speed: a round figure near
# the median kernel time on the machine the baseline was taken on, where it
# ranged from 0.16 s to 0.25 s between runs (BASELINE.json).
REFERENCE_S = 0.2

SERIES_TERMS = 9000
LP_COUNT = 36
MATRIX_REPS = 16


def _inputs():
    rng = np.random.default_rng(20240411)
    lps = []
    for _ in range(LP_COUNT):
        a = rng.uniform(0.0, 1.0, size=(12, 20))
        lps.append((rng.uniform(-1.0, 1.0, size=20), a, a @ rng.uniform(0.1, 1.0, size=20)))
    mats = []
    for d in (4, 6, 49, 49):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(m + m.conj().T)
    return lps, mats


LPS, MATRICES = _inputs()


def kernel():
    """Run the fixed work once; return a checksum that depends on all of it."""
    acc = 0.0
    for i in range(SERIES_TERMS):
        lam = 0.01 + 0.005 * i
        n = np.arange(int(lam + 12.0 * math.sqrt(lam) + 40.0) + 1)
        lg = gammaln(n + 1.0)
        acc += float(np.sum(np.exp(-lam + n * math.log(lam) - lg) * lg))
    for c, a, b in LPS:
        acc += linprog(c, A_ub=a, b_ub=b, bounds=(0.0, 1.0), method="highs").fun
    for _ in range(MATRIX_REPS):
        for m in MATRICES:
            acc += float(np.linalg.eigvalsh(m)[0]) + float(np.trace(m @ m).real)
    return acc


def kernel_seconds():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(pass_seconds, kernel_times):
    """Each pass's seconds at the reference speed.

    kernel_times[i] and kernel_times[i + 1] are the kernel's seconds just
    before and just after pass i; their mean is the host's speed during it.
    """
    assert len(kernel_times) == len(pass_seconds) + 1
    return [REFERENCE_S * secs / (0.5 * (before + after))
            for secs, before, after in zip(pass_seconds, kernel_times, kernel_times[1:])]
