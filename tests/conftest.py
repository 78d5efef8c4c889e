import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# on a small host the default pools spend longer scheduling threads than
# working on the package's matrices (at most 49 x 49): on a 2-vCPU Xeon one
# scipy.linalg.expm of a 49 x 49 displacement generator took 14 ms, not 0.7 ms.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def basis_ket(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def ketbra(v):
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def fresh_python(code):
    """Run code in a new interpreter that imports this checkout's package."""
    import qensembles

    src = str(Path(qensembles.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
