import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
