"""Hermitian linear algebra and the entropic/distance functionals on density matrices.

States are plain complex ndarrays; the validators below enforce the structural
invariants (hermiticity within 1e-10, eigenvalues >= -1e-10, unit trace within
1e-10) at API boundaries. All entropies are in nats.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ValidationError

HERM_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
LOG_CLAMP = 1e-14
SUPPORT_TOL = 1e-10
# eigenvalues within this of zero get sign 0 (sign_operator, the d_ehs tangents)
SIGN_TOL = 1e-12


def hermitian_part(a):
    """Return (A + A^dagger)/2, absorbing round-off; A may be a (..., d, d) stack."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def check_hermitian(a, tol=HERM_TOL, name="operator"):
    """Validate hermiticity of a matrix or (..., d, d) stack and return it symmetrized."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2))) if a.size else 0.0
    if not dev <= tol:  # also rejects NaN and inf entries
        raise ValidationError(f"{name} is not Hermitian (deviation {dev:.3e} > {tol})")
    return hermitian_part(a)


def _eigvalsh(h):
    """Ascending spectrum of a symmetrized Hermitian matrix or (..., d, d) stack;
    a matrix with every off-diagonal entry exactly zero gives its sorted diagonal,
    which is LAPACK's output bit for bit (identity reflectors, 1x1 blocks)."""
    n = h.shape[-1]
    if h.ndim == 2 and not h.reshape(-1)[:-1].reshape(n - 1, n + 1)[:, 1:].any():
        return np.sort(h.diagonal().real)
    return np.linalg.eigvalsh(h)


def check_density(rho, dim=None, name="state"):
    """Validate a density matrix or (..., d, d) stack of them (Hermitian, PSD,
    unit trace) and return it symmetrized."""
    return _density_spectrum(rho, dim, name)[0]


def _density_spectrum(rho, dim=None, name="state"):
    """check_density that also returns the ascending spectra it decomposed; a
    stack's error names the first matrix that fails."""
    rho = check_hermitian(rho, name=name)
    if dim is not None and rho.shape[-1] != dim:
        raise DimensionMismatch(f"{name} has dim {rho.shape[-1]}, expected {dim}")
    tr = np.trace(rho, axis1=-2, axis2=-1).real.reshape(-1)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise ValidationError(
            f"{name} trace {float(tr[off][0])} deviates from 1 beyond {TRACE_TOL}"
        )
    w = _eigvalsh(rho)
    low = w[..., 0].reshape(-1)
    if (low < -PSD_TOL).any():
        raise ValidationError(
            f"{name} has negative eigenvalue {float(low[low < -PSD_TOL][0])}"
        )
    return rho, w


def outer(psi):
    """Rank-1 projector |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def _value(x):
    # one matrix's value as a Python float, a stack's as an array
    return float(x) if np.ndim(x) == 0 else x


def _running_sum(x, axis=0):
    """Sum along an axis left to right, as a loop over its entries adds it.
    np.sum adds a contiguous axis pairwise once it has more than a few terms,
    which can move the last bit."""
    return _value(np.take(np.add.accumulate(x, axis=axis), -1, axis=axis))


def eigvals_desc(a):
    """Full real spectrum of a Hermitian matrix, non-increasing, multiplicities
    kept; a (..., d, d) stack gives one spectrum per matrix."""
    a = check_hermitian(a)
    return _eigvalsh(a)[..., ::-1].copy()


def trace_norm(a):
    """Trace norm of a Hermitian matrix (sum of absolute eigenvalues), or of
    each matrix of a (..., d, d) stack."""
    a = check_hermitian(a)
    return _value(np.sum(np.abs(_eigvalsh(a)), axis=-1))


def mirsky_gap(rho, sigma):
    """Sum_i |lambda_i^v(rho) - lambda_i^v(sigma)| over descending spectra."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    return float(np.sum(np.abs(eigvals_desc(rho) - eigvals_desc(sigma))))


def _eta(x):
    # -x ln x with eta(0)=0, applied to a clamped spectrum
    out = np.zeros_like(x)
    pos = x > LOG_CLAMP
    out[pos] = -x[pos] * np.log(x[pos])
    return out


def von_neumann_entropy(rho):
    """S(rho) = -Tr rho ln rho in nats, of a state or of each state of a
    (..., d, d) stack; eigenvalues below 1e-14 are clamped to 0."""
    return shannon_entropy(_density_spectrum(rho)[1])


def shannon_entropy(p):
    """Shannon entropy of a probability vector in nats (entries below 1e-14
    ignored), or of each row of a (..., n) array."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    return _value(np.sum(_eta(p), axis=-1))


def binary_entropy(p):
    """h_2(p) = -p ln p - (1-p) ln(1-p); h_2(0) = h_2(1) = 0 exactly."""
    p = float(p)
    if p < 0.0 or p > 1.0:
        raise ValidationError(f"binary entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log(1.0 - p))


def g_func(x):
    """g(x) = (x+1) ln(x+1) - x ln x for x > 0, g(0) = 0."""
    x = float(x)
    if x < 0.0:
        raise ValidationError(f"g argument {x} must be nonnegative")
    if x == 0.0:
        return 0.0
    return float((x + 1.0) * math.log(x + 1.0) - x * math.log(x))


def relative_entropy(rho, sigma):
    """D(rho||sigma) in nats; +inf when supp rho is not contained in supp sigma.

    Evaluated in rho's eigenbasis; the support test uses projector overlap at
    tolerance 1e-10. +inf is an ordinary return value, not an error.
    """
    rho = check_density(rho)
    sigma = check_density(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sigma)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    overlap = np.abs(vs.conj().T @ vr) ** 2  # overlap[k, i] = |<w_k|phi_i>|^2
    off_support = ws <= SUPPORT_TOL
    leak = float(wr @ overlap[off_support].sum(axis=0)) if off_support.any() else 0.0
    if leak > SUPPORT_TOL:
        return math.inf
    term_rho = float(np.sum(wr[wr > LOG_CLAMP] * np.log(wr[wr > LOG_CLAMP])))
    on = ~off_support
    term_sigma = float(wr @ (overlap[on].T @ np.log(ws[on])))
    return max(term_rho - term_sigma, 0.0)


def matrix_sqrt_psd(a, rel_cut=1e-14):
    """PSD square root via eigendecomposition.

    Eigenvalues below rel_cut * max are zeroed outright, not clipped: machine
    noise at +1e-17 would otherwise inject 1e-8-scale spurious columns.
    """
    a = check_hermitian(a)
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w < rel_cut * float(w[-1])] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho, sigma):
    """F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2, clamped into [0, 1]."""
    rho = check_density(rho)
    sigma = check_density(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    m = matrix_sqrt_psd(rho) @ matrix_sqrt_psd(sigma)
    f = float(np.sum(np.linalg.svd(m, compute_uv=False)) ** 2)
    return min(max(f, 0.0), 1.0)


def bures_distance(rho, sigma):
    """beta(rho, sigma) = sqrt(2 - 2 sqrt(F))."""
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(fidelity(rho, sigma)), 0.0))


def partial_trace(rho_ab, dim_a, dim_b, keep="A"):
    """Marginal of a bipartite operator; keep is "A" or "B"."""
    rho_ab = np.asarray(rho_ab, dtype=complex)
    d = dim_a * dim_b
    if rho_ab.shape != (d, d):
        raise DimensionMismatch(
            f"matrix of shape {rho_ab.shape} does not factor as {dim_a}x{dim_b}"
        )
    r = rho_ab.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ijkj->ik", r)
    if keep == "B":
        return np.einsum("ijil->jl", r)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def conditional_entropy(rho_ab, dim_a, dim_b):
    """S(A|B) = S(rho_AB) - S(rho_B); may be negative."""
    rho_ab, spectrum = _density_spectrum(rho_ab)
    rho_b = partial_trace(rho_ab, dim_a, dim_b, keep="B")
    return shannon_entropy(spectrum) - von_neumann_entropy(hermitian_part(rho_b))


def positive_part(a):
    """[A]_+ = sum of positive-eigenvalue spectral components of a Hermitian A,
    or of each matrix of a (..., d, d) stack."""
    a = check_hermitian(a)
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def sign_operator(a, tol=SIGN_TOL):
    """sign(A) = sum_i sign(lambda_i) |v_i><v_i| (zero eigenvalues map to 0)."""
    a = check_hermitian(a)
    w, v = np.linalg.eigh(a)
    s = np.where(w > tol, 1.0, np.where(w < -tol, -1.0, 0.0))
    return (v * s) @ v.conj().T
