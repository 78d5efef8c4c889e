"""Hermitian linear algebra and the entropic/distance functionals on density matrices.

States are plain complex ndarrays; the validators below enforce the structural
invariants (hermiticity within 1e-10, eigenvalues >= -1e-10, unit trace within
1e-10) at API boundaries. On the exactly Hermitian stacks the package builds
from validated inputs it calls the unchecked kernels (_trace_norm,
_positive_part) directly: hermitian_part leaves such a stack unchanged, so
skipping the check moves no bit. All entropies are in nats.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ValidationError

HERM_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
LOG_CLAMP = 1e-14
# eigenvalues within this of zero get sign 0 in the d_ehs tangents
SIGN_TOL = 1e-12
# matrix_sqrt_psd zeroes eigenvalues below this times the largest
SQRT_REL_CUT = 1e-14


def hermitian_part(a):
    """Return (A + A^dagger)/2, absorbing round-off; A may be a (..., d, d) stack."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def check_hermitian(a, name="operator"):
    """Validate hermiticity of a matrix or (..., d, d) stack and return it symmetrized."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    # inf entries leave a NaN deviation, and entries near the float range
    # overflow once symmetrized; both are rejected, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2))) if a.size else 0.0
        h = hermitian_part(a)
    if not dev <= HERM_TOL:  # also rejects NaN and inf entries
        raise ValidationError(f"{name} is not Hermitian (deviation {dev:.3e} > {HERM_TOL})")
    if not np.isfinite(h).all():
        raise ValidationError(f"{name} entries overflow once symmetrized")
    return h


def check_density(rho, dim=None):
    """Validate a density matrix or (..., d, d) stack of them (Hermitian, PSD,
    unit trace) and return it symmetrized."""
    return _density_spectrum(rho, dim)[0]


def _density_spectrum(rho, dim=None):
    """check_density that also returns the ascending spectra it decomposed; a
    stack's error names the first matrix that fails."""
    rho = check_hermitian(rho, name="state")
    if dim is not None and rho.shape[-1] != dim:
        raise DimensionMismatch(f"state has dim {rho.shape[-1]}, expected {dim}")
    # a trace past the float range adds up to inf or NaN, which the check
    # rejects; numpy would print a warning first
    with np.errstate(over="ignore", invalid="ignore"):
        _check_traces(rho)
    w = np.linalg.eigvalsh(rho)
    low = w[..., 0].reshape(-1)
    bad = ~(low >= -PSD_TOL)  # also rejects NaN
    if bad.any():
        raise ValidationError(f"state has negative eigenvalue {float(low[bad][0])}")
    return rho, w


def _check_traces(rho):
    """rho, if it, or every matrix of a stack, has trace within TRACE_TOL of
    1; else ValidationError naming the first matrix that does not."""
    # in Python: channel outputs are a few small matrices, where each numpy
    # call on the traces costs more than the loop; `not <=` also rejects NaN
    off = [t for t in rho.trace(0, -2, -1).real.ravel().tolist()
           if not abs(t - 1.0) <= TRACE_TOL]
    if off:
        raise ValidationError(
            f"state trace {off[0]} deviates from 1 by {abs(off[0] - 1.0):.3e}, beyond {TRACE_TOL}"
        )
    return rho


def outer(psi):
    """Rank-1 projector |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def _value(x):
    # one matrix's value as a Python float, a stack's as an array
    return float(x) if np.ndim(x) == 0 else x


def eigvals_desc(a):
    """Full real spectrum of a Hermitian matrix, non-increasing, multiplicities
    kept; a (..., d, d) stack gives one spectrum per matrix."""
    a = check_hermitian(a)
    return np.linalg.eigvalsh(a)[..., ::-1].copy()


def trace_norm(a):
    """Trace norm of a Hermitian matrix (sum of absolute eigenvalues), or of
    each matrix of a (..., d, d) stack."""
    return _trace_norm(check_hermitian(a))


def _trace_norm(a):
    # trace_norm of an exactly Hermitian matrix or stack, not checked again
    return _value(np.sum(np.abs(np.linalg.eigvalsh(a)), axis=-1))


def _per_shape(kernel, stacks):
    """[kernel(*a) for a in stacks], one kernel call per shape: an item, a
    C-ordered stack or a tuple of stacks of k rows, is concatenated in order
    with those of its row shapes (passed as it is when alone) and split back.
    Each kernel acts on every row alone, so a slice is its item's own call."""
    groups = {}
    for j, a in enumerate(stacks):
        key = tuple([b.shape[1:] for b in a]) if isinstance(a, tuple) else a.shape[1:]
        groups.setdefault(key, []).append(j)
    out = [None] * len(stacks)
    for members in groups.values():
        parts = [stacks[j] if isinstance(stacks[j], tuple) else (stacks[j],) for j in members]
        values = kernel(*(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))))
        stop = 0
        for j, part in zip(members, parts):
            start, stop = stop, stop + len(part[0])
            out[j] = values[start:stop]
    return out


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
    """g(x) = (x+1) ln(x+1) - x ln x for x > 0, g(0) = 0, without cancellation:
    ln(1+x) + x (ln(1+x) - ln x) up to x = 1, where 1/x may overflow, and
    ln(1+x) + x ln(1 + 1/x) above."""
    x = float(x)
    if x < 0.0:
        raise ValidationError(f"g argument {x} must be nonnegative")
    if x == 0.0:
        return 0.0
    if x <= 1.0:
        return math.log1p(x) + x * (math.log1p(x) - math.log(x))
    return math.log1p(x) + x * math.log1p(1.0 / x)


def matrix_sqrt_psd(a):
    """PSD square root via eigendecomposition.

    Eigenvalues below SQRT_REL_CUT * max are zeroed outright, not clipped:
    machine noise at +1e-17 would otherwise inject 1e-8-scale spurious columns.
    """
    a = check_hermitian(a)
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w < SQRT_REL_CUT * float(w[-1])] = 0.0
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


def _positive_part(a):
    """[A]_+ = sum of positive-eigenvalue spectral components of an exactly
    Hermitian A, or of each matrix of a (..., d, d) stack; not checked, since
    its one caller, energy.truncated_passive_energies, gets A built from a
    validated ensemble."""
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
