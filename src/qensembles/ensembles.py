"""Discrete ensembles of quantum states, their q-c embedding, and steering.

An ensemble is an ordered finite list of (weight, state) pairs sharing one
dimension; weights sum to 1 and zero-weight members are permitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from . import linalg
from .linalg import check_density, outer, von_neumann_entropy

WEIGHT_TOL = 1e-10
SUPPORT_CUT = 1e-12
COND_LIMIT = 1e12


@dataclass(frozen=True)
class Ensemble:
    """Ordered ensemble: weights and states of a common dimension."""

    dim: int
    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("ensemble needs at least one member")
        if np.any(w < -WEIGHT_TOL):
            raise ValidationError("ensemble weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"ensemble weights sum to {np.sum(w)}, expected 1")
        if len(self.states) != w.size:
            raise ValidationError("weights and states have different lengths")
        states = tuple(check_density(s, dim=self.dim) for s in self.states)
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))
        object.__setattr__(self, "states", states)

    @classmethod
    def from_members(cls, members):
        members = list(members)
        if not members:
            raise ValidationError("ensemble needs at least one member")
        dim = np.asarray(members[0][1]).shape[0]
        return cls(
            dim=dim,
            weights=np.array([w for w, _ in members], dtype=float),
            states=tuple(s for _, s in members),
        )

    @property
    def members(self):
        return list(zip(self.weights.tolist(), self.states))

    def __len__(self):
        return self.weights.size

    def map_states(self, fn, dim_out=None):
        """New ensemble with fn applied to every member state."""
        return Ensemble(
            dim=dim_out if dim_out is not None else self.dim,
            weights=self.weights.copy(),
            states=tuple(fn(s) for s in self.states),
        )


def singleton(rho):
    """Ensemble with a single unit-weight member."""
    return Ensemble.from_members([(1.0, rho)])


def average_state(mu):
    """Barycenter sum_i p_i rho_i."""
    acc = np.zeros((mu.dim, mu.dim), dtype=complex)
    for w, rho in mu.members:
        acc += w * rho
    return linalg.hermitian_part(acc)


def average_entropy(mu):
    """Sum_i p_i S(rho_i)."""
    return float(sum(w * von_neumann_entropy(rho) for w, rho in mu.members if w > 0.0))


def qc_state(mu):
    """Block-diagonal q-c embedding sum_k p_k rho_k (x) |k><k| on dim*n space."""
    n = len(mu)
    d = mu.dim
    out = np.zeros((d * n, d * n), dtype=complex)
    for k, (w, rho) in enumerate(mu.members):
        ek = np.zeros((n, n))
        ek[k, k] = 1.0
        out += w * np.kron(rho, ek)
    return out


def _support_inv_sqrt(rho):
    # pseudo-inverse square root on the support, with a conditioning guard
    w, v = np.linalg.eigh(rho)
    keep = w > SUPPORT_CUT
    if not keep.any():
        raise ValidationError("state has numerically empty support")
    kept = w[keep]
    if float(kept.max() / kept.min()) > COND_LIMIT:
        raise ValidationError("support inversion ill-conditioned (cond > 1e12)")
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    proj = np.zeros_like(w)
    proj[keep] = 1.0
    return (v * inv) @ v.conj().T, (v * proj) @ v.conj().T


def steer_to_average(mu, sigma):
    """Steer mu to an ensemble with average state sigma.

    Purify the average state of mu, read off the steering POVM that recovers
    mu's members, and measure the fidelity-optimal purification of sigma with
    the same POVM. Returns (nu, mu_ordered): nu has average sigma, and the
    ordered representative mu_ordered (mu, possibly padded with one zero-weight
    member matching nu's off-support remainder) satisfies
    d0(mu_ordered, nu) <= sqrt(1 - F(avg(mu), sigma)) up to numerics.
    Pure-state ensembles steer to pure-state ensembles.
    """
    sigma = check_density(sigma, dim=mu.dim)
    rho_bar = check_density(average_state(mu), dim=mu.dim)
    inv_sqrt, support = _support_inv_sqrt(rho_bar)
    sqrt_rho = linalg.matrix_sqrt_psd(rho_bar)
    sqrt_sigma = linalg.matrix_sqrt_psd(sigma)

    # Uhlmann-optimal purification of sigma against vec(sqrt_rho): the polar
    # unitary of sqrt_rho @ sqrt_sigma aligns the two purifications.
    w_svd, _, vh = np.linalg.svd(sqrt_rho @ sqrt_sigma)
    u_opt = vh.conj().T @ w_svd.conj().T
    a_mat = sqrt_sigma @ u_opt  # |psi> = vec(a_mat) purifies sigma

    members = []
    for w, rho in mu.members:
        x_i = inv_sqrt @ (w * rho) @ inv_sqrt
        tau = a_mat @ x_i @ a_mat.conj().T
        q = float(np.trace(tau).real)
        if q > 1e-15:
            members.append((q, linalg.hermitian_part(tau / q)))
        else:
            members.append((0.0, rho))

    mu_members = list(mu.members)
    remainder = a_mat @ (np.eye(mu.dim) - support) @ a_mat.conj().T
    q_rest = float(np.trace(remainder).real)
    if q_rest > 1e-14:
        members.append((q_rest, linalg.hermitian_part(remainder / q_rest)))
        mu_members.append((0.0, members[-1][1]))

    total = sum(q for q, _ in members)
    members = [(q / total, s) for q, s in members]
    return Ensemble.from_members(members), Ensemble.from_members(mu_members)


def mix_members_toward(mu, targets, t):
    """Perturb every member toward a target state: rho -> (1-t) rho + t target."""
    if len(targets) != len(mu):
        raise DimensionMismatch("need one target per member")
    states = tuple(
        linalg.hermitian_part((1.0 - t) * rho + t * tgt)
        for (_, rho), tgt in zip(mu.members, targets)
    )
    return Ensemble(dim=mu.dim, weights=mu.weights.copy(), states=states)


def perturb_weights(mu, direction, t):
    """Shift weights along a zero-sum direction, clipped to stay a distribution."""
    d = np.asarray(direction, dtype=float)
    d = d - np.mean(d)
    w = np.clip(mu.weights + t * d, 0.0, None)
    w = w / np.sum(w)
    return Ensemble(dim=mu.dim, weights=w, states=mu.states)


def pure_ensemble(vectors, weights=None):
    """Ensemble of rank-1 projectors from state vectors."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    n = len(vecs)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return Ensemble.from_members(
        [(float(w), outer(v / np.linalg.norm(v))) for w, v in zip(weights, vecs)]
    )
