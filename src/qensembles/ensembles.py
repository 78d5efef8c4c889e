"""Discrete ensembles of quantum states, their q-c embedding, and steering.

An ensemble is a weight vector of length n and a read-only (n, d, d) stack of
states, validated once as a whole; member i is (weights[i], states[i]). Weights
sum to 1 and zero-weight members are permitted. Functions of an ensemble act on
the whole stack at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from . import linalg
from .linalg import _running_sum, check_density, outer, von_neumann_entropy

WEIGHT_TOL = 1e-10
SUPPORT_CUT = 1e-12
COND_LIMIT = 1e12


def _check_weights(weights, name):
    """Validate a probability vector (nonnegative within WEIGHT_TOL, unit sum
    within WEIGHT_TOL) and return it as floats clipped at 0."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < -WEIGHT_TOL):
        raise ValidationError(f"{name} must be nonnegative")
    if abs(float(np.sum(w)) - 1.0) > WEIGHT_TOL:
        raise ValidationError(f"{name} sum to {np.sum(w)}, expected 1")
    return np.clip(w, 0.0, None)


@dataclass(frozen=True)
class Ensemble:
    """Ordered ensemble: weights and a read-only (n, dim, dim) stack of states.

    states may be given as any sequence of matrices or as a stack; it is
    validated once and stored symmetrized.
    """

    dim: int
    weights: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("ensemble needs at least one member")
        w = _check_weights(w, "ensemble weights")
        try:
            states = np.asarray(self.states, dtype=complex)
        except ValueError as exc:  # ragged members
            raise DimensionMismatch(f"ensemble members differ in shape: {exc}") from None
        if states.shape[:1] != w.shape:
            raise ValidationError("weights and states have different lengths")
        if states.ndim != 3:
            raise ValidationError(f"state must be one matrix, got shape {states.shape[1:]}")
        states = check_density(states, dim=self.dim)
        states.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)

    @classmethod
    def from_members(cls, members):
        members = list(members)
        if not members:
            raise ValidationError("ensemble needs at least one member")
        weights, states = zip(*members)
        return cls(dim=np.shape(states[0])[0], weights=np.array(weights, dtype=float),
                   states=states)

    @property
    def members(self):
        return list(zip(self.weights.tolist(), self.states))

    def __len__(self):
        return self.weights.size


def singleton(rho):
    """Ensemble with a single unit-weight member."""
    return Ensemble.from_members([(1.0, rho)])


def _weighted(mu):
    # the stack p_i rho_i
    return mu.weights[:, None, None] * mu.states


def average_state(mu):
    """Barycenter sum_i p_i rho_i."""
    return linalg.hermitian_part(_running_sum(_weighted(mu)))


def average_entropy(mu):
    """Sum_i p_i S(rho_i)."""
    return _running_sum(mu.weights * von_neumann_entropy(mu.states))


def qc_state(mu):
    """Block-diagonal q-c embedding sum_k p_k rho_k (x) |k><k| on dim*n space."""
    n, d = len(mu), mu.dim
    out = np.zeros((d, n, d, n), dtype=complex)
    k = np.arange(n)
    out[:, k, :, k] = _weighted(mu)
    return out.reshape(d * n, d * n)


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

    # member i steers to tau_i / q_i at weight q_i = Tr tau_i; a member with
    # q_i <= 1e-15 keeps its own state at weight 0
    tau = a_mat @ (inv_sqrt @ _weighted(mu) @ inv_sqrt) @ a_mat.conj().T
    q = np.trace(tau, axis1=-2, axis2=-1).real
    live = q > 1e-15
    q = np.where(live, q, 0.0)
    states = np.where(live[:, None, None], tau / np.where(live, q, 1.0)[:, None, None],
                      mu.states)
    states = linalg.hermitian_part(states)

    mu_weights, mu_states = mu.weights, mu.states
    remainder = a_mat @ (np.eye(mu.dim) - support) @ a_mat.conj().T
    q_rest = float(np.trace(remainder).real)
    if q_rest > 1e-14:
        rest = linalg.hermitian_part(remainder / q_rest)[None]
        q, states = np.append(q, q_rest), np.concatenate([states, rest])
        mu_weights, mu_states = np.append(mu_weights, 0.0), np.concatenate([mu_states, rest])
    return (Ensemble(mu.dim, q / _running_sum(q), states),
            Ensemble(mu.dim, mu_weights, mu_states))


def mix_members_toward(mu, targets, t):
    """Perturb every member toward a target state: rho -> (1-t) rho + t target."""
    if len(targets) != len(mu):
        raise DimensionMismatch("need one target per member")
    states = linalg.hermitian_part((1.0 - t) * mu.states + t * np.asarray(targets))
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
