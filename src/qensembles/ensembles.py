"""Discrete ensembles of quantum states and steering.

An ensemble is a read-only weight vector of length n and a read-only (n, d, d)
stack of states, validated once as a whole; member i is (weights[i],
states[i]). Weights sum to 1 and zero-weight members are permitted. Functions
of an ensemble act on the whole stack at once, and the entropies and passive
energies read the spectra the ensemble keeps.

The public constructors validate. The package's own producers whose output
is valid by construction (channel outputs, random ensembles, reweightings and
mixtures of validated states) build through Ensemble._trusted instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from . import linalg
from .linalg import _density_spectrum, _per_shape, check_density, outer, shannon_entropy

WEIGHT_TOL = 1e-10
SUPPORT_CUT = 1e-12
COND_LIMIT = 1e12
# steer_to_average: a steered member of weight <= STEER_WEIGHT_CUT keeps its
# own state at weight 0; an off-support remainder of mass > STEER_REST_CUT
# becomes one more member
STEER_WEIGHT_CUT = 1e-15
STEER_REST_CUT = 1e-14


def _check_weights(weights, name):
    """Validate a probability vector (nonnegative within WEIGHT_TOL, unit sum
    within WEIGHT_TOL) and return it as floats clipped at 0."""
    w = np.asarray(weights, dtype=float)
    if not np.all(w >= -WEIGHT_TOL):  # also rejects NaN
        raise ValidationError(f"{name} must be nonnegative numbers")
    with np.errstate(over="ignore"):  # weights near the float range sum to inf
        total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValidationError(f"{name} sum to {total}, expected 1")
    return np.clip(w, 0.0, None)


@dataclass(frozen=True)
class Ensemble:
    """Ordered ensemble: read-only weights and (n, dim, dim) stack of states.

    states may be given as any sequence of matrices or as a stack; it is
    validated once and stored symmetrized. spectra holds the ascending
    eigenvalues of every state, a read-only (n, dim) array: the ones
    validation decomposed, or, for a trusted construction, computed on first
    use or by a batch form; either way np.linalg.eigvalsh(states) bit for bit.
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
        states, spectra = _density_spectrum(states, dim=self.dim)
        w.setflags(write=False)
        states.setflags(write=False)
        spectra.setflags(write=False)
        vars(self).update(weights=w, states=states, spectra=spectra)

    @classmethod
    def _trusted(cls, dim, weights, states):
        """An ensemble of a probability vector and an exactly Hermitian stack
        of density matrices that are valid by construction, stored as given
        without another check; its spectra are computed on first use."""
        mu = object.__new__(cls)
        weights.setflags(write=False)
        states.setflags(write=False)
        vars(mu).update(dim=dim, weights=weights, states=states)
        return mu

    @functools.cached_property
    def spectra(self):
        return _kept_spectra([self])[0]

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


def _kept_spectra(ensembles):
    """The ensembles' spectra; those not yet kept come from one eigvalsh call
    per dimension and are kept, read-only."""
    todo = [mu for mu in ensembles if "spectra" not in vars(mu)]
    for mu, spectra in zip(todo, _per_shape(np.linalg.eigvalsh, [mu.states for mu in todo])):
        spectra.setflags(write=False)
        vars(mu)["spectra"] = spectra
    return [vars(mu)["spectra"] for mu in ensembles]


def _weighted_means(kernel, ensembles, stacks):
    # sum_i p_i kernel(stack)_i of each ensemble, one kernel call per shape
    return [float((mu.weights * v).sum()) for mu, v in zip(ensembles, _per_shape(kernel, stacks))]


def _weighted(mu):
    # the stack p_i rho_i
    return mu.weights[:, None, None] * mu.states


def average_state(mu):
    """Barycenter sum_i p_i rho_i."""
    return linalg.hermitian_part(np.sum(_weighted(mu), axis=0))


def average_singleton(mu):
    """average_state(mu) as a trusted singleton, which a channel maps to Phi(avg)."""
    return Ensemble._trusted(mu.dim, np.ones(1), average_state(mu)[None])


def average_entropies(ensembles):
    """[average_entropy(mu) for mu in ensembles], bit for bit: one eigvalsh call
    per dimension for the spectra not yet kept, one entropy call per dimension."""
    return _weighted_means(shannon_entropy, ensembles, _kept_spectra(ensembles))


def average_entropy(mu):
    """Sum_i p_i S(rho_i)."""
    return average_entropies([mu])[0]


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
    rho_bar = average_state(mu)
    inv_sqrt, support = _support_inv_sqrt(rho_bar)
    sqrt_rho = linalg.matrix_sqrt_psd(rho_bar)
    sqrt_sigma = linalg.matrix_sqrt_psd(sigma)

    # Uhlmann-optimal purification of sigma against vec(sqrt_rho): the polar
    # unitary of sqrt_rho @ sqrt_sigma aligns the two purifications.
    w_svd, _, vh = np.linalg.svd(sqrt_rho @ sqrt_sigma)
    u_opt = vh.conj().T @ w_svd.conj().T
    a_mat = sqrt_sigma @ u_opt  # |psi> = vec(a_mat) purifies sigma

    # member i steers to tau_i / q_i at weight q_i = Tr tau_i
    tau = a_mat @ (inv_sqrt @ _weighted(mu) @ inv_sqrt) @ a_mat.conj().T
    q = np.trace(tau, axis1=-2, axis2=-1).real
    live = q > STEER_WEIGHT_CUT
    q = np.where(live, q, 0.0)
    states = np.where(live[:, None, None], tau / np.where(live, q, 1.0)[:, None, None],
                      mu.states)
    states = linalg.hermitian_part(states)

    mu_weights, mu_states = mu.weights, mu.states
    remainder = a_mat @ (np.eye(mu.dim) - support) @ a_mat.conj().T
    q_rest = float(np.trace(remainder).real)
    if q_rest > STEER_REST_CUT:
        rest = linalg.hermitian_part(remainder / q_rest)[None]
        q, states = np.append(q, q_rest), np.concatenate([states, rest])
        mu_weights, mu_states = np.append(mu_weights, 0.0), np.concatenate([mu_states, rest])
    return (Ensemble(mu.dim, q / np.sum(q), states),
            Ensemble(mu.dim, mu_weights, mu_states))


def mix_members_toward(mu, targets, t):
    """Perturb every member toward a target state: rho -> (1-t) rho + t target,
    for t in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:  # also rejects NaN
        raise ValidationError(f"mixing weight {t} outside [0, 1]")
    if len(targets) != len(mu):
        raise DimensionMismatch("need one target per member")
    return _mixed_toward(mu, check_density(targets, dim=mu.dim), t)


def _mixed_toward(mu, targets, t):
    # mix_members_toward on an exactly Hermitian stack of valid targets
    states = linalg.hermitian_part((1.0 - t) * mu.states + t * targets)
    return Ensemble._trusted(mu.dim, mu.weights, states)


def perturb_weights(mu, direction, t):
    """Shift weights along a zero-sum direction, clipped to stay a distribution.

    The direction is mean-centred, so the clipped weights sum to about 1 or
    more, unless direction or t is NaN or infinite, or t is so large that
    the shift overflows or clips every weight: their sum must be positive
    and finite, else ValidationError."""
    d = np.asarray(direction, dtype=float)
    d = d - np.mean(d)
    w = np.clip(mu.weights + t * d, 0.0, None)
    total = float(np.sum(w))
    if not 0.0 < total < math.inf:  # also rejects NaN
        raise ValidationError(f"shifted weights sum to {total}, not a positive finite number")
    return Ensemble._trusted(mu.dim, w / total, mu.states)


def pure_ensemble(vectors):
    """Uniformly weighted ensemble of rank-1 projectors from state vectors."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    w = 1.0 / len(vecs)
    return Ensemble.from_members([(w, outer(v / np.linalg.norm(v))) for v in vecs])
