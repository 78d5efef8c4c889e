"""Seeded random instance generators: Haar pure states, Gram-factor mixed
states, Haar-isometry channels, Dirichlet-weighted ensembles.

All generators take a numpy Generator; trial seeds derive deterministically
from (seed, index) so experiment reports are reproducible bit for bit. Their
channels and ensembles are valid by construction and are not checked again.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel
from .ensembles import Ensemble
from .errors import ValidationError
from .linalg import hermitian_part


def derive_rng(seed, index=0):
    """Deterministic per-trial generator from (seed, trial index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), int(index)]))


def _ginibre(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_pure(dim, rng):
    """Haar-uniform unit vector: normalized complex Gaussian."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    v = _ginibre(dim, 1, rng).reshape(-1)
    return v / np.linalg.norm(v)


def random_state(dim, rank, rng):
    """Random density matrix as a normalized Gram matrix of a dim x rank factor."""
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in [1, {dim}], got {rank}")
    g = _ginibre(dim, rank, rng)
    rho = g @ g.conj().T
    return hermitian_part(rho / np.trace(rho).real)


def random_unitary(dim, rng):
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    q, r = np.linalg.qr(_ginibre(dim, dim, rng))
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_channel(dim_in, dim_out, env_dim, rng):
    """Random channel from a Haar isometry into output (x) environment: the
    first dim_in columns of a Haar unitary on dim_out * env_dim."""
    if dim_out * env_dim < dim_in:
        raise ValidationError("need dim_out * env_dim >= dim_in for an isometry")
    v = random_unitary(dim_out * env_dim, rng)[:, :dim_in]
    kraus = v.reshape(dim_out, env_dim, dim_in).swapaxes(0, 1)
    return KrausChannel._trusted(dim_in, dim_out, np.ascontiguousarray(kraus))


def random_ensemble(dim, members, rng, rank=None):
    """Ensemble with symmetric-Dirichlet(1) weights and random member states."""
    if members < 1:
        raise ValidationError(f"members must be >= 1, got {members}")
    weights = rng.dirichlet(np.ones(members))
    rank = dim if rank is None else rank
    states = np.array([random_state(dim, rank, rng) for _ in range(members)])
    return Ensemble._trusted(dim, weights, states)


def random_pure_ensemble(dim, members, rng):
    """Ensemble of Haar-random rank-1 projectors."""
    if members < 1:
        raise ValidationError(f"members must be >= 1, got {members}")
    weights = rng.dirichlet(np.ones(members))
    states = np.array([np.outer(v, v.conj())
                       for v in (random_pure(dim, rng) for _ in range(members))])
    return Ensemble._trusted(dim, weights, hermitian_part(states))
