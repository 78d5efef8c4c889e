"""Seeded random instance generators: Haar pure states, Gram-factor mixed
states, Haar-isometry channels, Dirichlet-weighted ensembles.

All generators take a numpy Generator; trial seeds derive deterministically
from (seed, index) so experiment reports are reproducible bit for bit. Their
channels and ensembles are valid by construction and are not checked again.
Each draws its normals in one call, in C order as per-matrix (real, imaginary)
draws would, then builds through kernels that act on every matrix alone.
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


def _ginibre(normals):
    # complex Gaussians of a (k, 2, ...) stack of (real, imaginary) normals
    return normals[:, 0] + 1j * normals[:, 1]


def haar_unitaries(normals):
    """Haar unitaries of a (k, 2, n, n) stack of standard normals, one per
    block: QR of its complex Gaussian matrix, diagonal phases fixed."""
    q, r = np.linalg.qr(_ginibre(normals))
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def gram_states(normals):
    """Density matrices g g^dagger / Tr(g g^dagger) of the complex Gaussian
    (d, r) factors g of a (k, 2, d, r) stack of standard normals."""
    g = _ginibre(normals)
    rho = g @ g.conj().swapaxes(-1, -2)
    return hermitian_part(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])


def _unit_vectors(dim, count, rng):
    # count unit vectors; np.linalg.norm per vector, as a stacked norm sums otherwise
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    g = _ginibre(rng.standard_normal((count, 2, dim)))
    return g / np.array([np.linalg.norm(v) for v in g])[:, None]


def random_pure(dim, rng):
    """Haar-uniform unit vector: normalized complex Gaussian."""
    return _unit_vectors(dim, 1, rng)[0]


def random_state(dim, rank, rng):
    """Random density matrix as a normalized Gram matrix of a dim x rank factor."""
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in [1, {dim}], got {rank}")
    return gram_states(rng.standard_normal((1, 2, dim, rank)))[0]


def random_unitary(dim, rng):
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    return haar_unitaries(rng.standard_normal((1, 2, dim, dim)))[0]


def isometry_channel(u, dim_in, dim_out):
    """The channel whose Stinespring isometry into output (x) environment is
    the first dim_in columns of the unitary u."""
    kraus = u[:, :dim_in].reshape(dim_out, -1, dim_in).swapaxes(0, 1)
    return KrausChannel._trusted(dim_in, dim_out, np.ascontiguousarray(kraus))


def random_channel(dim_in, dim_out, env_dim, rng):
    """Random channel from a Haar isometry into output (x) environment: the
    first dim_in columns of a Haar unitary on dim_out * env_dim."""
    if dim_out * env_dim < dim_in:
        raise ValidationError("need dim_out * env_dim >= dim_in for an isometry")
    return isometry_channel(random_unitary(dim_out * env_dim, rng), dim_in, dim_out)


def random_ensemble(dim, members, rng, rank=None):
    """Ensemble with symmetric-Dirichlet(1) weights and random member states."""
    if members < 1:
        raise ValidationError(f"members must be >= 1, got {members}")
    weights = rng.dirichlet(np.ones(members))
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in [1, {dim}], got {rank}")
    states = gram_states(rng.standard_normal((members, 2, dim, rank)))
    return Ensemble._trusted(dim, weights, states)


def random_pure_ensemble(dim, members, rng):
    """Ensemble of Haar-random rank-1 projectors."""
    if members < 1:
        raise ValidationError(f"members must be >= 1, got {members}")
    weights = rng.dirichlet(np.ones(members))
    vecs = _unit_vectors(dim, members, rng)
    return Ensemble._trusted(dim, weights, hermitian_part(vecs[:, :, None] * vecs[:, None].conj()))
