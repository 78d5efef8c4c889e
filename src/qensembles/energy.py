"""The truncated harmonic oscillator E_k = k: thermal states, passive energy
and its ensemble averages.

The entropy ceiling F_H of this Hamiltonian is the closed form g(E)
(linalg.g_func), the entropy of its thermal state, whose populations are
geometric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import FOCK_CAP
from .errors import EnergyRangeError, TruncationError, ValidationError
from .ensembles import _kept_spectra, _weighted, _weighted_means
from .linalg import (
    _per_shape,
    _positive_part,
    _value,
    check_hermitian,
    eigvals_desc,
)

# a thermal state without a fixed truncation keeps the first of 64, 128,
# 256, ... levels whose top level holds less than this population
THERMAL_TAIL_CUT = 1e-12
_THERMAL_START_LEVELS = 64
# the passive energies reject a spectrum with an eigenvalue below this and
# clip the rest at 0; verify passes them the stacks of many trials at once
PASSIVE_FLOOR = -1e-9


@dataclass(frozen=True)
class HamiltonianSpec:
    """Truncated number operator on the first `levels` Fock levels. No
    function of the package takes one; perfbench's tracer test wraps
    `oscillator`."""

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValidationError("spectrum needs at least 2 levels")

    @classmethod
    def oscillator(cls, levels):
        """Truncated number operator: E_k = k for k = 0..levels-1."""
        return cls(levels)


def mean_energy(rho):
    """Tr H rho for a state on the first dim(rho) levels."""
    return float(_mean_energies(check_hermitian(rho)))


def _mean_energies(rho):
    # Tr H rho of an exactly Hermitian matrix, or of each of a stack, not checked again
    levels = np.arange(rho.shape[-1], dtype=float)
    return np.real(np.sum(levels * np.diagonal(rho, axis1=-2, axis2=-1), axis=-1))


def avg_mean_energies(ensembles):
    """Sum_i p_i Tr H rho_i of each ensemble, one call per dimension, unchecked;
    of a channel's output of average_singleton(mu), Tr H Phi(avg)."""
    return _weighted_means(_mean_energies, ensembles, [mu.states for mu in ensembles])


def passive_energy(rho):
    """Sum_k k lambda_k^v(rho): spectrum sorted descending against the levels.

    Accepts any PSD Hermitian operator (not only unit trace), or a (..., d, d)
    stack of them.
    """
    return _passive(eigvals_desc(rho))


def _passive(lam):
    # passive energies of non-increasing spectra, one per row
    low = np.min(lam[..., -1])
    if low < PASSIVE_FLOOR:
        raise ValidationError(f"operator has negative eigenvalue {low}")
    lam = np.clip(lam, 0.0, None)
    return _value(np.sum(np.arange(lam.shape[-1], dtype=float) * lam, axis=-1))


def avg_passive_energies(ensembles):
    """[avg_passive_energy(mu) for mu in ensembles], bit for bit, with one call per
    dimension on the kept spectra (those not yet kept: one eigvalsh call per dimension)."""
    return _weighted_means(lambda lam: _passive(lam[:, ::-1]), ensembles, _kept_spectra(ensembles))


def avg_passive_energy(ensemble):
    """Weighted average of member passive energies."""
    return avg_passive_energies([ensemble])[0]


def truncated_passive_energies(pairs):
    """[truncated_passive_energy(mu, eps) for mu, eps in pairs], bit for bit,
    with one positive-part call per dimension."""
    if any(eps <= 0.0 for _, eps in pairs):
        raise ValidationError(f"eps must be positive, got {min(eps for _, eps in pairs)}")
    # p_k rho_k - eps I is exactly Hermitian; the products of _positive_part
    # are not, and passive_energy symmetrizes them
    cuts = [_weighted(mu) - eps * np.eye(mu.dim) for mu, eps in pairs]
    return [float(e.sum()) for e in
            _per_shape(lambda cut: passive_energy(_positive_part(cut)), cuts)]


def truncated_passive_energy(ensemble, eps):
    """Sum_k E^psv([p_k rho_k - eps I]_+), the epsilon-truncated passive energy."""
    return truncated_passive_energies([(ensemble, eps)])[0]


def thermal_populations(energy, levels=None):
    """Level populations of the oscillator's thermal state at mean energy E:
    x^k with x = E / (1 + E), normalised over levels k = 0..levels-1.

    With a fixed `levels` this is the truncated Gibbs state whose mean is E
    only up to the cut tail, x^levels; its mean is below E. Without `levels`,
    the truncation is the first of 64, 128, 256, ... levels whose top
    population is below THERMAL_TAIL_CUT, and an E that needs more than
    FOCK_CAP levels (above about 20) raises TruncationError. The untruncated
    state has mean E and entropy g(E). E must be finite and nonnegative, else
    EnergyRangeError; a given `levels` must be an integer >= 1, else
    ValidationError.
    """
    energy = float(energy)
    if not 0.0 <= energy < math.inf:  # also rejects NaN
        raise EnergyRangeError(energy)
    if levels is not None and (isinstance(levels, bool)
                               or not isinstance(levels, (int, np.integer)) or levels < 1):
        raise ValidationError(f"levels must be an integer >= 1, got {levels!r}")
    x = energy / (1.0 + energy)
    size = _THERMAL_START_LEVELS if levels is None else levels
    while True:
        pops = x ** np.arange(size, dtype=float)
        pops /= np.sum(pops)
        if levels is not None or pops[-1] < THERMAL_TAIL_CUT:
            return pops
        size *= 2
        if size > FOCK_CAP:
            raise TruncationError(
                f"thermal state at mean energy {energy} needs more than {FOCK_CAP} levels")
