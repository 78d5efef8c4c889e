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
from .linalg import (
    _positive_part,
    _value,
    check_hermitian,
    eigvals_desc,
)

# a thermal state without a fixed truncation keeps the first of 64, 128,
# 256, ... levels whose top level holds less than this population
THERMAL_TAIL_CUT = 1e-12
_THERMAL_START_LEVELS = 64


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
    return _mean_energy(check_hermitian(rho))


def _mean_energy(rho):
    # mean_energy of an exactly Hermitian matrix, not checked again
    levels = np.arange(rho.shape[0], dtype=float)
    return float(np.real(np.sum(levels * np.diag(rho))))


def passive_energy(rho):
    """Sum_k k lambda_k^v(rho): spectrum sorted descending against the levels.

    Accepts any PSD Hermitian operator (not only unit trace), or a (..., d, d)
    stack of them.
    """
    return _passive(eigvals_desc(rho))


def _passive(lam):
    # passive energies of non-increasing spectra, one per row
    low = np.min(lam[..., -1])
    if low < -1e-9:
        raise ValidationError(f"operator has negative eigenvalue {low}")
    lam = np.clip(lam, 0.0, None)
    return _value(np.sum(np.arange(lam.shape[-1], dtype=float) * lam, axis=-1))


def avg_passive_energy(ensemble):
    """Weighted average of member passive energies."""
    return float(np.sum(ensemble.weights * _passive(ensemble.spectra[:, ::-1])))


def truncated_passive_energy(ensemble, eps):
    """Sum_k E^psv([p_k rho_k - eps I]_+), the epsilon-truncated passive energy."""
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    cut = ensemble.weights[:, None, None] * ensemble.states - eps * np.eye(ensemble.dim)
    # cut is exactly Hermitian; the products of _positive_part are not, and
    # passive_energy symmetrizes them
    return float(np.sum(passive_energy(_positive_part(cut))))


def _thermal_populations(energy, levels=None):
    """Level populations of the oscillator's thermal state at mean energy E:
    x^k with x = E / (1 + E), normalised over levels k = 0..levels-1.

    With a fixed `levels` this is the truncated Gibbs state whose mean is E
    only up to the cut tail, x^levels; its mean is below E. Without `levels`,
    the truncation is the first of 64, 128, 256, ... levels whose top
    population is below THERMAL_TAIL_CUT, and an E that needs more than
    FOCK_CAP levels (above about 20) raises TruncationError. The untruncated
    state has mean E and entropy g(E). E must be finite and nonnegative, else
    EnergyRangeError.
    """
    energy = float(energy)
    if not 0.0 <= energy < math.inf:  # also rejects NaN
        raise EnergyRangeError(energy)
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
