"""The truncated harmonic oscillator E_k = k: Gibbs states, passive energy and
its ensemble averages.

The entropy ceiling F_H of this Hamiltonian is the closed form g(E)
(linalg.g_func); a Gibbs state needs a finite truncation, which solve_gibbs
may extend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EnergyRangeError, ValidationError
from .linalg import (
    _positive_part,
    _running_sum,
    _value,
    check_hermitian,
    eigvals_desc,
    shannon_entropy,
)

GIBBS_BETA_LO = 1e-12
GIBBS_BETA_HI = 1e4
TAIL_TOL = 1e-12
EXTEND_CAP = 2000
GIBBS_BISECTIONS = 200


@dataclass(frozen=True)
class HamiltonianSpec:
    """Truncated number operator on the first `levels` Fock levels."""

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValidationError("spectrum needs at least 2 levels")

    @classmethod
    def oscillator(cls, levels):
        """Truncated number operator: E_k = k for k = 0..levels-1."""
        return cls(levels)

    @property
    def eigenvalues(self):
        return np.arange(self.levels, dtype=float)

    @property
    def max_mean(self):
        """Mean energy of the uniform (beta=0) state, the largest achievable mean."""
        return float(np.mean(self.eigenvalues))


@dataclass(frozen=True)
class GibbsSolution:
    """Solved Gibbs state, diagonal in the standard basis: weights holds its
    level populations."""

    beta: float
    weights: np.ndarray
    mean_energy: float
    entropy: float
    tail_warning: bool = False


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
    return _running_sum(ensemble.weights * _passive(ensemble.spectra[:, ::-1]))


def truncated_passive_energy(ensemble, eps):
    """Sum_k E^psv([p_k rho_k - eps I]_+), the epsilon-truncated passive energy."""
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    cut = ensemble.weights[:, None, None] * ensemble.states - eps * np.eye(ensemble.dim)
    # cut is exactly Hermitian; the products of _positive_part are not, and
    # passive_energy symmetrizes them
    return _running_sum(passive_energy(_positive_part(cut)))


def _gibbs_weights(ev, beta):
    w = np.exp(-beta * ev)
    return w / np.sum(w)


def solve_gibbs(ham, energy, auto_extend=True):
    """Gibbs state at mean energy E: beta solved by bisection on [1e-12, 1e4].

    The achievable interval is (0, (levels-1)/2]; beta = 0 (the uniform
    truncated state) is admitted at the upper endpoint. Out-of-range energies
    raise EnergyRangeError carrying the interval, and a bisection that does
    not close raises ConvergenceError. A relative tail mass above 1e-12 sets
    tail_warning; with auto_extend the truncation is first doubled (up to
    2000 levels) until the tail is negligible.
    """
    energy = float(energy)
    if auto_extend:
        while ham.levels < EXTEND_CAP:
            if energy <= ham.max_mean:
                sol = _solve_gibbs_fixed(ham, energy)
                if not sol.tail_warning:
                    return sol
            ham = HamiltonianSpec.oscillator(min(2 * ham.levels, EXTEND_CAP))
    return _solve_gibbs_fixed(ham, energy)


def _solve_gibbs_fixed(ham, energy):
    ev = ham.eigenvalues
    hi_mean = ham.max_mean
    tol = 1e-10 * max(1.0, abs(energy))
    if energy <= 0.0 or energy > hi_mean + tol:
        raise EnergyRangeError(energy, 0.0, hi_mean)

    def mean_at(beta):
        return float(np.sum(ev * _gibbs_weights(ev, beta)))

    if energy >= mean_at(GIBBS_BETA_LO) - tol:
        beta = 0.0
        w = np.full(ev.size, 1.0 / ev.size)
    else:
        lo, hi = GIBBS_BETA_LO, GIBBS_BETA_HI
        beta = 0.5 * (lo + hi)
        for _ in range(GIBBS_BISECTIONS):
            beta = 0.5 * (lo + hi)
            m = mean_at(beta)
            if abs(m - energy) <= tol:
                break
            if m > energy:
                lo = beta
            else:
                hi = beta
        else:
            raise ConvergenceError(f"Gibbs bisection for E={energy} did not close in "
                                   f"{GIBBS_BISECTIONS} steps", gap=abs(m - energy))
        w = _gibbs_weights(ev, beta)
    tail = float(w[-1])
    return GibbsSolution(
        beta=beta,
        weights=w,
        mean_energy=float(np.sum(ev * w)),
        entropy=shannon_entropy(w),
        tail_warning=tail >= TAIL_TOL,
    )
