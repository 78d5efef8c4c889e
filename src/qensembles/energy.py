"""Hamiltonians as truncated eigenvalue sequences: Gibbs states, the entropy
ceiling F_H, passive energy and its ensemble averages.

A Hamiltonian is represented by its nondecreasing eigenvalue sequence in the
standard basis; ``closed_form="oscillator"`` tags the rule E_k = k, for which
F_H has the closed form g(E) and truncations may be extended automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionMismatch, EnergyRangeError, ValidationError
from .linalg import (
    _running_sum,
    _value,
    check_hermitian,
    eigvals_desc,
    g_func,
    positive_part,
    shannon_entropy,
)

GIBBS_BETA_LO = 1e-12
GIBBS_BETA_HI = 1e4
TAIL_TOL = 1e-12
EXTEND_CAP = 2000
GIBBS_BISECTIONS = 200


@dataclass(frozen=True)
class HamiltonianSpec:
    """Truncated spectrum of an energy observable, standard-basis eigenvectors."""

    eigenvalues: np.ndarray
    closed_form: str | None = None
    ground_shifted: bool = field(default=False)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size < 2:
            raise ValidationError("spectrum needs at least 2 levels")
        if np.any(np.diff(ev) < 0):
            raise ValidationError("eigenvalues must be nondecreasing")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "ground_shifted", bool(ev[0] == 0.0))
        if self.closed_form not in (None, "oscillator"):
            raise ValidationError(f"unknown closed_form tag {self.closed_form!r}")
        if self.closed_form == "oscillator" and not np.array_equal(
            ev, np.arange(ev.size, dtype=float)
        ):
            raise ValidationError("oscillator tag requires eigenvalues 0,1,2,...")

    @classmethod
    def oscillator(cls, levels):
        """Truncated number operator: E_k = k for k = 0..levels-1."""
        return cls(np.arange(levels, dtype=float), closed_form="oscillator")

    @property
    def levels(self):
        return int(self.eigenvalues.size)

    @property
    def max_mean(self):
        """Mean energy of the uniform (beta=0) state, the largest achievable mean."""
        return float(np.mean(self.eigenvalues))

    def extended(self, levels):
        """Longer truncation by the closed-form rule; only for tagged spectra."""
        if self.closed_form != "oscillator":
            raise ValidationError("cannot extend a spectrum without a closed form")
        return HamiltonianSpec.oscillator(max(levels, self.levels))

    def matrix(self, dim=None):
        """diag(E_0..E_{dim-1}) as a dense Hermitian matrix."""
        dim = self.levels if dim is None else dim
        if dim > self.levels:
            raise DimensionMismatch(f"dim {dim} exceeds truncation {self.levels}")
        return np.diag(self.eigenvalues[:dim]).astype(complex)


@dataclass(frozen=True)
class GibbsSolution:
    """Solved Gibbs state: diagonal in the standard basis."""

    beta: float
    state: np.ndarray
    mean_energy: float
    entropy: float
    tail_warning: bool = False


def mean_energy(rho, ham):
    """Tr H rho for a state on the first dim(rho) levels of ham."""
    rho = check_hermitian(rho)
    if rho.shape[0] > ham.levels:
        raise DimensionMismatch(
            f"state dim {rho.shape[0]} exceeds truncation {ham.levels}"
        )
    return float(np.real(np.sum(ham.eigenvalues[: rho.shape[0]] * np.diag(rho))))


def passive_energy(rho, ham):
    """Sum_i E_i lambda_i^v(rho): spectrum sorted descending against the rising spectrum.

    Accepts any PSD Hermitian operator (not only unit trace), or a (..., d, d)
    stack of them; the spectrum is zero-padded up to the truncation length.
    """
    lam = eigvals_desc(rho)
    d = lam.shape[-1]
    if d > ham.levels:
        raise DimensionMismatch(f"operator dim {d} exceeds truncation {ham.levels}")
    low = np.min(lam[..., -1])
    if low < -1e-9:
        raise ValidationError(f"operator has negative eigenvalue {low}")
    lam = np.clip(lam, 0.0, None)
    return _value(np.sum(ham.eigenvalues[:d] * lam, axis=-1))


def passive_rearrangement(rho, ham):
    """Diagonal operator with rho's descending spectrum on the truncation space."""
    lam = np.clip(eigvals_desc(rho), 0.0, None)
    if lam.size > ham.levels:
        raise DimensionMismatch(
            f"operator dim {lam.size} exceeds truncation {ham.levels}"
        )
    full = np.zeros(ham.levels)
    full[: lam.size] = lam
    return np.diag(full).astype(complex)


def ergotropy(rho, ham):
    """Tr H rho - E_H^psv(rho), clamped at 0 from below."""
    return max(mean_energy(rho, ham) - passive_energy(rho, ham), 0.0)


def avg_passive_energy(ensemble, ham):
    """Weighted average of member passive energies."""
    return _running_sum(ensemble.weights * passive_energy(ensemble.states, ham))


def truncated_passive_energy(ensemble, ham, eps):
    """Sum_k E_H^psv([p_k rho_k - eps I]_+), the epsilon-truncated passive energy."""
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    cut = ensemble.weights[:, None, None] * ensemble.states - eps * np.eye(ensemble.dim)
    return _running_sum(passive_energy(positive_part(cut), ham))


def _gibbs_weights(shifted, beta):
    w = np.exp(-beta * shifted)
    return w / np.sum(w)


def solve_gibbs(ham, energy, auto_extend=True):
    """Gibbs state at mean energy E: beta solved by bisection on [1e-12, 1e4].

    The achievable interval is (E_0, mean(E_k)]; beta = 0 (the uniform truncated
    state) is admitted at the upper endpoint. Out-of-range energies raise
    EnergyRangeError carrying the interval, and a bisection that does not close
    raises ConvergenceError. A relative tail mass above 1e-12 sets tail_warning;
    closed-form spectra are extended (up to 2000 levels) before warning.
    """
    energy = float(energy)
    if auto_extend and ham.closed_form == "oscillator":
        # enlarge the truncation until the tail at the solved beta is negligible
        need = ham.levels
        while need < EXTEND_CAP:
            cand = ham if need == ham.levels else ham.extended(need)
            if energy > cand.max_mean:
                need = min(2 * need, EXTEND_CAP)
                continue
            sol = _solve_gibbs_fixed(cand, energy)
            if not sol.tail_warning:
                return sol
            need = min(2 * need, EXTEND_CAP)
        return _solve_gibbs_fixed(ham.extended(EXTEND_CAP), energy)
    return _solve_gibbs_fixed(ham, energy)


def _solve_gibbs_fixed(ham, energy):
    ev = ham.eigenvalues
    e0 = float(ev[0])
    shifted = ev - e0
    hi_mean = ham.max_mean
    tol = 1e-10 * max(1.0, abs(energy))
    if energy <= e0 or energy > hi_mean + tol:
        raise EnergyRangeError(energy, e0, hi_mean)

    def mean_at(beta):
        return float(np.sum(ev * _gibbs_weights(shifted, beta)))

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
        w = _gibbs_weights(shifted, beta)
    tail = float(w[-1])
    return GibbsSolution(
        beta=beta,
        state=np.diag(w).astype(complex),
        mean_energy=float(np.sum(ev * w)),
        entropy=shannon_entropy(w),
        tail_warning=tail >= TAIL_TOL,
    )


def ground_degeneracy(ham, tol=1e-12):
    """Multiplicity of the lowest level."""
    ev = ham.eigenvalues
    return int(np.sum(ev <= ev[0] + tol))


def f_h(ham, energy):
    """F_H(E): entropy of the Gibbs state at mean energy E (the entropy ceiling).

    Oscillator-tagged spectra use the closed form g(E). E equal to the ground
    energy returns ln(ground degeneracy).
    """
    energy = float(energy)
    if ham.closed_form == "oscillator":
        if energy < 0.0:
            raise EnergyRangeError(energy, 0.0, math.inf)
        return g_func(energy)
    if energy == float(ham.eigenvalues[0]):
        return math.log(ground_degeneracy(ham))
    return solve_gibbs(ham, energy).entropy


def wl_check(ham, energy, x, y, slack=1e-9):
    """True iff x F_H(E/x) <= y F_H(E/y) + slack for 0 < x <= y (ground-shifted H);
    x = y is the equality case."""
    if not (0.0 < x <= y):
        raise ValidationError(f"need 0 < x <= y, got x={x}, y={y}")
    if not ham.ground_shifted:
        raise ValidationError("wl_check requires a ground-shifted spectrum")
    return x * f_h(ham, energy / x) <= y * f_h(ham, energy / y) + slack
