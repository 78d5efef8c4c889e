"""Kraus-form quantum channels, Choi data, channel functionals on ensembles,
channel-distance estimation, and the catalog of analytically known channels.

Norm estimation never claims exactness: searches return certified lower
bounds (with the achieving witness); catalog families carry closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch, TruncationError, ValidationError
from .ensembles import Ensemble, average_state
from .linalg import (
    check_density,
    hermitian_part,
    outer,
    relative_entropy,
    sign_operator,
    trace_norm,
    von_neumann_entropy,
)

KRAUS_TP_TOL = 1e-9
CHOI_RANK_TOL = 1e-9
FOCK_CAP = 512
SEARCH_RESTARTS = 64
SEARCH_TOL = 1e-10
SEARCH_MAX_ITER = 200


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    dim_in: int
    dim_out: int
    kraus: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ValidationError(
                    f"Kraus operator shape {k.shape} != ({self.dim_out}, {self.dim_in})"
                )
        acc = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(acc - np.eye(self.dim_in))))
        if dev > KRAUS_TP_TOL:
            raise ValidationError(f"Kraus set is not trace preserving (dev {dev:.3e})")
        object.__setattr__(self, "kraus", ops)

    def apply(self, rho):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatch(
                f"input shape {rho.shape} != ({self.dim_in}, {self.dim_in})"
            )
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return hermitian_part(out)

    def apply_adjoint(self, x):
        """Heisenberg-picture action on observables."""
        x = np.asarray(x, dtype=complex)
        out = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for k in self.kraus:
            out += k.conj().T @ x @ k
        return hermitian_part(out)

    def compose(self, inner):
        """self after inner: Kraus products K_i L_j."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatch(
                f"cannot compose: inner output {inner.dim_out} != {self.dim_in}"
            )
        ops = tuple(k @ l for k in self.kraus for l in inner.kraus)
        return KrausChannel(inner.dim_in, self.dim_out, ops)

    def apply_ensemble(self, mu):
        if mu.dim != self.dim_in:
            raise DimensionMismatch(f"ensemble dim {mu.dim} != {self.dim_in}")
        return mu.map_states(self.apply, dim_out=self.dim_out)


def mix_channels(t, chan_a, chan_b):
    """(1-t) chan_a + t chan_b as a single Kraus channel."""
    if (chan_a.dim_in, chan_a.dim_out) != (chan_b.dim_in, chan_b.dim_out):
        raise DimensionMismatch("mixed channels must share dimensions")
    ops = tuple(math.sqrt(1.0 - t) * k for k in chan_a.kraus) + tuple(
        math.sqrt(t) * k for k in chan_b.kraus
    )
    return KrausChannel(chan_a.dim_in, chan_a.dim_out, ops)


def choi_matrix(chan):
    """(Phi (x) id)(|Gamma><Gamma|) with the normalized maximally entangled input."""
    d = chan.dim_in
    out = np.zeros((chan.dim_out * d, chan.dim_out * d), dtype=complex)
    for k in chan.kraus:
        kv = np.kron(k, np.eye(d))
        gamma = np.eye(d).reshape(-1) / math.sqrt(d)
        v = kv @ gamma
        out += np.outer(v, v.conj())
    return hermitian_part(out)


def choi_rank(chan):
    """Number of Choi eigenvalues above 1e-9: the minimal environment dimension."""
    w = np.linalg.eigvalsh(choi_matrix(chan))
    return int(np.sum(w > CHOI_RANK_TOL))


def aoe(chan, mu):
    """Average output entropy sum_i p_i S(Phi(rho_i))."""
    total = 0.0
    for w, rho in mu.members:
        if w > 0.0:
            total += w * von_neumann_entropy(chan.apply(rho))
    return total


def holevo_chi(chan, mu, cross_check=False, tol=1e-8):
    """Output Holevo information S(Phi(avg)) - AOE.

    With cross_check the relative-entropy form sum_i p_i D(Phi(rho_i)||Phi(avg))
    is evaluated as well and disagreement beyond tol raises.
    """
    out_avg = check_density(chan.apply(average_state(mu)))
    chi = von_neumann_entropy(out_avg) - aoe(chan, mu)
    if cross_check:
        alt = 0.0
        for w, rho in mu.members:
            if w > 0.0:
                alt += w * relative_entropy(chan.apply(rho), out_avg)
        if not math.isfinite(alt) or abs(alt - chi) > tol:
            raise ValidationError(
                f"Holevo paths disagree: entropy form {chi}, relative-entropy form {alt}"
            )
    return max(chi, 0.0)


# ---------------------------------------------------------------------------
# Norm lower-bound searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    """Channel-distance estimate; kind says how it was obtained."""

    value: float
    kind: str  # one_to_one_lower | diamond_lower | closed_form
    witness: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


def _difference_maps(phi, psi_chan, ancilla):
    # (Phi - Psi) (x) id_ancilla and its adjoint; ancilla 1 gives Phi - Psi itself
    if (phi.dim_in, phi.dim_out) != (psi_chan.dim_in, psi_chan.dim_out):
        raise DimensionMismatch("channels must share input and output dimensions")
    eye = np.eye(ancilla)
    plus = [np.kron(k, eye) for k in phi.kraus]
    minus = [np.kron(k, eye) for k in psi_chan.kraus]
    dim_in, dim_out = phi.dim_in * ancilla, phi.dim_out * ancilla

    def apply_fn(rho):
        out = np.zeros((dim_out, dim_out), dtype=complex)
        for k in plus:
            out += k @ rho @ k.conj().T
        for k in minus:
            out -= k @ rho @ k.conj().T
        return hermitian_part(out)

    def adjoint_fn(x):
        out = np.zeros((dim_in, dim_in), dtype=complex)
        for k in plus:
            out += k.conj().T @ x @ k
        for k in minus:
            out -= k.conj().T @ x @ k
        return hermitian_part(out)

    return apply_fn, adjoint_fn


def _ascend(apply_fn, adjoint_fn, start, tol, max_iter, project=None):
    # Alternating maximization of ||Delta(|v><v|)||_1: dual sign operator,
    # then the top eigenvector of the lifted Heisenberg operator. Monotone
    # unless project (onto a feasible set) is given; stops at the first
    # step that does not improve.
    vec = start / np.linalg.norm(start)
    if project is not None:
        vec = project(vec)
    value = trace_norm(apply_fn(outer(vec)))
    for _ in range(max_iter):
        x_op = sign_operator(apply_fn(outer(vec)))
        w, v = np.linalg.eigh(adjoint_fn(x_op))
        cand = v[:, -1]
        if project is not None:
            cand = project(cand)
        cand_val = trace_norm(apply_fn(outer(cand)))
        if cand_val <= value + tol:
            if cand_val > value:
                vec, value = cand, cand_val
            break
        vec, value = cand, cand_val
    return value, vec


def _haar_vectors(dim, count, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def norm_1to1_lower(
    phi, psi_chan, restarts=SEARCH_RESTARTS, seed=0, tol=SEARCH_TOL,
    max_iter=SEARCH_MAX_ITER,
):
    """Lower bound on ||Phi - Psi||_{1->1} by multistart ascent over pure inputs.

    Pure inputs suffice: the objective is convex on states. Deterministic for a
    fixed seed; the result is the max over restarts.
    """
    apply_fn, adjoint_fn = _difference_maps(phi, psi_chan, 1)
    starts = list(np.eye(phi.dim_in, dtype=complex))
    starts += list(_haar_vectors(phi.dim_in, restarts, seed))
    best_val, best_vec = max(
        (_ascend(apply_fn, adjoint_fn, s, tol, max_iter) for s in starts),
        key=lambda result: result[0],
    )
    return NormEstimate(value=best_val, kind="one_to_one_lower", witness=best_vec)


def _marginal_energy(vec, energies):
    d = int(round(math.sqrt(vec.size)))
    amp = vec.reshape(d, d)
    pops = np.sum(np.abs(amp) ** 2, axis=1)
    return float(np.sum(energies[:d] * pops))


def _project_energy(vec, energies, cap):
    # blend toward the zero-energy product vector until the marginal obeys the cap
    d = int(round(math.sqrt(vec.size)))
    ground = np.zeros_like(vec)
    ground[0] = 1.0
    if _marginal_energy(vec, energies) <= cap:
        return vec
    lo, hi = 0.0, 1.0
    for _ in range(80):
        t = 0.5 * (lo + hi)
        cand = (1.0 - t) * vec + t * ground
        cand = cand / np.linalg.norm(cand)
        if _marginal_energy(cand, energies) > cap:
            lo = t
        else:
            hi = t
    cand = (1.0 - hi) * vec + hi * ground
    return cand / np.linalg.norm(cand)


def diamond_lower(
    phi, psi_chan, restarts=SEARCH_RESTARTS, seed=0, tol=SEARCH_TOL,
    max_iter=SEARCH_MAX_ITER, energy_cap=None,
):
    """Lower bound on ||Phi - Psi||_diamond via pure bipartite inputs on dim_in^2.

    Seeded with (best 1->1 witness) (x) |0> so the result is never below the
    1->1 search. With energy_cap=(ham, E) every iterate is projected onto the
    marginal-energy ball, giving a lower bound on the energy-constrained
    diamond norm instead.
    """
    d = phi.dim_in
    apply_fn, adjoint_fn = _difference_maps(phi, psi_chan, d)
    project = None
    if energy_cap is not None:
        ham, cap = energy_cap
        project = lambda vec: _project_energy(vec, ham.eigenvalues, cap)
    one = norm_1to1_lower(phi, psi_chan, restarts=restarts, seed=seed, tol=tol)
    seed_vec = np.kron(one.witness, np.eye(d, dtype=complex)[0])
    gamma = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    starts = [seed_vec, gamma]
    starts += list(_haar_vectors(d * d, restarts, seed))
    best_val, best_vec = max(
        (_ascend(apply_fn, adjoint_fn, s, tol, max_iter, project) for s in starts),
        key=lambda result: result[0],
    )
    extras = {}
    if energy_cap is not None:
        extras = {"energy_constrained": True, "energy_cap": float(cap)}
    elif best_val < one.value - 1e-12:
        best_val, best_vec = one.value, seed_vec / np.linalg.norm(seed_vec)
    return NormEstimate(
        value=best_val, kind="diamond_lower", witness=best_vec, extras=extras
    )


def evaluate_witness(phi, psi_chan, estimate):
    """Re-evaluate a NormEstimate's witness; reproduces value to 1e-8.

    The witness length fixes the ancilla: dim_in for a 1->1 witness gives 1.
    """
    if estimate.witness is None:
        return estimate.value
    vec = np.asarray(estimate.witness, dtype=complex).reshape(-1)
    apply_fn, _ = _difference_maps(phi, psi_chan, vec.size // phi.dim_in)
    return trace_norm(apply_fn(outer(vec)))


# ---------------------------------------------------------------------------
# Catalog channels
# ---------------------------------------------------------------------------

def identity_channel(dim):
    return KrausChannel(dim, dim, (np.eye(dim, dtype=complex),))


def erasure_channel(dim, p):
    """Embed into dim+1 and erase to the extra flag vector with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"erasure probability {p} outside [0, 1]")
    embed = np.zeros((dim + 1, dim), dtype=complex)
    embed[:dim, :] = np.eye(dim)
    ops = []
    if p < 1.0:
        ops.append(math.sqrt(1.0 - p) * embed)
    if p > 0.0:
        for j in range(dim):
            k = np.zeros((dim + 1, dim), dtype=complex)
            k[dim, j] = math.sqrt(p)
            ops.append(k)
    return KrausChannel(dim, dim + 1, tuple(ops))


def erasure_pair_diamond(p, q):
    """Closed-form ||Omega_p - Omega_q||_diamond = 2|p - q| (any input achieves it)."""
    return NormEstimate(value=2.0 * abs(p - q), kind="closed_form", witness=None)


def mix_with_state(dim, eps, omega):
    """rho -> (1-eps) rho + eps (Tr rho) omega."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"mixing weight {eps} outside [0, 1]")
    omega = check_density(omega, dim=dim)
    ops = []
    if eps < 1.0:
        ops.append(math.sqrt(1.0 - eps) * np.eye(dim, dtype=complex))
    if eps > 0.0:
        w, v = np.linalg.eigh(omega)
        for lam, col in zip(w, v.T):
            if lam > 1e-14:
                for j in range(dim):
                    k = np.zeros((dim, dim), dtype=complex)
                    k[:, j] = math.sqrt(eps * lam) * col
                    ops.append(k)
    return KrausChannel(dim, dim, tuple(ops))


def fock_dephasing(n_max):
    """Dephasing onto the number basis: Kraus set {|n><n|}, n = 0..n_max."""
    if n_max > FOCK_CAP:
        raise ValidationError(f"n_max {n_max} exceeds cap {FOCK_CAP}")
    dim = n_max + 1
    ops = []
    for n in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[n, n] = 1.0
        ops.append(k)
    return KrausChannel(dim, dim, tuple(ops))


# ---------------------------------------------------------------------------
# Coherent states on a truncated Fock space
# ---------------------------------------------------------------------------

def coherent_state(zeta, n_max):
    """Truncated coherent vector; requires |zeta|^2 <= n_max/4 so the raw tail
    stays below the 1e-10 budget, then renormalizes to exact unit norm."""
    zeta = complex(zeta)
    nbar = abs(zeta) ** 2
    if nbar > n_max / 4.0:
        raise TruncationError(
            f"|zeta|^2 = {nbar:.3f} exceeds truncation budget {n_max / 4:.3f}"
        )
    n = np.arange(n_max + 1)
    if nbar == 0.0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    log_mag = -0.5 * nbar + 0.5 * (n * math.log(nbar) - gammaln(n + 1.0))
    phase = np.exp(1j * n * np.angle(zeta))
    amps = np.exp(log_mag) * phase
    nrm = np.linalg.norm(amps)
    if nrm < 1.0 - 1e-10:
        raise TruncationError(f"truncated norm {nrm} below 1 - 1e-10")
    return amps / nrm


def coherent_overlap(z1, z2):
    """<z1|z2> = exp(-(|z1|^2 + |z2|^2)/2 + conj(z1) z2)."""
    z1, z2 = complex(z1), complex(z2)
    return np.exp(-0.5 * (abs(z1) ** 2 + abs(z2) ** 2) + np.conj(z1) * z2)


@functools.lru_cache(maxsize=8)
def _displacement_eigh(n_max):
    # eigh of the Hermitian i(a^dag - a); read-only because every caller shares it
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    lam, vec = np.linalg.eigh(1j * (a.T - a))
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def displacement_operator(zeta, n_max):
    """expm(zeta a^dag - conj(zeta) a) on the truncated Fock space.

    With zeta = r e^(i phi) the generator is e^(i phi N) r (a^dag - a) e^(-i phi N),
    so D = e^(i phi N) V e^(-i r Lambda) V^dag e^(-i phi N) from one cached
    eigendecomposition V Lambda V^dag of i(a^dag - a) per truncation.
    """
    zeta = complex(zeta)
    lam, vec = _displacement_eigh(n_max)
    core = (vec * np.exp(-1j * abs(zeta) * lam)) @ vec.conj().T
    phase = np.exp(1j * np.angle(zeta) * np.arange(n_max + 1))
    return phase[:, None] * core * phase.conj()


def poisson_entropy(lam, n_cap=FOCK_CAP):
    """Shannon entropy of Poisson(lam): lam(1 - ln lam) + e^-lam sum lam^n ln(n!)/n!."""
    lam = float(lam)
    if lam < 0.0:
        raise ValidationError(f"Poisson parameter {lam} must be nonnegative")
    if lam == 0.0:
        return 0.0
    top = min(int(lam + 12.0 * math.sqrt(lam) + 40.0), n_cap)
    n = np.arange(top + 1)
    log_fact = gammaln(n + 1.0)
    log_pmf = -lam + n * math.log(lam) - log_fact
    series = float(np.sum(np.exp(log_pmf) * log_fact))
    return lam * (1.0 - math.log(lam)) + series
