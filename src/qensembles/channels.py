"""Kraus-form quantum channels, channel functionals on ensembles, the catalog
of analytically known channels, and coherent states on a truncated Fock space.

Channel distances enter the bounds as closed-form upper bounds: t for a
mixture (1-t) Phi + t Psi, and erasure_pair_diamond for an erasure pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TruncationError, ValidationError
from .ensembles import Ensemble, average_entropies, average_entropy, average_singleton
from .linalg import (
    TRACE_TOL,
    _check_traces,
    _per_shape,
    _value,
    check_density,
    hermitian_part,
)

# no looser than the state boundary, since a channel's outputs are not
# checked again: the largest absolute row sum of sum K^dag K - I bounds its
# operator norm, hence the trace error it adds to any state
KRAUS_TP_TOL = TRACE_TOL
FOCK_CAP = 512
# ln n! for n = 0..FOCK_CAP, the one table coherent_state and poisson_entropy read
_LOG_FACTORIAL = np.array([math.lgamma(n + 1.0) for n in range(FOCK_CAP + 1)])
_LOG_FACTORIAL.setflags(write=False)
# series terms poisson_entropy evaluates at once: each temporary is 128 KiB
# of float64, which stays in cache (2**17-cell blocks ran slower)
_POISSON_BLOCK_CELLS = 2**14
# eigenvalues of mix_with_state's omega at or below this give no Kraus operators
MIX_EIG_CUT = 1e-14
# coherent_state's truncated vector must reach norm 1 - COHERENT_NORM_BUDGET
COHERENT_NORM_BUDGET = 1e-10


def _kraus_sum(ops, rho):
    # sum_k K rho K^dagger, symmetrized, over an (r, a, b) operator stack on a
    # matrix or (..., b, b) stack, or over a (k, r, a, b) stack, one set per matrix
    return hermitian_part(np.sum(ops @ rho[..., None, :, :] @ ops.conj().swapaxes(-1, -2),
                                 axis=-3))


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    kraus may be given as any sequence of matrices or as a stack; it is
    stored as a read-only (r, dim_out, dim_in) array. Channels built from
    channels (compose, mix_channels) and random channels are trace
    preserving by construction and skip the check (KrausChannel._trusted).
    """

    dim_in: int
    dim_out: int
    kraus: np.ndarray

    def __post_init__(self):
        shape = (self.dim_out, self.dim_in)
        try:
            ops = np.array(self.kraus, dtype=complex)
        except ValueError:  # ragged operators
            raise ValidationError(f"Kraus operators must all have shape {shape}") from None
        if ops.size == 0:
            raise ValidationError("channel needs at least one Kraus operator")
        if ops.shape[1:] != shape:
            raise ValidationError(f"Kraus operator shape {ops.shape[1:]} != {shape}")
        acc = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0)
        dev = float(np.max(np.sum(np.abs(acc - np.eye(self.dim_in)), axis=-1)))
        if not dev <= KRAUS_TP_TOL:  # also rejects NaN and inf entries
            raise ValidationError(f"Kraus set is not trace preserving (dev {dev:.3e})")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @classmethod
    def _trusted(cls, dim_in, dim_out, kraus):
        """A channel from an (r, dim_out, dim_in) stack of Kraus operators that
        is trace preserving by construction, stored without another check."""
        chan = object.__new__(cls)
        kraus.setflags(write=False)
        vars(chan).update(dim_in=dim_in, dim_out=dim_out, kraus=kraus)
        return chan

    def apply(self, rho):
        """Phi(rho) of a matrix, or of each matrix of a (..., dim_in, dim_in) stack."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape[-2:] != (self.dim_in, self.dim_in):
            raise DimensionMismatch(
                f"input shape {rho.shape} != ({self.dim_in}, {self.dim_in})"
            )
        return _kraus_sum(self.kraus, rho)

    def compose(self, inner):
        """self after inner: Kraus products K_i L_j."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatch(
                f"cannot compose: inner output {inner.dim_out} != {self.dim_in}"
            )
        ops = self.kraus[:, None] @ inner.kraus
        return KrausChannel._trusted(inner.dim_in, self.dim_out,
                                     ops.reshape(-1, *ops.shape[2:]))

    def apply_ensemble(self, mu):
        """The output ensemble Phi(mu), each trace checked (apply_ensembles)."""
        return apply_ensembles([(self, mu)])[0]


def apply_many(pairs):
    """[chan.apply(states) for chan, states in pairs] of (k, dim_in, dim_in)
    stacks, bit for bit, from one Kraus sum per Kraus shape. The outputs are
    Hermitian and PSD by construction, but an input's trace error and the
    channel's add, so every output's trace is checked against TRACE_TOL."""
    stacks = []
    for chan, states in pairs:
        states = np.asarray(states, dtype=complex)
        if states.shape[1:] != (chan.dim_in, chan.dim_in):
            raise DimensionMismatch(
                f"input shape {states.shape} != (k, {chan.dim_in}, {chan.dim_in})")
        # copies, as concatenated broadcast views would sum in another order
        stacks.append((np.repeat(chan.kraus[None], len(states), axis=0), states))
    return _per_shape(lambda ops, rho: _check_traces(_kraus_sum(ops, rho)), stacks)


def apply_ensembles(pairs):
    """[chan.apply_ensemble(mu) for chan, mu in pairs], from one apply_many call."""
    outs = apply_many([(chan, mu.states) for chan, mu in pairs])
    return [Ensemble._trusted(c.dim_out, mu.weights, out) for (c, mu), out in zip(pairs, outs)]


def mix_channels(t, chan_a, chan_b):
    """(1-t) chan_a + t chan_b as a single Kraus channel, for t in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:  # also rejects NaN
        raise ValidationError(f"mixing weight {t} outside [0, 1]")
    if (chan_a.dim_in, chan_a.dim_out) != (chan_b.dim_in, chan_b.dim_out):
        raise DimensionMismatch("mixed channels must share dimensions")
    ops = np.concatenate([math.sqrt(1.0 - t) * chan_a.kraus, math.sqrt(t) * chan_b.kraus])
    return KrausChannel._trusted(chan_a.dim_in, chan_a.dim_out, ops)


def aoe(chan, mu):
    """Average output entropy sum_i p_i S(Phi(rho_i))."""
    return average_entropy(chan.apply_ensemble(mu))


def holevo_chis(outputs):
    """[max(S(out_avg) - AOE, 0) for out, out_avg in outputs] of output
    ensembles Phi(mu) and their Phi(avg) singletons, from one
    average_entropies call."""
    ents = average_entropies([ens for pair in outputs for ens in pair])
    return [max(s_avg - s_out, 0.0) for s_out, s_avg in zip(ents[0::2], ents[1::2])]


def holevo_chi(chan, mu):
    """Output Holevo information S(Phi(avg)) - AOE, clamped at 0 from below."""
    return holevo_chis([apply_ensembles([(chan, mu), (chan, average_singleton(mu))])])[0]


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
    return 2.0 * abs(p - q)


def mix_with_state(dim, eps, omega):
    """rho -> (1-eps) rho + eps (Tr rho) omega."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"mixing weight {eps} outside [0, 1]")
    omega = check_density(omega, dim=dim)
    ops = []
    if eps < 1.0:
        ops.append(math.sqrt(1.0 - eps) * np.eye(dim, dtype=complex)[None])
    if eps > 0.0:
        w, v = np.linalg.eigh(omega)
        keep = w > MIX_EIG_CUT
        cols = np.sqrt(eps * w[keep])[:, None] * v.T[keep]
        # operator (l, j), eigenvalue-major: sqrt(eps lam_l) col_l in column j
        stack = np.zeros((cols.shape[0], dim, dim, dim), dtype=complex)
        stack[:, np.arange(dim), :, np.arange(dim)] = cols
        ops.append(stack.reshape(-1, dim, dim))
    return KrausChannel(dim, dim, np.concatenate(ops))


# ---------------------------------------------------------------------------
# Coherent states on a truncated Fock space
# ---------------------------------------------------------------------------

def coherent_state(zeta, n_max):
    """Truncated coherent vector on levels 0..n_max (at most FOCK_CAP);
    requires |zeta|^2 <= n_max/4 so the raw tail stays below
    COHERENT_NORM_BUDGET, then renormalizes to exact unit norm."""
    zeta = complex(zeta)
    if n_max > FOCK_CAP:
        raise TruncationError(f"n_max = {n_max} exceeds FOCK_CAP = {FOCK_CAP}")
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
    log_mag = -0.5 * nbar + 0.5 * (n * math.log(nbar) - _LOG_FACTORIAL[:n.size])
    phase = np.exp(1j * n * np.angle(zeta))
    amps = np.exp(log_mag) * phase
    nrm = np.linalg.norm(amps)
    if nrm < 1.0 - COHERENT_NORM_BUDGET:
        raise TruncationError(f"truncated norm {nrm} below 1 - {COHERENT_NORM_BUDGET}")
    return amps / nrm


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


def poisson_entropy(lam):
    """Shannon entropy of Poisson(lam): lam(1 - ln lam) + e^-lam sum lam^n ln(n!)/n!.

    lam may be a scalar, giving a Python float, or an array, giving one
    entropy per entry. The series of each lam runs to n = top = lam +
    12 sqrt(lam) + 40, and a top past FOCK_CAP (lam above about 274) raises
    TruncationError.

    The ln n! terms are read from the module table _LOG_FACTORIAL, built
    once at import. An array is evaluated once per distinct lam, in blocks:
    the distinct lam are sorted, hence by top, and each block of sorted rows
    (at most _POISSON_BLOCK_CELLS terms) gets its terms from one 2-D exp at
    the block's widest top. The terms are elementwise, so a row's extra
    columns change none of its own; each row sums only its top + 1 terms.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0.0):  # also rejects NaN
        raise ValidationError(f"Poisson parameter {np.min(lam)} must be nonnegative")
    flat = lam.reshape(-1)
    out = np.zeros(flat.size)
    pos = np.flatnonzero(flat > 0.0)
    lam_s, inverse = np.unique(flat[pos], return_inverse=True)
    tops = lam_s + 12.0 * np.sqrt(lam_s) + 40.0
    if not np.all(tops < FOCK_CAP + 1):  # also rejects inf
        raise TruncationError(
            f"Poisson parameter {np.max(flat)} needs a series past n = {FOCK_CAP}"
        )
    if pos.size == 0:
        return _value(out.reshape(lam.shape))
    tops = tops.astype(int)
    log_lam = np.log(lam_s)
    n = np.arange(tops[-1] + 1)
    rows = _POISSON_BLOCK_CELLS // n.size
    series = np.empty(lam_s.size)
    for a in range(0, lam_s.size, rows):
        block = slice(a, min(a + rows, lam_s.size))
        width = tops[block.stop - 1] + 1  # the block's widest top
        log_fact = _LOG_FACTORIAL[:width]
        log_pmf = -lam_s[block, None] + n[:width] * log_lam[block, None] - log_fact
        terms = np.exp(log_pmf) * log_fact
        series[block] = np.sum(terms, axis=1, where=n[:width] <= tops[block, None])
    out[pos] = (lam_s * (1.0 - log_lam) + series)[inverse]
    return _value(out.reshape(lam.shape))
