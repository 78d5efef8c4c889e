"""Randomized bound-verification experiments, worked-number reproductions, and
tightness-witness checks.

Every experiment consumes an ExperimentConfig and returns an ExperimentResult
whose records are BoundReports; the suite-level assertion is "zero holds=False
records". Trials derive per-index seeds from the config seed, so reports are
byte-identical across runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as B
from .channels import (
    aoe,
    apply_ensembles,
    coherent_state,
    displacement_operator,
    erasure_channel,
    erasure_pair_diamond,
    holevo_chi,
    holevo_chis,
    identity_channel,
    mix_channels,
    mix_with_state,
    poisson_entropy,
)
from .energy import (
    avg_mean_energies,
    avg_passive_energies,
    avg_passive_energy,
    passive_energy,
    thermal_populations,
    truncated_passive_energies,
    truncated_passive_energy,
)
from .ensembles import (
    Ensemble,
    _mixed_toward,
    average_entropies,
    average_entropy,
    average_singleton,
    average_state,
    mix_members_toward,
    perturb_weights,
    pure_ensemble,
    singleton,
    steer_to_average,
)
from .errors import ValidationError
from .linalg import (
    _per_shape,
    binary_entropy,
    fidelity,
    g_func,
    hermitian_part,
    outer,
    shannon_entropy,
    trace_norm,
    von_neumann_entropy,
)
from .metrics import (  # d_ehs stays bound here for perfbench's tracer test
    PointMeasure,
    d0,
    d0_many,
    d_ehs,
    d_ehs_many,
    d_kantorovich_many,
    kr_distance,
    kr_modified,
)
from .randomgen import (
    derive_rng,
    gram_states,
    haar_unitaries,
    isometry_channel,
    random_ensemble,
    random_pure,
    random_pure_ensemble,
    random_state,
)


# slack added to the right-hand side of every asserted bound
TOLERANCE = 1e-8
# certified gap of every d_ehs solve
DEHS_TOL = 1e-7
# default |a - b| bound of an equality record
EQUALITY_TOL = 1e-10
# margin by which a tightness witness must strictly exceed a bound's first
# term (prop3/C1-exceeds, C2-exceeds), and its slack on the half distance eps
WITNESS_MARGIN = 1e-12
# records with a right-hand side at or below this stay out of the reported
# tightness max_lhs_over_rhs
TIGHTNESS_RHS_CUT = 1e-12
# cap of the steering records prop1a/*: the residual of the steered average,
# the slack on d0 and the purity defect of pure members, which skips members
# of weight at or below STEERING_WEIGHT_CUT
STEERING_CAP = 1e-8
STEERING_WEIGHT_CUT = 1e-12
# slack of coherent/kr-triangle on top of its closed-form cap
KR_TRIANGLE_SLACK = 1e-9
# cap of coherent/quadrature, the gap between the 32- and 64-panel rules
QUADRATURE_CAP = 1e-6
# cap of ape/passive, |E_passive(D rho D^dag) - N_0| of each displaced state
PASSIVE_CAP = 1e-6


@functools.lru_cache(maxsize=8)
def _gauss_legendre(order):
    # nodes and weights of the order-point rule on [-1, 1]; read-only because
    # every caller shares them
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one run; everything else an experiment uses is fixed."""

    seed: int = 2024
    trials: int = 100
    dims: tuple = (2, 3, 4, 5)

    def __post_init__(self):
        if not _is_int(self.seed):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        # derive_rng keeps the low 63 bits, so a seed outside would alias one inside
        if not 0 <= self.seed < 2**63:
            raise ValidationError(f"seed must lie in [0, 2^63), got {self.seed}")
        if not _is_int(self.trials) or self.trials < 1:
            raise ValidationError(f"trials must be an integer >= 1, got {self.trials!r}")
        if (not isinstance(self.dims, (list, tuple)) or not self.dims
                or not all(_is_int(d) and d >= 2 for d in self.dims)):
            raise ValidationError(
                f"dims must be a non-empty list of integers >= 2, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(self.dims))


@dataclass
class ExperimentResult:
    name: str
    records: list
    tables: dict = field(default_factory=dict)

    @property
    def violations(self):
        return [r for r in self.records if r.holds is False]

    @property
    def passed(self):
        return not self.violations


class _Recorder:
    def __init__(self, name):
        self.name = name
        self.records = []

    def add(self, tag, lhs, rhs, eps, **params):
        report = B.BoundReport(tag=tag, rhs=float(rhs), epsilon=float(eps),
                               lhs=None if lhs is None else float(lhs),
                               params=params)
        self.records.append(report)
        return report

    def add_equality(self, tag, value_a, value_b, eps, tol=EQUALITY_TOL, **params):
        """Record |a - b| <= tol as a bound (holds=False on violation)."""
        gap = abs(float(value_a) - float(value_b))
        return self.add(tag, gap, tol, eps, check="equality", **params)

    def result(self, tables=None):
        tables = dict(tables or {})
        ratios = [
            r.lhs / r.rhs
            for r in self.records
            if r.lhs is not None and r.rhs > TIGHTNESS_RHS_CUT
            and r.params.get("check") is None
        ]
        # tightness statistics are reported, never asserted
        tables["tightness"] = [{
            "records": len(self.records),
            "max_lhs_over_rhs": max(ratios) if ratios else None,
        }]
        return ExperimentResult(self.name, self.records, tables)


def _channel_trials(cfg, max_dim):
    """(i, d, phi, mu, nu, mixed, erasure) per trial: a random channel phi
    on dimension d, a random ensemble mu, and nu, mu's members mixed toward
    random states, its weights then shifted; then, each from the state they
    leave, mixed = (Psi, t), Psi = (1-t) phi + t (random channel), if i is odd
    or i % 3 == 1, and scb-rank's sorted erasure (p, q) if i % 3 == 2. The
    draw phase makes the generator calls trial by trial, in that order; the
    build phase makes one haar_unitaries call per unitary size and one
    gram_states call per state shape over all trials, and wraps each trial."""
    dims = _trial_dims(cfg, max_dim)
    drawn, channels, states = [], [], []
    for i in range(cfg.trials):
        rng = derive_rng(cfg.seed, i)
        d = dims[i % len(dims)]
        env = int(rng.integers(1, 3))
        channels.append(rng.standard_normal((1, 2, d * env, d * env)))
        n = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(n))
        states.append(rng.standard_normal((2 * n, 2, d, d)))  # mu's members, then targets
        perturb = (float(rng.uniform(0.0, 0.3)), rng.normal(size=n), float(rng.uniform(0.0, 0.15)))
        t = erasure = None
        if i % 3 == 2:
            state = rng.bit_generator.state
            erasure = tuple(float(x) for x in sorted(rng.uniform(0.0, 0.3, size=2)))
            rng.bit_generator.state = state  # mixed draws from that state too
        if i % 2 == 1 or i % 3 == 1:
            t = float(rng.uniform(0.0, 0.25))
            env = int(rng.integers(1, 3))
            channels.append(rng.standard_normal((1, 2, d * env, d * env)))
        drawn.append((i, d, weights, perturb, t, erasure))
    unitaries = iter(_per_shape(haar_unitaries, channels))
    for (i, d, weights, (s, direction, w_t), t, erasure), rhos in zip(
            drawn, _per_shape(gram_states, states)):
        phi = isometry_channel(next(unitaries)[0], d, d)
        # a copy: a view would keep the shape's whole stack, targets included
        mu = Ensemble._trusted(d, weights, rhos[:len(weights)].copy())
        nu = perturb_weights(_mixed_toward(mu, rhos[len(weights):], s), direction, w_t)
        # half the diamond distance of Psi to phi is at most t, whatever
        # channel is mixed in: a closed-form epsilon term
        mixed = None if t is None else (
            mix_channels(t, phi, isometry_channel(next(unitaries)[0], d, d)), t)
        yield i, d, phi, mu, nu, mixed, erasure


def _trial_dims(cfg, max_dim):
    return tuple(d for d in cfg.dims if d <= max_dim) or (2, 3)


class _Batch:
    """One config's kept batch: draws, the tuple of its _channel_trials, and
    dehs, the tuple of d_ehs_many values of its (mu, nu) pairs in trial order
    at DEHS_TOL. Then what verify scb-rank, scb-energy and holevo share beyond
    them, each computed on first use: d0s, and the outputs of trial i's
    channels on its ensembles, keyed by (i, channel, ensemble). The channel is
    "phi", "mixed" (the mixed-in Psi) or "erasure p" / "erasure q" (that
    erasure channel after phi); the ensemble is "mu", "nu", "avg mu" or
    "avg nu" (its average_singleton)."""

    def __init__(self, draws, dehs):
        self.draws, self.dehs = draws, dehs
        self._outputs = {}  # (i, channel, ensemble) -> output

    @functools.cached_property
    def d0s(self):
        """The d0_many values of the (mu, nu) pairs in trial order."""
        return tuple(d0_many([(mu, nu) for _, _, _, mu, nu, *_ in self.draws]))

    def _pair(self, i, chan, ens):
        _, d, phi, mu, nu, mixed, erasure = self.draws[i]
        if chan == "mixed":
            phi = mixed[0]
        elif chan != "phi":  # "erasure p" or "erasure q"
            p, q = erasure
            phi = erasure_channel(d, p if chan == "erasure p" else q).compose(phi)
        mu = mu if ens.endswith("mu") else nu
        return phi, average_singleton(mu) if ens.startswith("avg") else mu

    def outputs(self, keys):
        """The outputs of the (i, channel, ensemble) keys. Those not yet kept
        are mapped in one apply_ensembles call; all are kept, read-only, with
        the spectra the batch forms keep on them."""
        todo = [key for key in dict.fromkeys(keys) if key not in self._outputs]
        self._outputs.update(zip(todo, apply_ensembles([self._pair(*key) for key in todo])))
        return [self._outputs[key] for key in keys]


# (key, _Batch) of the last config
_batch_last = None


def _channel_batch(cfg, max_dim):
    """The config's _Batch. verify scb-rank, scb-energy and holevo draw the
    same trials at one config, so the last batch is kept, keyed by the seed,
    the trial count, the filtered dims and DEHS_TOL, of which the draws are a
    function; a miss drops it with all it holds. All it hands out is read-only."""
    global _batch_last
    key = (cfg.seed, cfg.trials, _trial_dims(cfg, max_dim), DEHS_TOL)
    if _batch_last is None or _batch_last[0] != key:
        _batch_last = None  # drop the old batch before drawing the new one
        draws = tuple(_channel_trials(cfg, max_dim))
        sols = d_ehs_many([(mu, nu) for _, _, _, mu, nu, *_ in draws], tol=DEHS_TOL)
        _batch_last = (key, _Batch(draws, tuple(float(sol.value) for sol in sols)))
    return _batch_last[1]


# ---------------------------------------------------------------------------
# Proposition 2: rank-constrained AOE semicontinuity
# ---------------------------------------------------------------------------

def verify_scb_rank(cfg):
    rec = _Recorder("scb-rank")
    batch = _channel_batch(cfg, max_dim=5)
    trials, keys = [], []
    for i, d, _, _, _, mixed, erasure in batch.draws:
        mode = i % 3
        if mode == 0:
            chans, half_norm, rank = ("phi", "phi"), 0.0, d
        elif mode == 1:
            chans, half_norm, rank = ("phi", "mixed"), mixed[1], d
        else:
            chans, rank = ("erasure p", "erasure q"), d + 1
            half_norm = 0.5 * erasure_pair_diamond(*erasure)
        trials.append((d, mode, half_norm, rank))
        keys += [(i, chans[0], "mu"), (i, chans[1], "nu")]
    aoes = average_entropies(batch.outputs(keys))
    dks = d_kantorovich_many([(mu, nu) for _, _, _, mu, nu, *_ in batch.draws])
    for (d, mode, half_norm, rank), v_ehs, v_d0, s_dk, aoe_mu, aoe_nu in zip(
            trials, batch.dehs, batch.d0s, dks, aoes[0::2], aoes[1::2]):
        lhs = aoe_mu - aoe_nu
        metrics = {"dehs": v_ehs, "d0": v_d0, "dk": s_dk.value}
        for name, dist in metrics.items():
            eps = dist + half_norm
            rec.add(f"prop2/{name}", lhs, B.scb_rank(eps, rank) + TOLERANCE,
                    eps, dim=d, rank=rank, mode=mode)
    _scb_rank_witnesses(rec)
    return rec.result()


def _scb_rank_witnesses(rec):
    # C-1: (1-eps) sigma + eps omega against a basis state sigma, omega mixed
    # off it; C-2: rho -> (1-eps) rho + eps omega against the identity on sigma
    for r_b in (2, 3, 5):
        epsilons = (0.1, 0.3, 1.0 - 1.0 / r_b)
        sigma = np.diag([1.0] + [0.0] * (r_b - 1)).astype(complex)
        omega = np.diag([0.0] + [1.0 / (r_b - 1)] * (r_b - 1)).astype(complex)
        rhos = np.array([np.diag([1.0 - eps] + [eps / (r_b - 1)] * (r_b - 1))
                         for eps in epsilons], dtype=complex)
        mu = singleton(sigma)
        s_sigma = von_neumann_entropy(sigma)
        aoe_id = aoe(identity_channel(r_b), mu)
        aoes = average_entropies(apply_ensembles(
            [(mix_with_state(r_b, eps, omega), mu) for eps in epsilons]))
        for eps, s_rho, norm, aoe_eps in zip(
                epsilons, von_neumann_entropy(rhos), trace_norm(rhos - sigma), aoes):
            rec.add_equality("prop2/C1", s_rho - s_sigma, B.scb_rank(eps, r_b), eps, rank=r_b)
            # d0(singleton(rho), singleton(sigma))
            rec.add_equality("prop2/C1-metric", 0.5 * float(norm), eps, eps, rank=r_b)
            rec.add_equality("prop2/C2", aoe_eps - aoe_id, B.scb_rank(eps, r_b),
                             eps, rank=r_b)


# ---------------------------------------------------------------------------
# Proposition 3: energy-constrained AOE semicontinuity
# ---------------------------------------------------------------------------

def verify_scb_energy(cfg):
    rec = _Recorder("scb-energy")
    batch = _channel_batch(cfg, max_dim=6)
    draws, dehs, d0s = batch.draws, batch.dehs, batch.d0s
    half_norms, keys = [], []
    for i, _, _, _, _, mixed, _ in draws:
        psi, half_norm = ("phi", 0.0) if i % 2 == 0 else ("mixed", mixed[1])
        half_norms.append(half_norm)
        keys += [(i, "phi", "mu"), (i, psi, "nu"), (i, "phi", "avg mu")]
    outs = batch.outputs(keys)
    aoes = average_entropies(outs[0::3] + outs[1::3])
    e_cuts = iter(truncated_passive_energies([
        (out, v_d0 + half_norm) for out, v_d0, half_norm in zip(outs[0::3], d0s, half_norms)
        if v_d0 + half_norm > 0.0]))
    for (_, d, *_), v_ehs, v_d0, half_norm, aoe_mu, aoe_nu, e_b, e_b2 in zip(
            draws, dehs, d0s, half_norms, aoes, aoes[len(draws):],
            avg_passive_energies(outs[0::3]), avg_mean_energies(outs[2::3])):
        lhs = aoe_mu - aoe_nu
        eps_ehs, eps_d0 = v_ehs + half_norm, v_d0 + half_norm
        if eps_ehs > 0.0:
            rec.add("prop3/dehs", lhs, B.scb_energy(eps_ehs, e_b) + TOLERANCE,
                    eps_ehs, dim=d, e_b=e_b)
            rec.add("prop3/B2", lhs, B.scb_energy(eps_ehs, e_b2) + TOLERANCE,
                    eps_ehs, dim=d, e_b=e_b2)
            # B-2 is the weaker bound: E_B <= Tr H Phi(avg)
            rec.add("prop3/B2-dominates", B.scb_energy(eps_ehs, e_b),
                    B.scb_energy(eps_ehs, e_b2) + TOLERANCE, eps_ehs, dim=d)
        if eps_d0 > 0.0:
            e_cut = next(e_cuts)
            refined = B.scb_energy(eps_d0, max(e_b - e_cut, 0.0))
            plain = B.scb_energy(eps_d0, e_b)
            rec.add("prop3/refined", lhs, refined + TOLERANCE, eps_d0,
                    dim=d, e_cut=e_cut)
            rec.add("prop3/refined-le-plain", refined, plain + TOLERANCE,
                    eps_d0, dim=d)
    _scb_energy_witnesses(rec)
    return rec.result()


def _scb_energy_witnesses(rec):
    for eps, energy in ((0.1, 1.0), (0.25, 0.5), (0.5, 2.0)):
        # populations of the witness eps gamma + (1 - eps)|0><0|, diagonal in Fock space
        pops = eps * thermal_populations(energy / eps)
        pops[0] += 1.0 - eps
        lhs = shannon_entropy(np.sort(pops))
        floor = eps * g_func(energy / eps)
        cap = B.scb_energy(eps, energy)
        # 3C-1: strict exceedance of the first term, within the full bound
        rec.add("prop3/C1-exceeds", floor + WITNESS_MARGIN, lhs, eps, energy=energy,
                check="strict-exceedance")
        rec.add("prop3/C1-within", lhs, cap + TOLERANCE, eps, energy=energy)
        rec.add_equality("prop3/C1-energy", np.arange(pops.size) @ pops,
                         energy, eps, tol=1e-8)
        # 3C-2: the same output reached by the mixing channel (1-eps) id + eps
        # (gamma Tr); its half-diamond distance to the identity is <= eps, so
        # the same exceedance/cap pair applies with the channel perturbed
        # instead of the ensemble. Evaluated in closed form (the mixed output
        # is the witness above); a small-dimension Kraus instance of the same
        # channel family is exercised in verify_scb_rank's C-2 witness.
        diff = pops.copy()
        diff[0] -= 1.0
        dist = 0.5 * float(np.sum(np.abs(np.sort(diff))))
        rec.add("prop3/C2-halfdist", dist, eps + WITNESS_MARGIN, eps, energy=energy)
        rec.add("prop3/C2-exceeds", floor + WITNESS_MARGIN, lhs, eps, energy=energy,
                check="strict-exceedance")
        rec.add("prop3/C2-within", lhs, cap + TOLERANCE, eps, energy=energy)


# ---------------------------------------------------------------------------
# Proposition 4 / Corollary 2: Holevo information
# ---------------------------------------------------------------------------

def verify_holevo(cfg):
    rec = _Recorder("holevo")
    batch = _channel_batch(cfg, max_dim=5)
    trials, keys = [], []
    for (i, d, _, _, _, mixed, _), dist in zip(batch.draws, batch.dehs):
        psi, half_norm = ("phi", 0.0) if i % 2 == 0 else ("mixed", mixed[1])
        eps = min(dist + half_norm, 1.0)
        if eps <= 0.0:
            continue
        trials.append((i, d, eps))
        keys += [(i, "phi", "mu"), (i, psi, "nu"), (i, "phi", "avg mu"), (i, psi, "avg nu")]
    outs = batch.outputs(keys)  # Phi(mu), Psi(nu), Phi(avg mu), Psi(avg nu) per trial
    chis = holevo_chis([*zip(outs[0::4], outs[2::4]), *zip(outs[1::4], outs[3::4])])
    energies = avg_mean_energies(outs[2::4] + outs[3::4])
    for (i, d, eps), chi_mu, chi_nu, e_nu_psv, e_mu, e_nu_avg in zip(
            trials, chis, chis[len(trials):], avg_passive_energies(outs[1::4]),
            energies, energies[len(trials):]):
        # holevo_chi(phi, mu) - holevo_chi(psi_chan, nu)
        lhs = chi_mu - chi_nu
        case_a = (B.RankConstraint(d), B.EnergyConstraint(e_mu))
        case_b = (B.RankConstraint(d), B.EnergyConstraint(e_nu_psv))
        combo = i % 4
        a_i = case_a[combo // 2]
        b_j = case_b[combo % 2]
        rhs = B.scb_holevo(eps, a_i, b_j)
        rec.add(f"prop4/case{combo // 2 + 1}{combo % 2 + 1}", lhs,
                rhs + TOLERANCE, eps, dim=d)

        # Corollary 2 two-sided variants with symmetric constraints
        rec.add("cor2a/abs", abs(lhs), B.cb_holevo_rank(eps, d, d) + TOLERANCE,
                eps, dim=d)
        rec.add("cor2b/abs", abs(lhs),
                B.cb_holevo_energy(eps, e_mu, e_nu_avg) + TOLERANCE,
                eps, dim=d)
    return rec.result()


# ---------------------------------------------------------------------------
# Steering (openness of the barycenter map)
# ---------------------------------------------------------------------------

def verify_steering(cfg):
    rec = _Recorder("steering")
    dims = [d for d in cfg.dims if d <= 3] or [2, 3]
    for i in range(cfg.trials):
        rng = derive_rng(cfg.seed, i)
        d = dims[i % len(dims)]
        pure_case = i % 2 == 1
        if pure_case:
            mu = random_pure_ensemble(d, int(rng.integers(d, d + 3)), rng)
        else:
            mu = random_ensemble(d, int(rng.integers(1, 4)), rng)
        t = float(rng.uniform(0.05, 0.5))
        sigma = (1.0 - t) * average_state(mu) + t * random_state(d, d, rng)
        nu, mu_prime = steer_to_average(mu, sigma)

        resid = trace_norm(average_state(nu) - sigma)
        rec.add("prop1a/average", resid, STEERING_CAP, t, dim=d, pure=pure_case)
        delta = math.sqrt(max(1.0 - fidelity(average_state(mu), sigma), 0.0))
        rec.add("prop1a/d0", d0(mu_prime, nu), delta + STEERING_CAP, delta, dim=d,
                pure=pure_case)
        if pure_case:
            live = nu.states[nu.weights > STEERING_WEIGHT_CUT]
            worst = np.min(np.linalg.eigvalsh(live)[:, -1])
            rec.add("prop1a/purity", 1.0 - worst, STEERING_CAP, delta, dim=d)
    return rec.result()


# ---------------------------------------------------------------------------
# Lemmas on q-c conditional entropy
# ---------------------------------------------------------------------------

def verify_lemmas(cfg):
    rec = _Recorder("lemmas")
    dims = [d for d in cfg.dims if d <= 6] or [4, 6]
    for i in range(cfg.trials):
        rng = derive_rng(cfg.seed, i)
        d = max(dims[i % len(dims)], 3)
        r = int(rng.integers(2, d))
        n = int(rng.integers(1, 4))
        mu = random_ensemble(d, n, rng, rank=r)
        nu = random_ensemble(d, n, rng)
        lhs = average_entropy(mu) - average_entropy(nu)
        eps = d0(mu, nu)
        rec.add("lemma3/rank", lhs, B.scb_rank(eps, r) + TOLERANCE, eps,
                dim=d, rank=r)

        energy = avg_passive_energy(mu)
        if eps > 0.0:
            e_cut = truncated_passive_energy(mu, eps)
            refined = B.scb_energy(eps, max(energy - e_cut, 0.0))
            plain = B.scb_energy(eps, energy)
            rec.add("lemma4/refined", lhs, refined + TOLERANCE, eps, dim=d)
            rec.add("lemma4/chain", refined, plain + TOLERANCE, eps, dim=d)

        if i % 5 == 0:
            # branch coverage: nearly orthogonal sides push eps past 1 - 1/r
            half = d // 2
            vecs_a = [random_pure(half, rng) for _ in range(2)]
            vecs_b = [random_pure(d - half, rng) for _ in range(2)]
            pad_a = [np.concatenate([v, np.zeros(d - half)]) for v in vecs_a]
            pad_b = [np.concatenate([np.zeros(half), v]) for v in vecs_b]
            mu2 = pure_ensemble(pad_a)
            nu2 = pure_ensemble(pad_b)
            eps2 = d0(mu2, nu2)
            rec.add("lemma3/branch", 0.0, B.scb_rank(eps2, 2) + TOLERANCE,
                    eps2, dim=d, branch=eps2 > 0.5)
        if i % 7 == 0:
            # sign case: pure blocks against maximally mixed blocks make the
            # entropy difference strongly negative, trivially inside the bound
            mu3 = random_pure_ensemble(d, 2, rng)
            mixed = np.eye(d, dtype=complex) / d
            nu3 = Ensemble(d, mu3.weights.copy(), (mixed, mixed))
            lhs3 = -math.log(d)
            eps3 = d0(mu3, nu3)
            rec.add("lemma3/sign-case", lhs3, B.scb_rank(eps3, 2) + TOLERANCE,
                    eps3, dim=d, negative_lhs=True)
    return rec.result()


# ---------------------------------------------------------------------------
# Entanglement of formation witnesses
# ---------------------------------------------------------------------------

def eof_witness_values(rank, delta):
    """Exact EoF drop and its fidelity-form cap on the tilted-vector family.

    Family: theta_p = sqrt(1-p) phi + sqrt(p) alpha x beta with phi maximally
    entangled of Schmidt rank `rank` and alpha, beta orthogonal to its
    marginal supports; rho, sigma are theta at p = 1/2 - delta and 1/2.
    """
    if not 0.0 < delta < 0.5:
        raise ValidationError("delta must lie in (0, 1/2)")
    lhs = delta * math.log(rank) + binary_entropy(0.5 + delta) - binary_entropy(0.5)
    overlap = math.sqrt((0.5 + delta) * 0.5) + math.sqrt((0.5 - delta) * 0.5)
    fid = overlap**2
    rhs = B.eof_scb_fid(fid, rank + 1)
    return lhs, rhs, fid


def _eof_witness_grid(rec, with_fidelity):
    """Record prop8/witness for every (rank, delta); returns the table rows
    keyed by (rank, delta)."""
    rows = {}
    for rank in (4, 16, 64):
        for delta in (0.01, 0.05):
            lhs, rhs, fid = eof_witness_values(rank, delta)
            extra = {"fidelity": fid} if with_fidelity else {}
            rec.add("prop8/witness", lhs, rhs + TOLERANCE, delta, rank=rank, **extra)
            rows[rank, delta] = {"rank": rank, "delta": delta, "lhs": lhs, "rhs": rhs,
                                 "ratio": lhs / rhs}
    return rows


def verify_eof(cfg):
    rec = _Recorder("eof")
    rows = _eof_witness_grid(rec, with_fidelity=True)
    for delta in (0.01, 0.05):
        rec.add("prop8/ratio-trend", rows[4, delta]["ratio"],
                rows[64, delta]["ratio"], delta, check="ratio grows with rank")
    # Stated tightness threshold at (r=64, delta=0.01); see the repro table.
    rec.add("prop8/ratio-0.8", 0.8, rows[64, 0.01]["ratio"], 0.01,
            check="lhs/rhs exceeds 0.8")

    # Corollary 3 sanity: pure states against a product reference
    for rank in (3, 4):
        lam = np.full(rank, 0.1 / (rank - 1))
        lam[0] = 0.9
        schmidt = np.sqrt(lam)
        theta = np.zeros((rank, rank), dtype=complex)
        for k in range(rank):
            theta[k, k] = schmidt[k]
        rho = outer(theta.reshape(-1))
        sigma0 = np.zeros_like(rho)
        sigma0[0, 0] = 1.0
        delta_f = math.sqrt(max(1.0 - fidelity(rho, sigma0), 0.0))
        e_f = von_neumann_entropy(np.diag(lam).astype(complex))
        rec.add("cor3/pure", e_f,
                B.eof_upper_sep(delta_f, rank) + TOLERANCE, delta_f, rank=rank)
        # separable pure state: E_F = 0 <= any admissible cap
        rec.add("cor3/separable", 0.0, B.eof_upper_sep(0.0, rank), 0.0, rank=rank)
    return rec.result()


# ---------------------------------------------------------------------------
# Crossover table (reproduction)
# ---------------------------------------------------------------------------

REPORTED_CROSSOVER_BANDS = {2: (0.0, 0.0), 3: (0.10, 0.12), 4: (0.44, 0.46),
                         5: (0.54, 0.56)}


def repro_crossover(cfg):
    rec = _Recorder("crossover")
    rows = []
    for d in range(2, 21):
        eps_d = B.crossover_eps(d)
        rows.append({"d": d, "v": B.v_func(d),
                     "crossover_eps": "" if eps_d is None else eps_d})
        if d >= 18:
            rec.add("crossover/none", 0.0 if eps_d is None else 1.0, 0.0, 0.0, d=d)
        elif d in REPORTED_CROSSOVER_BANDS:
            lo, hi = REPORTED_CROSSOVER_BANDS[d]
            rec.add("crossover/band-lo", lo, eps_d, eps_d, d=d)
            rec.add("crossover/band-hi", eps_d, hi, eps_d, d=d)
    rec.add_equality("crossover/u1", B.u_func(1.0), 16.0, 1.0, tol=1e-12)
    rec.add_equality("crossover/v18", B.v_func(18), 289.0 / 18.0, 0.0, tol=1e-12)
    return rec.result(tables={"crossover": rows})


# ---------------------------------------------------------------------------
# Erasure sandwich (reproduction)
# ---------------------------------------------------------------------------

def repro_erasure(cfg):
    rec = _Recorder("erasure")
    rows = []
    grid = (0.02, 0.05)
    for r in (4, 8, 16):
        basis = np.eye(r, dtype=complex)
        mu = pure_ensemble([basis[:, k] for k in range(r)])
        sigma = outer(basis[:, 0])
        for p in grid:
            for eps in grid:
                nu = mix_members_toward(mu, [sigma] * r, eps)
                phi = erasure_channel(r, 0.0)
                psi_chan = erasure_channel(r, p)
                lhs = holevo_chi(phi, mu) - holevo_chi(psi_chan, nu)
                eps_tot = p + eps
                upper = B.scb_holevo(eps_tot, B.RankConstraint(r),
                                     B.RankConstraint(3))
                closed = (eps_tot * math.log(2 * (r - 1))
                          + 2.0 * binary_entropy(eps_tot))
                lower = (p + eps - p * eps) * math.log(r) - (1 - p) * binary_entropy(eps)
                rec.add("example6/upper", lhs, upper + TOLERANCE, eps_tot,
                        r=r, p=p, eps_state=eps)
                rec.add("example6/lower", lower, lhs + TOLERANCE, eps_tot,
                        r=r, p=p, eps_state=eps)
                rec.add_equality("example6/closed-form", upper, closed, eps_tot)
                rows.append({"r": r, "p": p, "eps": eps, "chi_gap": lhs,
                             "lower": lower, "upper": upper})
    return rec.result(tables={"erasure": rows})


# ---------------------------------------------------------------------------
# Coherent-ensemble discretization (reproduction)
# ---------------------------------------------------------------------------

def _dephased_coherent_aoe(n_mean, panels):
    """(1/N) integral of H_P(s) e^(-s/N) ds over [0, 45] by composite
    32-point Gauss-Legendre."""
    xs, ws = _gauss_legendre(32)
    edges = np.linspace(0.0, 45.0, panels + 1)
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + halves[:, None] * xs
    terms = halves[:, None] * ws * poisson_entropy(nodes) * np.exp(-nodes / n_mean)
    return float(np.sum(terms / n_mean))


def gaussian_grid_measure(n_mean, delta, half_cells):
    """Delta-discretization of the Gaussian measure: cell masses from 1-D
    normal CDF products (variance N/2 per coordinate), cell-center atoms;
    the CDF is Phi(x) = erfc(-x / sqrt 2) / 2."""
    sigma = math.sqrt(n_mean / 2.0)
    ks = np.arange(-half_cells, half_cells)
    edges = (delta * np.arange(-half_cells, half_cells + 1) / sigma).tolist()
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in edges])
    mass_1d = cdf[1:] - cdf[:-1]
    centers = delta * (ks + 0.5)
    cx, cy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([cx.ravel(), cy.ravel()])
    wts = np.outer(mass_1d, mass_1d).ravel()
    return pts, wts / np.sum(wts)


def _discretized_aoe(n_mean, delta, half_cells):
    pts, wts = gaussian_grid_measure(n_mean, delta, half_cells)
    s_vals = np.sum(pts**2, axis=1)
    return float(np.sum(wts * poisson_entropy(s_vals)))


def _subsampled_measure(pts, wts, radius):
    keep = np.sum(pts**2, axis=1) <= radius**2
    removed = float(np.sum(wts[~keep]))
    w = wts[keep] / np.sum(wts[keep])
    return PointMeasure(points=pts[keep], weights=w), removed


def _coherent_ensemble(weights, points, n_max):
    # the coherent projectors |x + iy><x + iy| at a probability vector of
    # weights, valid by construction; np.outer of a complex vector need not
    # be exactly Hermitian, which the trusted constructor requires
    states = np.stack([outer(coherent_state(complex(x, y), n_max)) for x, y in points])
    return Ensemble._trusted(n_max + 1, weights, hermitian_part(states))


def repro_coherent_discretization(cfg):
    rec = _Recorder("coherent")
    n_mean = 1.0
    deltas = (0.5, 0.25)
    rows = []

    base = _dephased_coherent_aoe(n_mean, panels=32)
    refined = _dephased_coherent_aoe(n_mean, panels=64)
    rec.add("coherent/quadrature", abs(base - refined), QUADRATURE_CAP, 0.0,
            check="self-convergence")
    aoe_cont = refined

    gaps = {}
    for delta in deltas:
        half_cells = int(math.ceil(6.0 * math.sqrt(n_mean / 2.0) / delta))
        aoe_disc = _discretized_aoe(n_mean, delta, half_cells)
        loss_cap, gain_cap = B.discretization_bounds(delta, n_mean)
        rec.add("coherent/loss", aoe_cont - aoe_disc, loss_cap + TOLERANCE,
                delta, n_mean=n_mean)
        rec.add("coherent/gain", aoe_disc - aoe_cont, gain_cap + TOLERANCE,
                delta, n_mean=n_mean)
        gaps[delta] = abs(aoe_cont - aoe_disc)
        rows.append({"delta": delta, "aoe_continuous": aoe_cont,
                     "aoe_discretized": aoe_disc, "loss_cap": loss_cap,
                     "gain_cap": gain_cap})

    ds = sorted(deltas)
    for fine, coarse in zip(ds[:-1], ds[1:]):
        rec.add("coherent/monotone-gap", gaps[fine], gaps[coarse] + TOLERANCE,
                fine, coarse=coarse)

    # KR distance between successive discretizations, on subsampled supports
    delta = max(deltas)
    half = int(math.ceil(6.0 * math.sqrt(n_mean / 2.0) / delta))
    pts_a, wts_a = gaussian_grid_measure(n_mean, delta, half)
    pts_b, wts_b = gaussian_grid_measure(n_mean, delta / 2.0, 2 * half)
    radius = math.sqrt(n_mean * math.log(1000.0))
    pm_a, rem_a = _subsampled_measure(pts_a, wts_a, radius)
    pm_b, rem_b = _subsampled_measure(pts_b, wts_b, radius)
    dist = kr_distance(pm_a, pm_b)
    cap = delta / math.sqrt(2.0) + delta / (2.0 * math.sqrt(2.0))
    rec.add("coherent/kr-triangle", dist, cap + 3.0 * (rem_a + rem_b) + KR_TRIANGLE_SLACK,
            delta, removed_a=rem_a, removed_b=rem_b)

    # Lipschitz transfer: coherent map has constant 2, so D_K <= D*_KR
    rng = derive_rng(cfg.seed, 7)
    n_max = 40
    cases = [(rng.uniform(-1.5, 1.5, size=(3, 2)), rng.uniform(-1.5, 1.5, size=(3, 2)),
              rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))) for _ in range(3)]
    # the three D_K as one three-block transport LP
    dks = d_kantorovich_many([
        (_coherent_ensemble(w1, pts1, n_max), _coherent_ensemble(w2, pts2, n_max))
        for pts1, pts2, w1, w2 in cases
    ])
    for k, ((pts1, pts2, w1, w2), dk) in enumerate(zip(cases, dks)):
        kr = kr_modified(PointMeasure(points=pts1, weights=w1),
                         PointMeasure(points=pts2, weights=w2))
        rec.add("lemma9/transfer", dk.value, kr + TOLERANCE, 0.0, case=k)
    return rec.result(tables={"coherent": rows})


# ---------------------------------------------------------------------------
# EoF witness table and displaced-Gibbs reproduction
# ---------------------------------------------------------------------------

def repro_eof_witness(cfg):
    rec = _Recorder("eof-witness")
    rows = _eof_witness_grid(rec, with_fidelity=False)
    rec.add("prop8/ratio-0.8", 0.8, rows[64, 0.01]["ratio"], 0.01,
            check="lhs/rhs exceeds 0.8")
    return rec.result(tables={"eof_witness": list(rows.values())})


def _displaced(g, zeta, n_max):
    # D(zeta) diag(g) D(zeta)^dag, the diagonal applied as a column scaling
    d_op = displacement_operator(zeta, n_max)
    return (d_op * g) @ d_op.conj().T


def _displaced_gibbs_average(g, n_max, radial, angular, r_hi, n_mean):
    """Unit-trace Gaussian average of D(zeta) diag(g) D(zeta)^dag over a radial
    x angular polar grid on |zeta| <= r_hi, and the weight the grid captures.

    D(r e^(i phi)) = e^(i phi N) D(r) e^(-i phi N) and diag(g) commutes with
    e^(i phi N), so the mean over the angles 2 pi k / angular is the phi = 0
    state with every entry (m, n) zeroed where angular does not divide m - n.
    """
    xs, ws = _gauss_legendre(radial)
    avg = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    total_w = 0.0
    for x, w in zip(xs, ws):
        r = 0.5 * r_hi * (x + 1.0)
        wr = 0.5 * r_hi * w * (2.0 * r / n_mean) * math.exp(-r * r / n_mean)
        avg += wr * _displaced(g, r, n_max)
        total_w += wr
    level = np.arange(n_max + 1)
    avg[(level[:, None] - level) % angular != 0] = 0.0
    return avg / np.trace(avg).real, total_w


def repro_gibbs_displaced(cfg):
    """Displaced-Gibbs ensemble: passive energies stay at N_0; the quadrature
    average approaches the Gibbs state at N + N_0 (error reported, not asserted)."""
    rec = _Recorder("gibbs-displaced")
    n0, n_mean, n_max = 0.5, 0.4, 48
    g = thermal_populations(n0, levels=n_max + 1)

    for mag in (0.5, 1.0, 1.5, 2.0):
        rho = _displaced(g, mag, n_max)
        rho = rho / np.trace(rho).real
        rec.add("ape/passive", abs(passive_energy(rho) - n0), PASSIVE_CAP, mag,
                n0=n0)

    # polar quadrature of the average state against gamma(N + N_0)
    avg, total_w = _displaced_gibbs_average(
        g, n_max, radial=20, angular=16, r_hi=math.sqrt(n_mean) * 4.0, n_mean=n_mean)
    target = np.diag(thermal_populations(n_mean + n0, levels=n_max + 1))
    err = trace_norm(avg - target)
    rec.add("ape/average-state", None, err, n_mean, captured_weight=total_w,
            note="truncation error reported, not asserted")
    return rec.result(tables={"gibbs_displaced": [
        {"n0": n0, "n_mean": n_mean, "trace_error": err, "captured": total_w}
    ]})


EXPERIMENTS = {
    "scb-rank": verify_scb_rank,
    "scb-energy": verify_scb_energy,
    "holevo": verify_holevo,
    "steering": verify_steering,
    "lemmas": verify_lemmas,
    "eof": verify_eof,
}

REPROS = {
    "crossover": repro_crossover,
    "erasure": repro_erasure,
    "coherent": repro_coherent_discretization,
    "eof-witness": repro_eof_witness,
    "gibbs-displaced": repro_gibbs_displaced,
}
