import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from qensembles import ValidationError
from qensembles import bounds as B
from qensembles import channels
from qensembles import experiments
from qensembles import serialize as ser
from qensembles.cli import main
from qensembles.channels import (
    KrausChannel,
    aoe,
    coherent_state,
    erasure_channel,
    erasure_pair_diamond,
    holevo_chi,
    identity_channel,
    mix_with_state,
    poisson_entropy,
)
from qensembles.energy import (
    avg_passive_energy,
    mean_energy,
    thermal_populations,
    truncated_passive_energy,
)
from qensembles.ensembles import Ensemble, average_state, singleton
from qensembles.linalg import g_func, outer, trace_norm, von_neumann_entropy
from qensembles.metrics import d0, d_ehs_many, d_kantorovich_many
from qensembles.randomgen import derive_rng, random_ensemble
from qensembles.experiments import (
    DEHS_TOL,
    EXPERIMENTS,
    REPROS,
    TOLERANCE,
    ExperimentConfig,
    _displaced_gibbs_average,
    eof_witness_values,
    gaussian_grid_measure,
    verify_scb_rank,
)

from conftest import fresh_python
from oracles import coherent_dk_full, displaced_average_bruteforce, near_fsum, per_trial_draw

# Assertions that pin reported approximations contradicting the governing
# equations asserted next to them (see README); red by design, excluded from
# the "no violations" sweeps.
KNOWN_RED = {"prop8/ratio-0.8", "crossover/band-lo", "crossover/band-hi"}


def small_cfg(**kw):
    base = dict(seed=11, trials=8, dims=(2, 3))
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiments_hold(name):
    res = EXPERIMENTS[name](small_cfg())
    unexpected = [r for r in res.violations if r.tag not in KNOWN_RED]
    assert not unexpected, [
        (r.tag, r.lhs, r.rhs) for r in unexpected
    ]


@pytest.mark.parametrize("name", sorted(REPROS))
def test_repros_hold(name):
    res = REPROS[name](small_cfg())
    unexpected = [r for r in res.violations if r.tag not in KNOWN_RED]
    assert not unexpected, [
        (r.tag, r.lhs, r.rhs) for r in unexpected
    ]


def test_known_red_assertions_are_present():
    res = REPROS["crossover"](small_cfg())
    red = {r.tag for r in res.violations}
    assert red == {"crossover/band-lo", "crossover/band-hi"}
    res2 = EXPERIMENTS["eof"](small_cfg())
    assert {r.tag for r in res2.violations} == {"prop8/ratio-0.8"}


def test_reports_are_reproducible_bytes():
    cfg = small_cfg(trials=5)
    a = ser.reports_to_json(verify_scb_rank(cfg).records)
    b = ser.reports_to_json(verify_scb_rank(cfg).records)
    assert a == b
    csv_a = ser.reports_to_csv(verify_scb_rank(cfg).records)
    csv_b = ser.reports_to_csv(verify_scb_rank(cfg).records)
    assert csv_a == csv_b


def test_seed_changes_reports():
    a = ser.reports_to_json(verify_scb_rank(small_cfg(trials=5)).records)
    b = ser.reports_to_json(verify_scb_rank(small_cfg(trials=5, seed=12)).records)
    assert a != b


def test_generators_bit_identical_for_fixed_seed():
    mu1 = random_ensemble(3, 3, derive_rng(42, 5))
    mu2 = random_ensemble(3, 3, derive_rng(42, 5))
    assert np.array_equal(mu1.weights, mu2.weights)
    for a, b in zip(mu1.states, mu2.states):
        assert np.array_equal(a, b)


def test_tightness_statistics_reported():
    res = verify_scb_rank(small_cfg(trials=4))
    stats = res.tables["tightness"][0]
    assert stats["records"] == len(res.records)
    # lhs may be negative, so the ratio has no lower bound; holding records
    # keep it at most 1 (up to the assertion slack)
    assert stats["max_lhs_over_rhs"] <= 1.0 + 1e-8


def test_example7_gap_inside_cap():
    # Coherent against smeared ensembles through the identity: the Holevo gap
    # chi(mu) - chi(nu) is the average entropy of nu's members
    # (1 - eps)|z><z| + eps gamma(N), integrated radially against the Gaussian
    # weight by Gauss-Legendre; it stays inside the energy-case cap
    n_mean, n_max = 1.0, 60
    gibbs = np.diag(thermal_populations(n_mean, levels=n_max + 1))
    s_hi = n_max / 4.0
    xs, ws = np.polynomial.legendre.leggauss(64)
    for eps in (0.1, 0.25):
        gap = 0.0
        for s, w in zip(0.5 * s_hi * (xs + 1.0), 0.5 * s_hi * ws):
            state = (1.0 - eps) * outer(coherent_state(math.sqrt(s), n_max)) + eps * gibbs
            gap += w * von_neumann_entropy(state) * math.exp(-s / n_mean) / n_mean
        cap = eps * (g_func(n_mean / eps) + g_func(2.0 * n_mean)) + 2.0 * g_func(eps)
        assert 0.0 <= gap <= cap


def test_energy_witnesses_match_the_dense_states():
    # the scb-energy witnesses, read off their populations, give the fields
    # that the dense states eps gamma + (1 - eps)|0><0| give, bit for bit; the
    # mean energy S behind the record |S - E| lies within a few eps of the
    # exact sum of the level terms (S - E is exact, S being within a factor 2
    # of E, and S is taken on the side of E where the exact sum lies)
    records = EXPERIMENTS["scb-energy"](small_cfg(trials=1)).records
    fields = {(r.tag, r.epsilon): r.lhs for r in records}
    for eps, energy in ((0.1, 1.0), (0.25, 0.5), (0.5, 2.0)):
        gibbs = np.diag(thermal_populations(energy / eps)).astype(complex)
        tau0 = np.zeros_like(gibbs)
        tau0[0, 0] = 1.0
        rho = eps * gibbs + (1.0 - eps) * tau0
        levels = np.arange(rho.shape[0], dtype=float)
        assert fields["prop3/C1-within", eps] == von_neumann_entropy(rho)
        terms = levels * rho.diagonal().real
        gap = math.copysign(fields["prop3/C1-energy", eps], math.fsum(terms) - energy)
        assert near_fsum(energy + gap, terms)
        assert fields["prop3/C2-halfdist", eps] == 0.5 * trace_norm(rho - tau0)


@pytest.mark.parametrize("angular, radial", [(8, 20), (16, 20), (8, 1), (16, 1)],
                         ids=["8", "16", "8-one-radius", "16-one-radius"])
def test_displaced_gibbs_average_matches_every_node(angular, radial):
    # the closed-form radial sum against every node's D(zeta) gamma(N_0)
    # D(zeta)^dag, each D from expm (one radial node: U diag(w) U^dag of rank
    # one); the captured weight is the per-radius weights' sum in node order
    n0, n_mean, n_max = 0.5, 0.4, 48
    g = thermal_populations(n0, levels=n_max + 1)
    args = (g, n_max, radial, angular, 4.0 * math.sqrt(n_mean), n_mean)
    avg, total_w = _displaced_gibbs_average(*args)
    ref, radial_weights = displaced_average_bruteforce(*args)
    assert np.max(np.abs(avg - ref)) <= 1e-13
    assert total_w == list(itertools.accumulate(radial_weights))[-1]


@pytest.mark.parametrize("panels", [32, 64])
def test_dephased_coherent_aoe_equals_the_node_loop(panels):
    # composite 32-point Gauss-Legendre over [0, 45], one node at a time
    n_mean = 1.0
    xs, ws = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, 45.0, panels + 1)
    terms = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for x, w in zip(xs, ws):
            s = mid + half * x
            terms.append(half * w * poisson_entropy(s) * math.exp(-s / n_mean) / n_mean)
    assert near_fsum(experiments._dephased_coherent_aoe(n_mean, panels), terms)


def test_coherent_run_solves_the_lemma9_pairs_as_one_lp(monkeypatch):
    # one model for the KR grids, one for the three D_K and one per kr_modified;
    # each lemma9/transfer lhs is, bit for bit, its block of the three-block
    # LP on the closed-form costs, and within 1e-12 of D_K on the full states
    from qensembles import metrics

    built = []
    init = metrics._HighsModel.__init__

    def counting_init(self, b_eq):
        built.append(b_eq.size)
        init(self, b_eq)

    monkeypatch.setattr(metrics._HighsModel, "__init__", counting_init)
    for seed in range(7000, 7010):
        built.clear()
        records = REPROS["coherent"](ExperimentConfig(seed=seed, trials=30)).records
        assert len(built) == 5 and built[1] == 18  # the three 3 x 3 blocks' marginals
        rng = derive_rng(seed, 7)
        cases = [(rng.uniform(-1.5, 1.5, size=(3, 2)), rng.uniform(-1.5, 1.5, size=(3, 2)),
                  rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))) for _ in range(3)]
        lhs = [r.lhs for r in records if r.tag == "lemma9/transfer"]
        assert [r.params["case"] for r in records if r.tag == "lemma9/transfer"] == [0, 1, 2]
        sols = metrics._solve_transports([
            (experiments._coherent_trace_distances(pts1, pts2, 40), w1, w2)
            for pts1, pts2, w1, w2 in cases
        ])
        assert lhs == [sol.value for sol in sols]
        for value, (pts1, pts2, w1, w2) in zip(lhs, cases):
            assert abs(value - coherent_dk_full(pts1, w1, pts2, w2)[0]) <= 1e-12


def test_coherent_trace_distances_match_the_full_states():
    rng = derive_rng(3, 0)
    for _ in range(20):
        pts1, pts2 = rng.uniform(-1.5, 1.5, size=(3, 2)), rng.uniform(-1.5, 1.5, size=(4, 2))
        cost = experiments._coherent_trace_distances(pts1, pts2, 40)
        _, ref = coherent_dk_full(pts1, np.ones(3) / 3, pts2, np.ones(4) / 4)
        assert cost.shape == (3, 4) and np.max(np.abs(cost - ref)) <= 1e-12
        # against the untruncated overlap |<alpha|beta>|^2 = e^(-|alpha - beta|^2)
        sq = np.sum((pts1[:, None] - pts2[None]) ** 2, axis=-1)
        assert np.max(np.abs(cost - np.sqrt(-np.expm1(-sq)))) <= 1e-9


def test_coherent_trace_distance_of_coincident_points_is_exactly_zero():
    # 1 - |<a|a>|^2 rounds to either side of 0; the product form gives 0.0
    pts = derive_rng(5, 0).uniform(-1.5, 1.5, size=(200, 2))
    cost = experiments._coherent_trace_distances(pts[:, None], pts[:, None], 40)
    assert cost.shape == (200, 1, 1) and np.all(cost == 0.0)


@pytest.mark.parametrize("a, b", [((3.0, 0.0), (-3.0, 0.0)), ((0.0, 3.1), (0.0, -3.1)),
                                  ((-2.2, -2.2), (2.2, 2.2))])
def test_coherent_trace_distance_of_far_points_is_one(a, b):
    cost = experiments._coherent_trace_distances(np.array([a]), np.array([b]), 40)
    assert abs(cost[0, 0] - 1.0) <= 1e-12


@pytest.mark.parametrize("delta", [0.5, 0.25])
def test_discretized_aoe_equals_the_atom_loop(delta):
    n_mean = 1.0
    half_cells = int(math.ceil(6.0 * math.sqrt(n_mean / 2.0) / delta))
    pts, wts = gaussian_grid_measure(n_mean, delta, half_cells)
    terms = [w * poisson_entropy(x * x + y * y) for (x, y), w in zip(pts, wts)]
    assert near_fsum(experiments._discretized_aoe(pts, wts), terms)


@pytest.mark.parametrize("order", [20, 32])
def test_cached_gauss_legendre_rule_is_read_only(order):
    xs, ws = experiments._gauss_legendre(order)
    ref_xs, ref_ws = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(xs, ref_xs) and np.array_equal(ws, ref_ws)
    assert experiments._gauss_legendre(order)[0] is xs
    for arr in (xs, ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_eof_witness_trend():
    r_small = eof_witness_values(4, 0.01)
    r_big = eof_witness_values(64, 0.01)
    assert r_big[0] / r_big[1] > r_small[0] / r_small[1]


def test_gaussian_grid_mass_is_normalized():
    pts, wts = gaussian_grid_measure(1.0, 0.5, 9)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    assert pts.shape == (18 * 18, 2)


@pytest.mark.parametrize("n_mean, delta, half_cells", [(1.0, 0.5, 9), (1.0, 0.25, 17),
                                                       (3.0, 0.1, 74), (0.2, 1.5, 1)])
def test_gaussian_grid_masses_match_ndtr(n_mean, delta, half_cells):
    # scipy.special.ndtr is an independent oracle for the erfc-built CDF
    from scipy.special import ndtr

    sigma = math.sqrt(n_mean / 2.0)
    ks = np.arange(-half_cells, half_cells)
    mass_1d = ndtr(delta * (ks + 1) / sigma) - ndtr(delta * ks / sigma)
    ref = np.outer(mass_1d, mass_1d).ravel()
    pts, wts = gaussian_grid_measure(n_mean, delta, half_cells)
    assert np.max(np.abs(wts - ref / np.sum(ref))) <= 1e-15
    centers = delta * (ks + 0.5)
    assert np.array_equal(pts[:, 0], np.repeat(centers, ks.size))
    assert np.array_equal(pts[:, 1], np.tile(centers, ks.size))


def test_config_validation():
    # each rejected value is named in the error
    for kw, named in [
        ({"trials": 0}, "0"),
        ({"trials": True}, "True"),
        ({"trials": "5"}, "'5'"),
        ({"trials": 5.0}, "5.0"),
        ({"seed": False}, "False"),
        ({"seed": "7"}, "'7'"),
        ({"seed": 7.5}, "7.5"),
        ({"dims": (1, 2)}, "(1, 2)"),
        ({"dims": ()}, "()"),
        ({"dims": []}, "[]"),
        ({"dims": [2, 3.0]}, "[2, 3.0]"),
        ({"dims": [2, True]}, "[2, True]"),
        ({"dims": 3}, "3"),
        ({"dims": "23"}, "'23'"),
    ]:
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(**kw)
        assert named in str(info.value), kw


def test_config_keeps_dims_as_a_tuple():
    assert ExperimentConfig(dims=[2, 3]).dims == (2, 3)


# ---------------------------------------------------------------------------
# The kept channel batch (_channel_batch)
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_batch(monkeypatch):
    """Start with no kept batch, so the first call of a test is a miss."""
    monkeypatch.setattr(experiments, "_batch_last", None)


@pytest.fixture
def dehs_spy(monkeypatch):
    """The pair lists experiments.d_ehs_many is called with, one per call."""
    calls = []
    real = experiments.d_ehs_many

    def spy(pairs, **kw):
        calls.append(list(pairs))
        return real(pairs, **kw)

    monkeypatch.setattr(experiments, "d_ehs_many", spy)
    return calls


@pytest.fixture
def draw_spy(monkeypatch):
    """The trial indices experiments._channel_trials yields, over all calls."""
    drawn = []
    real = experiments._channel_trials

    def spy(cfg, max_dim):
        for trial in real(cfg, max_dim):
            drawn.append(trial[0])
            yield trial

    monkeypatch.setattr(experiments, "_channel_trials", spy)
    return drawn


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fresh_trial(cfg, max_dim, i, mixed=True, erasure=True):
    """(i, d, phi, mu, nu, mixed, erasure) of trial i, drawn on its own by the
    numpy-only oracles.per_trial_draw and built by the validating
    constructors; each extra asked for is drawn from the state after mu and
    nu, else None."""
    dims = experiments._trial_dims(cfg, max_dim)
    d = dims[i % len(dims)]
    phi, mu, nu, pair, pq = per_trial_draw(cfg.seed, i, d, mixed, erasure)
    phi = KrausChannel(d, d, phi)
    if pair is not None:
        pair = KrausChannel(d, d, pair[0]), pair[1]
    return i, d, phi, Ensemble(d, *mu), Ensemble(d, *nu), pair, pq


def fresh_draws(cfg, max_dim):
    """Every trial drawn on its own, with the extras the batch keeps: the
    mixed-in pair if i is odd or i % 3 == 1, the erasure if i % 3 == 2."""
    return [fresh_trial(cfg, max_dim, i, mixed=i % 2 == 1 or i % 3 == 1, erasure=i % 3 == 2)
            for i in range(cfg.trials)]


def assert_same_draws(draws, fresh):
    # trial by trial: the same index, dimension, channel and pair bit for bit,
    # and the same extras: the mixed-in channel's Kraus bits and its t, and
    # the erasure probabilities p, q
    assert len(draws) == len(fresh)
    for (i, d, phi, mu, nu, mixed, erasure), (fi, fd, fphi, fmu, fnu, fmixed, ferasure) in zip(
            draws, fresh):
        assert (i, d) == (fi, fd)
        assert same_bits(phi.kraus, fphi.kraus)
        for ens, fens in ((mu, fmu), (nu, fnu)):
            assert ens.dim == fens.dim
            assert same_bits(ens.weights, fens.weights)
            assert same_bits(ens.states, fens.states)
        assert (mixed is None, erasure is None) == (fmixed is None, ferasure is None)
        if mixed is not None:
            assert same_bits(mixed[0].kraus, fmixed[0].kraus)
            assert type(mixed[1]) is float and same_bits(mixed[1], fmixed[1])
        if erasure is not None:
            assert all(type(x) is float for x in erasure)
            assert same_bits(erasure, ferasure)


def cold_report(path, argv):
    res = fresh_python(
        "from qensembles.cli import main\n"
        f"main({[*argv, '--out', str(path)]!r})\n")
    assert res.returncode == 0, res.stderr
    return path.read_bytes()


def test_warm_reports_match_cold_ones(tmp_path, dehs_spy):
    # scb-rank solves the batch; scb-energy and holevo at the same seed and
    # trial count reuse it, and must write what a fresh process writes
    flags = ["--seed", "9101", "--trials", "12"]
    warm = {}
    for name in ("scb-rank", "scb-energy", "holevo"):
        warm[name] = tmp_path / f"warm-{name}.json"
        main(["verify", name, *flags, "--out", str(warm[name])])
    assert len(dehs_spy) == 1
    for name in ("scb-energy", "holevo"):
        cold = tmp_path / f"cold-{name}.json"
        res = fresh_python(
            "from qensembles.cli import main\n"
            f"main({['verify', name, *flags, '--out', str(cold)]!r})\n")
        assert res.returncode == 0, res.stderr
        assert warm[name].read_bytes() == cold.read_bytes(), name


def test_three_commands_draw_and_solve_one_config_once(
        tmp_path, fresh_batch, dehs_spy, draw_spy):
    for name in ("scb-rank", "scb-energy", "holevo"):
        main(["verify", name, "--seed", "9105", "--trials", "30",
              "--out", str(tmp_path / f"{name}.json")])
    # 30 trials drawn and one batch of 30 pairs solved, not 90 and three
    assert draw_spy == list(range(30))
    assert [len(pairs) for pairs in dehs_spy] == [30]


def test_warm_misses_in_any_order_match_cold_reports(tmp_path, fresh_batch, dehs_spy):
    # holevo, then scb-rank at another seed (a miss), then scb-energy back at
    # the first seed (a miss again): each report is what a fresh process writes
    runs = [("holevo", "9106"), ("scb-rank", "9107"), ("scb-energy", "9106")]
    for name, seed in runs:
        argv = ["verify", name, "--seed", seed, "--trials", "9"]
        warm = tmp_path / f"warm-{name}.json"
        main([*argv, "--out", str(warm)])
        assert warm.read_bytes() == cold_report(tmp_path / f"cold-{name}.json", argv), name
    assert len(dehs_spy) == 3


def test_kept_batch_hit_returns_a_fresh_draw_and_solve(fresh_batch, dehs_spy, draw_spy):
    cfg = ExperimentConfig(seed=9108, trials=6, dims=(2, 3))
    batch = experiments._channel_batch(cfg, max_dim=5)
    first, dehs = batch.draws, batch.dehs
    again = experiments._channel_batch(cfg, max_dim=5)
    hit, hit_dehs = again.draws, again.dehs
    assert len(dehs_spy) == 1 and len(draw_spy) == 6
    assert hit_dehs is dehs

    fresh = fresh_draws(cfg, max_dim=5)
    assert dehs == tuple(sol.value for sol in d_ehs_many(
        [(mu, nu) for _, _, _, mu, nu, _, _ in fresh], tol=DEHS_TOL))
    # trials 0-5 cover every mix of extras: none, the pair alone, the
    # erasure alone, and both from one state (trial 5)
    assert [(m is not None, e is not None) for *_, m, e in first] == [
        (False, False), (True, False), (False, True),
        (True, False), (True, False), (True, True)]
    assert_same_draws(first, fresh)
    # the hit hands out the kept trials themselves, which no command draws from
    assert all(a is b for trial, again in zip(first, hit) for a, b in zip(trial, again))


def test_kept_batch_misses_on_each_config_change(fresh_batch, dehs_spy, draw_spy):
    base = ExperimentConfig(seed=9109, trials=4, dims=(2, 3, 6))
    misses = [
        (ExperimentConfig(seed=9110, trials=4, dims=(2, 3, 6)), 5),
        (ExperimentConfig(seed=9109, trials=5, dims=(2, 3, 6)), 5),
        (ExperimentConfig(seed=9109, trials=4, dims=(3, 2, 6)), 5),
        # the same config at a cap that keeps 6: dims (2, 3, 6), not (2, 3)
        (base, 6),
    ]
    experiments._channel_batch(base, max_dim=5)
    experiments._channel_batch(base, max_dim=5)
    assert len(dehs_spy) == 1 and len(draw_spy) == base.trials
    for cfg, max_dim in misses:
        # each change against the kept base config is a miss
        experiments._channel_batch(base, max_dim=5)
        solved, drawn = len(dehs_spy), len(draw_spy)
        batch = experiments._channel_batch(cfg, max_dim=max_dim)
        draws, dehs = batch.draws, batch.dehs
        assert len(dehs_spy) == solved + 1 and len(draw_spy) == drawn + cfg.trials
        assert len(dehs_spy[-1]) == len(draws) == len(dehs) == cfg.trials
        assert_same_draws(draws, fresh_draws(cfg, max_dim=max_dim))
    # the last miss kept dims (2, 3, 6): a cap of 7 filters to the same tuple
    # and hits; one entry, so the base config at cap 5 is drawn and solved again
    solved = len(dehs_spy)
    experiments._channel_batch(base, max_dim=7)
    assert len(dehs_spy) == solved
    experiments._channel_batch(base, max_dim=5)
    assert len(dehs_spy) == solved + 1


def test_kept_batch_values_are_an_immutable_tuple_of_floats(fresh_batch):
    cfg = ExperimentConfig(seed=9111, trials=5, dims=(2, 3))
    batch = experiments._channel_batch(cfg, max_dim=5)
    draws, dehs = batch.draws, batch.dehs
    assert type(draws) is tuple and len(draws) == 5
    assert type(dehs) is tuple and len(dehs) == 5
    assert all(type(v) is float for v in dehs)
    with pytest.raises(TypeError):
        dehs[0] = 0.0
    # the shared channels and ensembles cannot be written either
    _, _, phi, mu, nu, (psi, _), _ = draws[1]
    for array in (phi.kraus, mu.weights, mu.states, nu.weights, nu.states, psi.kraus):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert experiments._channel_batch(cfg, max_dim=5).dehs is dehs


# ---------------------------------------------------------------------------
# What the kept batch shares beyond the draws: outputs, Phi(avg) singletons
# and d0 values, each computed on first use
# ---------------------------------------------------------------------------

@pytest.fixture
def apply_spy(monkeypatch):
    """The (channel, states) pair lists channels.apply_many is called with,
    one per call; the lists keep their objects alive, so ids stay unique."""
    calls = []
    real = channels.apply_many

    def spy(pairs):
        calls.append(list(pairs))
        return real(pairs)

    monkeypatch.setattr(channels, "apply_many", spy)
    return calls


def run_channel_commands(tmp_path, seed, trials, names=("scb-rank", "scb-energy", "holevo")):
    for name in names:
        main(["verify", name, "--seed", str(seed), "--trials", str(trials),
              "--out", str(tmp_path / f"{name}-{seed}.json")])


def test_warm_holevo_maps_only_its_psi_avg_nu_inputs(tmp_path, fresh_batch, apply_spy):
    run_channel_commands(tmp_path, 9112, 12, names=("scb-rank", "scb-energy"))
    mapped = len(apply_spy)
    run_channel_commands(tmp_path, 9112, 12, names=("holevo",))
    assert len(apply_spy) == mapped + 1
    # Psi(avg nu) of every trial, Psi = phi at even i and the mixed channel at
    # odd i; Phi(mu), Psi(nu) and Phi(avg mu) are kept from scb-energy
    draws = experiments._channel_batch(ExperimentConfig(seed=9112, trials=12), max_dim=5).draws
    got = apply_spy[-1]
    assert len(got) == len(draws) == 12
    for (chan, states), (i, d, phi, _, nu, mixed, _) in zip(got, draws):
        assert chan is (phi if i % 2 == 0 else mixed[0])
        assert states.shape == (1, d, d) and same_bits(states[0], average_state(nu))


def test_three_commands_map_each_pair_and_build_each_shared_value_once(
        tmp_path, fresh_batch, apply_spy, monkeypatch):
    calls = {"average_singleton": [], "d0_many": []}
    for name in calls:
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, real=real, name=name: calls[name].append(a) or real(*a))
    run_channel_commands(tmp_path, 9113, 12)
    mapped = [(id(chan), id(states)) for pairs in apply_spy for chan, states in pairs]
    assert len(mapped) == len(set(mapped))
    # 24 by scb-rank, 24 new of scb-energy's 36, 12 new of holevo's 48, and
    # scb-rank's 12 witness pairs
    assert len(mapped) == 72
    assert len(calls["average_singleton"]) == 24  # avg mu and avg nu of every trial
    assert len(calls["d0_many"]) == 1


@pytest.mark.parametrize("name, sizes", [
    # the trial pairs, then the witnesses: Phi = id, then three eps per rank
    ("scb-rank", [24, 1, 3, 1, 3, 1, 3]),
    ("scb-energy", [36]),
    ("holevo", [48]),
])
def test_a_lone_cold_command_maps_every_pair_in_one_call(
        tmp_path, fresh_batch, apply_spy, name, sizes):
    run_channel_commands(tmp_path, 9114, 12, names=(name,))
    assert [len(pairs) for pairs in apply_spy] == sizes


def test_a_config_change_drops_the_old_batch_with_all_it_kept(tmp_path, fresh_batch):
    run_channel_commands(tmp_path, 9115, 9)
    batch = experiments._channel_batch(ExperimentConfig(seed=9115, trials=9), max_dim=5)
    kept = [batch, *batch._outputs.values(), *(x for trial in batch.draws for x in trial[2:5]),
            *(trial[5][0] for trial in batch.draws if trial[5] is not None)]
    refs = [weakref.ref(x) for x in kept]
    # the four pairs holevo maps per trial, scb-rank's (phi, nu) at i % 6 == 3
    # and (Psi, nu) at i % 6 == 4, and its two erasure pairs at i % 3 == 2
    assert len(batch._outputs) == 9 * 4 + 2 + 3 * 2
    del batch, kept
    run_channel_commands(tmp_path, 9116, 9)
    gc.collect()
    # nothing of the old batch is alive, so nothing of it can be handed out
    assert all(ref() is None for ref in refs)


def test_kept_outputs_are_read_only_and_keyed_by_trial_and_names(tmp_path, fresh_batch):
    run_channel_commands(tmp_path, 9117, 9)
    batch = experiments._channel_batch(ExperimentConfig(seed=9117, trials=9), max_dim=5)
    assert {chan for _, chan, _ in batch._outputs} == {"phi", "mixed", "erasure p", "erasure q"}
    assert {ens for *_, ens in batch._outputs} == {"mu", "nu", "avg mu", "avg nu"}
    for (i, chan, ens), out in batch._outputs.items():
        _, d, phi, mu, nu, mixed, erasure = batch.draws[i]
        # the key names trial i's own channel and ensemble: the output is
        # that channel's map of that ensemble
        if chan == "mixed":
            phi = mixed[0]
        elif chan != "phi":
            p = dict(zip(("erasure p", "erasure q"), erasure))[chan]
            phi = erasure_channel(d, p).compose(phi)
        src = mu if ens.endswith("mu") else nu
        if ens.startswith("avg"):
            src = singleton(average_state(src))
        want = phi.apply_ensemble(src)
        assert same_bits(out.weights, want.weights) and same_bits(out.states, want.states)
        # the spectra were kept by the batch forms the commands called
        assert "spectra" in vars(out)
        for array in (out.weights, out.states, out.spectra):
            with pytest.raises(ValueError):
                array[0] = 0.0
    assert type(batch.d0s) is tuple


def test_a_second_scb_rank_maps_only_its_witness_pairs(tmp_path, fresh_batch, apply_spy):
    run_channel_commands(tmp_path, 9118, 12, names=("scb-rank",))
    cold = len(apply_spy)
    run_channel_commands(tmp_path, 9118, 12, names=("scb-rank",))
    # no trial pair, erasure-composed ones included; then the witnesses
    assert [len(pairs) for pairs in apply_spy[cold:]] == [0, 1, 3, 1, 3, 1, 3]


def test_witness_rows_are_written_alike_at_every_config(tmp_path):
    # no witness row depends on the seed, the trial count or the dims
    rows = {}
    for seed, trials in ((9120, 3), (9121, 5)):
        for name in ("scb-rank", "scb-energy"):
            out = tmp_path / f"{name}-{seed}.json"
            main(["verify", name, "--seed", str(seed), "--trials", str(trials),
                  "--out", str(out)])
            # the witness rows close each report
            report = json.loads(out.read_text())
            witnesses = [row for row in report if "/C" in row["tag"]]
            assert witnesses == report[-len(witnesses):]
            for row in witnesses:
                del row["trial"]
            rows.setdefault(name, []).append(json.dumps(witnesses))
    assert all(a == b for a, b in rows.values())
    assert len(json.loads(rows["scb-rank"][0])) == 27
    assert len(json.loads(rows["scb-energy"][0])) == 18


def test_every_order_of_the_three_commands_matches_cold_reports(tmp_path, monkeypatch):
    names = ("scb-rank", "scb-energy", "holevo")
    out = tmp_path / "report.json"

    def report(name):
        main(["verify", name, "--seed", "9119", "--trials", "12", "--out", str(out)])
        return out.read_bytes()

    cold = {}
    for name in names:
        monkeypatch.setattr(experiments, "_batch_last", None)
        cold[name] = report(name)
    for order in itertools.permutations(names):
        monkeypatch.setattr(experiments, "_batch_last", None)
        for name in order:
            assert report(name) == cold[name], (order, name)


# ---------------------------------------------------------------------------
# The stacked trial evaluation of scb-rank, scb-energy and holevo against the
# public per-trial functions
# ---------------------------------------------------------------------------

def oracle_dehs(cfg, max_dim):
    # the d_ehs batch of the trials' (mu, nu) pairs, drawn here on their own
    pairs = [fresh_trial(cfg, max_dim, i)[3:5] for i in range(cfg.trials)]
    return [sol.value for sol in d_ehs_many(pairs, tol=DEHS_TOL)], pairs


def oracle_scb_rank(cfg):
    # each trial drawn on its own, with the pair or the erasure drawn from its
    # generator after mu and nu
    rec = experiments._Recorder("scb-rank")
    dehs, pairs = oracle_dehs(cfg, max_dim=5)
    dk = d_kantorovich_many(pairs)
    for i, v_ehs, s_dk in zip(range(cfg.trials), dehs, dk):
        _, d, phi, mu, nu, mixed, erasure = fresh_trial(cfg, 5, i)
        mode = i % 3
        if mode == 0:
            phi_full, psi_full, half_norm, rank = phi, phi, 0.0, d
        elif mode == 1:
            psi_full, half_norm = mixed
            phi_full, rank = phi, d
        else:
            p, q = erasure
            phi_full = erasure_channel(d, p).compose(phi)
            psi_full = erasure_channel(d, q).compose(phi)
            half_norm = 0.5 * erasure_pair_diamond(p, q)
            rank = d + 1
        lhs = aoe(phi_full, mu) - aoe(psi_full, nu)
        for name, dist in (("dehs", v_ehs), ("d0", d0(mu, nu)), ("dk", s_dk.value)):
            eps = dist + half_norm
            rec.add(f"prop2/{name}", lhs, B.scb_rank(eps, rank) + TOLERANCE,
                    eps, dim=d, rank=rank, mode=mode)
    oracle_scb_rank_witnesses(rec)
    return rec.records


def oracle_scb_rank_witnesses(rec):
    # one (r_b, eps) case at a time, each through the validated constructors
    for r_b in (2, 3, 5):
        for eps in (0.1, 0.3, 1.0 - 1.0 / r_b):
            # C-1: perturbed basis state against a basis state, identity channel
            rho = np.zeros((r_b, r_b), dtype=complex)
            rho[0, 0] = 1.0 - eps
            for k in range(1, r_b):
                rho[k, k] = eps / (r_b - 1)
            sigma = np.zeros_like(rho)
            sigma[0, 0] = 1.0
            lhs = von_neumann_entropy(rho) - von_neumann_entropy(sigma)
            dist = d0(singleton(rho), singleton(sigma))
            rec.add_equality("prop2/C1", lhs, B.scb_rank(eps, r_b), eps, rank=r_b)
            rec.add_equality("prop2/C1-metric", dist, eps, eps, rank=r_b)
            # C-2: mixing channel against the identity on a basis-state input
            omega = np.zeros_like(rho)
            for k in range(1, r_b):
                omega[k, k] = 1.0 / (r_b - 1)
            phi = mix_with_state(r_b, eps, omega)
            psi_chan = identity_channel(r_b)
            mu = singleton(sigma)
            lhs2 = aoe(phi, mu) - aoe(psi_chan, mu)
            rec.add_equality("prop2/C2", lhs2, B.scb_rank(eps, r_b), eps, rank=r_b)


def test_rank_witnesses_equal_the_per_case_oracle():
    got, want = experiments._Recorder("a"), experiments._Recorder("b")
    experiments._scb_rank_witnesses(got)
    oracle_scb_rank_witnesses(want)
    assert len(got.records) == len(want.records) == 27
    for a, b in zip(got.records, want.records):
        assert (a.tag, a.lhs, a.rhs, a.epsilon, a.params) == (
            b.tag, b.lhs, b.rhs, b.epsilon, b.params)


def oracle_scb_energy(cfg):
    rec = experiments._Recorder("scb-energy")
    dehs, _ = oracle_dehs(cfg, max_dim=6)
    for i, dist in zip(range(cfg.trials), dehs):
        _, d, phi, mu, nu, mixed, _ = fresh_trial(cfg, 6, i)
        psi, half_norm = (phi, 0.0) if i % 2 == 0 else mixed
        e_b = avg_passive_energy(phi.apply_ensemble(mu))
        e_b2 = mean_energy(phi.apply(average_state(mu)))
        lhs = aoe(phi, mu) - aoe(psi, nu)
        eps_ehs = dist + half_norm
        eps_d0 = d0(mu, nu) + half_norm
        if eps_ehs > 0.0:
            rec.add("prop3/dehs", lhs, B.scb_energy(eps_ehs, e_b) + TOLERANCE,
                    eps_ehs, dim=d, e_b=e_b)
            rec.add("prop3/B2", lhs, B.scb_energy(eps_ehs, e_b2) + TOLERANCE,
                    eps_ehs, dim=d, e_b=e_b2)
            rec.add("prop3/B2-dominates", B.scb_energy(eps_ehs, e_b),
                    B.scb_energy(eps_ehs, e_b2) + TOLERANCE, eps_ehs, dim=d)
        if eps_d0 > 0.0:
            e_cut = truncated_passive_energy(phi.apply_ensemble(mu), eps_d0)
            refined = B.scb_energy(eps_d0, max(e_b - e_cut, 0.0))
            rec.add("prop3/refined", lhs, refined + TOLERANCE, eps_d0, dim=d, e_cut=e_cut)
            rec.add("prop3/refined-le-plain", refined,
                    B.scb_energy(eps_d0, e_b) + TOLERANCE, eps_d0, dim=d)
    experiments._scb_energy_witnesses(rec)
    return rec.records


def oracle_holevo(cfg):
    rec = experiments._Recorder("holevo")
    dehs, _ = oracle_dehs(cfg, max_dim=5)
    for i, dist in zip(range(cfg.trials), dehs):
        _, d, phi, mu, nu, mixed, _ = fresh_trial(cfg, 5, i)
        psi, half_norm = (phi, 0.0) if i % 2 == 0 else mixed
        eps = min(dist + half_norm, 1.0)
        if eps <= 0.0:
            continue
        lhs = holevo_chi(phi, mu) - holevo_chi(psi, nu)
        e_mu = mean_energy(phi.apply(average_state(mu)))
        e_nu_psv = avg_passive_energy(psi.apply_ensemble(nu))
        combo = i % 4
        a_i = (B.RankConstraint(d), B.EnergyConstraint(e_mu))[combo // 2]
        b_j = (B.RankConstraint(d), B.EnergyConstraint(e_nu_psv))[combo % 2]
        rec.add(f"prop4/case{combo // 2 + 1}{combo % 2 + 1}", lhs,
                B.scb_holevo(eps, a_i, b_j) + TOLERANCE, eps, dim=d)
        e_nu_avg = mean_energy(psi.apply(average_state(nu)))
        rec.add("cor2a/abs", abs(lhs), B.cb_holevo_rank(eps, d, d) + TOLERANCE, eps, dim=d)
        rec.add("cor2b/abs", abs(lhs),
                B.cb_holevo_energy(eps, e_mu, e_nu_avg) + TOLERANCE, eps, dim=d)
    return rec.records


ORACLES = {"scb-rank": oracle_scb_rank, "scb-energy": oracle_scb_energy,
           "holevo": oracle_holevo}

# configs the golden reports do not cover: uneven dimension groups and
# scb-energy's dimension 6; one trial; and scb-rank's mode-2 erasure outputs
# (trial 2, input dimension 2, output dimension 3) in one group with the
# outputs of the input-dimension-3 trials
ORACLE_CONFIGS = {
    "uneven-groups": ExperimentConfig(seed=9120, trials=7, dims=(2, 6, 3)),
    "one-trial": ExperimentConfig(seed=9121, trials=1, dims=(2, 3)),
    "erasure-shares-a-group": ExperimentConfig(seed=9122, trials=6, dims=(2, 3)),
}


@pytest.mark.parametrize("config", sorted(ORACLE_CONFIGS))
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_trial_records_equal_the_per_trial_functions(name, config):
    cfg = ORACLE_CONFIGS[config]
    got = EXPERIMENTS[name](cfg).records
    want = ORACLES[name](cfg)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.tag, a.lhs, a.rhs, a.epsilon, a.params) == (
            b.tag, b.lhs, b.rhs, b.epsilon, b.params)
