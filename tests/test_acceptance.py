"""Acceptance gate: one test per criterion, each timed against its stated
budget and printing a PASS/FAIL line.

Criteria 1 and 11 are checked against independent oracles in `oracles.py`.
Criterion 1 brackets each crossover closeness by a sign change of
paired - prior (the paired rank bound 2(eps ln(d-1) + h2(eps)) minus the prior
dimension bound eps ln d + 2 g(eps)): the roots are 0.14335 (d = 3), 0.39453
(d = 4) and 0.54985 (d = 5). Criterion 11 checks the tilted-vector witness
closed forms against an explicit SVD construction, and the bound's tightness
where the family reaches it: the ratio lhs/rhs rises with r and passes 0.8 by
r = 2^40 (0.831 at delta = 0.01, 0.871 at delta = 0.05), while at r = 64 it is
still 0.424 because h2(delta') outweighs delta ln r. See README for the
analysis.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qensembles import (
    Ensemble,
    binary_entropy,
    chi_cb_prior_dim,
    cb_holevo_rank,
    crossover_eps,
    d0,
    d_ehs_many,
    d_kantorovich,
    d_kantorovich_many,
    discretization_bounds,
    dk_upper,
    g_func,
    s_ineq_check,
    scb_energy,
    scb_holevo,
    scb_rank,
    trace_norm,
    u_func,
    v_func,
)
from qensembles.bounds import EnergyConstraint, RankConstraint, aoe_upper, eof_scb_fid
from qensembles.energy import thermal_populations
from qensembles.ensembles import average_state, singleton
from qensembles.experiments import (
    EXPERIMENTS,
    REPROS,
    ExperimentConfig,
    eof_witness_values,
)
from qensembles.linalg import shannon_entropy
from qensembles.randomgen import derive_rng, random_ensemble

from conftest import basis_ket, ketbra
from oracles import (
    ehs_angular_grid_lp,
    paired_minus_prior,
    tilted_witness,
    transport_bruteforce,
)


@contextmanager
def criterion(num, label, budget_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok and elapsed < budget_s else "FAIL"
        print(f"{status} criterion {num:>2} [{label}] "
              f"({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s > {budget_s}s"


def test_criterion_01_crossover_table():
    with criterion(1, "crossover table", 1.0):
        assert crossover_eps(2) == 0.0
        for d in range(18, 24):
            assert crossover_eps(d) is None
        assert abs(u_func(1.0) - 16.0) <= 1e-12
        assert abs(v_func(18) - 289.0 / 18.0) <= 1e-12
        # paired - prior changes sign inside each bracket (oracle, not
        # bounds.py); d = 3: +0.00095 -> -0.00202, d = 4: +0.00384 -> -0.00476,
        # d = 5: +0.0126 -> -0.0136.
        for d, lo, hi in ((3, 0.14, 0.15), (4, 0.39, 0.40), (5, 0.54, 0.56)):
            assert paired_minus_prior(d, lo) > 0.0 > paired_minus_prior(d, hi)
            eps_d = crossover_eps(d)
            assert lo <= eps_d <= hi, f"eps_{d} = {eps_d:.5f}"
            assert abs(paired_minus_prior(d, eps_d)) <= 1e-9


def test_criterion_02_worked_example_metrics():
    with criterion(2, "worked-example metrics", 1.0):
        z0, z1 = ketbra(basis_ket(2, 0)), ketbra(basis_ket(2, 1))
        sigma = np.eye(2, dtype=complex) / 2
        rho2 = np.diag([0.3, 0.7]).astype(complex)
        mu = Ensemble.from_members(
            [(0.5, np.kron(z0, z0)), (0.5, np.kron(rho2, z1))]
        )
        nu = singleton(np.kron(sigma, z0))
        assert abs(d0(mu, nu) - 0.5) <= 1e-10
        assert abs(d_kantorovich(mu, nu).value - 0.75) <= 1e-10


def test_criterion_03_lp_oracle_equivalence():
    with criterion(3, "LP oracle equivalence", 120.0):
        pairs = []
        for i in range(200):
            rng = derive_rng(301, i)
            dim = 2 + (i % 2)
            mu = random_ensemble(dim, int(rng.integers(1, 4)), rng)
            nu = random_ensemble(dim, int(rng.integers(1, 4)), rng)
            pairs.append((mu, nu))
        dks = d_kantorovich_many(pairs)
        ehs = d_ehs_many(pairs, tol=1e-7)
        for (mu, nu), dk, sol in zip(pairs, dks, ehs):
            cost = np.array(
                [[0.5 * trace_norm(r - s) for _, s in nu.members]
                 for _, r in mu.members]
            )
            exact = transport_bruteforce(cost, mu.weights, nu.weights)
            assert abs(dk.value - exact) <= 1e-8
            assert abs(sol.value - ehs_angular_grid_lp(mu, nu)) <= 1e-5


def test_criterion_04_metric_chain():
    with criterion(4, "metric chain", 180.0):
        pairs = []
        for i in range(1000):
            rng = derive_rng(401, i)
            dim = 2 + (i % 2)
            mu = random_ensemble(dim, int(rng.integers(1, 4)), rng)
            nu = random_ensemble(dim, int(rng.integers(1, 4)), rng)
            pairs.append((mu, nu))
        dks = d_kantorovich_many(pairs)
        sols = d_ehs_many(pairs, tol=1e-8)
        for (mu, nu), dk_sol, ehs_sol in zip(pairs, dks, sols):
            ehs, dk = ehs_sol.value, dk_sol.value
            assert ehs <= dk + 1e-8
            assert dk <= dk_upper(mu, nu) + 1e-8
            assert ehs <= d0(mu, nu) + 1e-8
            gap = trace_norm(average_state(mu) - average_state(nu))
            assert gap <= 2.0 * ehs + 1e-8


def test_criterion_05_prop2_suite():
    with criterion(5, "rank semicontinuity suite", 180.0):
        cfg = ExperimentConfig(seed=501, trials=1000, dims=(2, 3, 4, 5))
        res = EXPERIMENTS["scb-rank"](cfg)
        assert not res.violations, [
            (r.tag, r.lhs, r.rhs) for r in res.violations[:5]
        ]
        tags = {r.tag for r in res.records}
        assert {"prop2/C1", "prop2/C2", "prop2/dehs", "prop2/d0", "prop2/dk"} <= tags


def test_criterion_06_prop3_suite():
    with criterion(6, "energy semicontinuity suite", 180.0):
        cfg = ExperimentConfig(seed=601, trials=500, dims=(2, 3, 4, 5, 6))
        res = EXPERIMENTS["scb-energy"](cfg)
        assert not res.violations, [
            (r.tag, r.lhs, r.rhs) for r in res.violations[:5]
        ]
        tags = {r.tag for r in res.records}
        assert {"prop3/refined", "prop3/refined-le-plain",
                "prop3/C1-exceeds", "prop3/C2-within"} <= tags


def test_criterion_07_oscillator_closed_form():
    with criterion(7, "oscillator closed form", 5.0):
        # the tail-chosen truncation: a fixed 200 levels would miss g(10) by 1.1e-7
        for energy in np.linspace(0.01, 10.0, 41):
            entropy = shannon_entropy(thermal_populations(energy))
            assert abs(entropy - g_func(energy)) <= 1e-8


def test_criterion_08_erasure_sandwich():
    with criterion(8, "erasure sandwich", 30.0):
        cfg = ExperimentConfig(seed=801, trials=1)
        res = REPROS["erasure"](cfg)
        assert not res.violations, [
            (r.tag, r.lhs, r.rhs) for r in res.violations[:5]
        ]
        assert len(res.tables["erasure"]) == 12


def test_criterion_09_coherent_discretization():
    with criterion(9, "coherent discretization", 120.0):
        cfg = ExperimentConfig(seed=901, trials=1)
        res = REPROS["coherent"](cfg)
        assert not res.violations, [
            (r.tag, r.lhs, r.rhs) for r in res.violations[:5]
        ]
        quad = [r for r in res.records if r.tag == "coherent/quadrature"]
        assert quad and quad[0].lhs <= 1e-6


def test_criterion_10_steering():
    with criterion(10, "steering", 60.0):
        cfg = ExperimentConfig(seed=1001, trials=500, dims=(2, 3))
        res = EXPERIMENTS["steering"](cfg)
        assert not res.violations, [
            (r.tag, r.lhs, r.rhs) for r in res.violations[:5]
        ]
        assert any(r.tag == "prop1a/purity" for r in res.records)


def test_criterion_11_eof_witness():
    with criterion(11, "entanglement witness", 10.0):
        for rank in (4, 16, 64):
            for delta in (0.01, 0.05):
                lhs, rhs, fid = eof_witness_values(rank, delta)
                assert lhs <= rhs + 1e-12
                drop, fid_svd = tilted_witness(rank, delta)
                assert abs(lhs - drop) <= 1e-12
                assert abs(fid - fid_svd) <= 1e-12
        # Tightness is asymptotic in r: the ratio tends to delta/delta' ~ 1,
        # but at r = 64 it is 0.424 (delta = 0.01) because h2(delta') ~ 0.056
        # still exceeds delta ln r ~ 0.042; it first passes 0.8 at r = 2^33.
        for delta in (0.01, 0.05):
            ratios = [lhs / rhs for lhs, rhs, _ in
                      (eof_witness_values(r, delta)
                       for r in (4, 16, 64, 2**20, 2**40))]
            assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
            assert ratios[-1] > 0.8, f"lhs/rhs = {ratios[-1]:.4f} at r = 2^40"


def test_criterion_12_scalar_property_sweeps():
    with criterion(12, "scalar property sweeps", 5.0):
        for eps in (0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0):
            for n_mean in (0.5, 1.0, 10.0, 100.0):
                assert s_ineq_check(eps, n_mean)
        for r in (2, 3, 4, 7, 12, 25):
            eps_star = 1.0 - 1.0 / r
            assert abs(scb_rank(eps_star, r) - math.log(r)) <= 1e-12
        closeness = 1e-6
        small = [
            scb_rank(closeness, 4),
            scb_energy(closeness, 1.0),
            scb_holevo(closeness, RankConstraint(3), RankConstraint(3)),
            scb_holevo(closeness, EnergyConstraint(1.0),
                       EnergyConstraint(1.0)),
            cb_holevo_rank(closeness, 4, 4),
            chi_cb_prior_dim(closeness, 4),
            aoe_upper(3, closeness, 1.0) - math.log(3),
            eof_scb_fid(1.0 - closeness**2, 4),
            sum(discretization_bounds(closeness, 1.0)),
        ]
        assert all(v < 1e-4 for v in small), small
        # sqrt-scaled closeness (trace-distance form) vanishes too, more slowly
        from qensembles import eof_scb
        seq = [eof_scb(e, 4) for e in (1e-4, 1e-5, 1e-6)]
        assert seq[0] > seq[1] > seq[2] and seq[2] < 2e-2
