import importlib.machinery
import importlib.util
import inspect
import math
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qensembles import (
    ConvergenceError,
    DimensionMismatch,
    Ensemble,
    KrausChannel,
    PointMeasure,
    average_state,
    d0,
    d0_many,
    d_ehs,
    d_ehs_many,
    d_kantorovich,
    d_kantorovich_many,
    dk_upper,
    kr_distance,
    kr_modified,
    trace_norm,
)
from qensembles import metrics
from qensembles.ensembles import singleton
from qensembles.errors import ValidationError
from qensembles.experiments import gaussian_grid_measure
from qensembles.linalg import check_hermitian
from qensembles.metrics import _ehs_brackets, _ehs_tangents, solve_transport
from qensembles.randomgen import random_channel, random_ensemble, random_state, random_unitary

from conftest import basis_ket, fresh_python, ketbra
from oracles import (
    ehs_angular_grid_lp,
    ehs_kelley_reference,
    kr_dual_lp,
    transport_bruteforce,
    transport_full_lp,
)


def example1_pair():
    """Two-member tagged ensemble against a singleton: d0 = 1/2, dK = 3/4."""
    z0, z1 = ketbra(basis_ket(2, 0)), ketbra(basis_ket(2, 1))
    sigma = np.eye(2, dtype=complex) / 2
    rho2 = np.diag([0.3, 0.7]).astype(complex)  # arbitrary second state
    mu = Ensemble.from_members([(0.5, np.kron(z0, z0)), (0.5, np.kron(rho2, z1))])
    nu = singleton(np.kron(sigma, z0))
    return mu, nu


def kept_models(monkeypatch):
    """The list every _HighsModel made from now on is appended to."""
    models = []

    class Recorded(metrics._HighsModel):
        def __init__(self, b_eq):
            super().__init__(b_eq)
            models.append(self)

    monkeypatch.setattr(metrics, "_HighsModel", Recorded)
    return models


def same_solution(a, b):
    """Two CouplingSolutions equal in every field, plans bit for bit."""
    return (a.value, a.iterations, a.gap) == (b.value, b.iterations, b.gap) and all(
        np.array_equal(x, y) for x, y in ((a.plan, b.plan), (a.plan_q, b.plan_q))
    )


def mixed_rank_ensemble(dim, members, rng, zero_weight):
    """Random ensemble whose states are rank 1 or full rank at random; with
    zero_weight and at least two members, the first member has weight 0."""
    weights = rng.dirichlet(np.ones(members))
    if zero_weight and members > 1:
        weights[0] = 0.0
        weights /= weights.sum()
    states = [random_state(dim, int(rng.choice([1, dim])), rng) for _ in range(members)]
    return Ensemble.from_members(zip(weights, states))


class TestD0:
    def test_identical(self, rng):
        mu = random_ensemble(2, 3, rng)
        assert d0(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        mu, nu = example1_pair()
        assert d0(mu, nu) == pytest.approx(0.5, abs=1e-10)

    def test_weight_shift_orthogonal_pures(self):
        a, b = ketbra(basis_ket(2, 0)), ketbra(basis_ket(2, 1))
        mu = Ensemble.from_members([(1.0, a), (0.0, b)])
        nu = Ensemble.from_members([(0.5, a), (0.5, b)])
        assert d0(mu, nu) == pytest.approx(0.5, abs=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            d0(random_ensemble(2, 2, rng), random_ensemble(3, 2, rng))

    def test_many_is_the_per_pair_d0_bit_for_bit(self, rng, monkeypatch):
        # mixed dimensions and unequal lengths: one trace-norm call per
        # dimension, and each value is the pair's own d0, the half sum of the
        # trace norms of its terms with the shorter side padded by zero-weight
        # maximally mixed states
        shapes = []
        real = metrics._trace_norm
        monkeypatch.setattr(metrics, "_trace_norm", lambda a: shapes.append(a.shape) or real(a))
        for _ in range(20):
            pairs = [(random_ensemble(d, int(rng.integers(1, 6)), rng),
                      random_ensemble(d, int(rng.integers(1, 6)), rng))
                     for d in rng.choice([2, 3, 5, 6], size=int(rng.integers(1, 8)))]
            shapes.clear()
            many = d0_many(pairs)
            assert sorted(s[1:] for s in shapes) == sorted({(mu.dim,) * 2 for mu, _ in pairs})
            assert len(many) == len(pairs)
            for (mu, nu), value in zip(pairs, many):
                n, filler = max(len(mu), len(nu)), np.eye(mu.dim) / mu.dim
                terms = [p * r - q * s for (p, r), (q, s) in zip(
                    mu.members + [(0.0, filler)] * (n - len(mu)),
                    nu.members + [(0.0, filler)] * (n - len(nu)))]
                assert type(value) is float
                assert value == 0.5 * float(np.sum(trace_norm(np.stack(terms))))
                assert value == d0(mu, nu)
        assert d0_many([]) == []


class TestKantorovich:
    def test_worked_example(self):
        mu, nu = example1_pair()
        assert d_kantorovich(mu, nu).value == pytest.approx(0.75, abs=1e-10)

    def test_singleton_target(self, rng):
        mu = random_ensemble(3, 3, rng)
        sigma = random_state(3, 3, rng)
        expected = 0.5 * sum(
            w * trace_norm(s - sigma) for w, s in mu.members
        )
        assert d_kantorovich(mu, singleton(sigma)).value == pytest.approx(
            expected, abs=1e-10
        )

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(10):
            mu = random_ensemble(2, int(rng.integers(2, 4)), rng)
            nu = random_ensemble(2, int(rng.integers(2, 4)), rng)
            cost = np.array(
                [[0.5 * trace_norm(r - s) for _, s in nu.members] for _, r in mu.members]
            )
            assert d_kantorovich(mu, nu).value == pytest.approx(
                transport_bruteforce(cost, mu.weights, nu.weights), abs=1e-8
            )

    def test_batched_cost_matches_trace_norm_loop(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            mu = random_ensemble(d, int(rng.integers(1, 5)), rng)
            nu = random_ensemble(d, int(rng.integers(1, 5)), rng)
            cost = np.array(
                [[0.5 * trace_norm(r - s) for _, s in nu.members] for _, r in mu.members]
            )
            value, plan = solve_transport(cost, mu.weights, nu.weights)
            sol = d_kantorovich(mu, nu)
            assert sol.value == value
            assert np.array_equal(sol.plan, plan)

    def test_many_matches_vertex_enumeration(self, rng):
        pairs = []
        for case in range(30):
            d = 2 + case % 3
            pairs.append((random_ensemble(d, int(rng.integers(1, 4)), rng),
                          random_ensemble(d, int(rng.integers(1, 4)), rng)))
        for (mu, nu), sol in zip(pairs, d_kantorovich_many(pairs)):
            cost = np.array(
                [[0.5 * trace_norm(r - s) for _, s in nu.members] for _, r in mu.members]
            )
            assert sol.value == pytest.approx(
                transport_bruteforce(cost, mu.weights, nu.weights), abs=1e-9
            )
            assert np.allclose(sol.plan.sum(axis=1), mu.weights, rtol=0.0, atol=1e-9)
            assert np.allclose(sol.plan.sum(axis=0), nu.weights, rtol=0.0, atol=1e-9)

    def test_many_costs_are_the_per_pair_costs_bit_for_bit(self, rng, monkeypatch):
        # one trace-norm call per dimension makes each pair's cost bit for
        # bit, so the block LP ends where the block LP of per-pair costs ends,
        # in values and plans. A pair's own LP (d_kantorovich) need not: it can
        # end at another optimal vertex or sum in another order, within 1e-15
        # (42 of 842 random pairs do).
        shapes = []
        real = metrics._trace_norm
        monkeypatch.setattr(metrics, "_trace_norm", lambda a: shapes.append(a.shape) or real(a))
        for _ in range(20):
            pairs = []
            for _ in range(int(rng.integers(1, 8))):
                d = int(rng.choice([2, 3, 5, 6]))
                pairs.append((random_ensemble(d, int(rng.integers(1, 6)), rng),
                              random_ensemble(d, int(rng.integers(1, 6)), rng)))
            shapes.clear()
            many = d_kantorovich_many(pairs)
            assert sorted(s[1:] for s in shapes) == sorted({(mu.dim,) * 2 for mu, _ in pairs})
            per_pair = metrics._solve_transports([
                (0.5 * real(mu.states[:, None] - nu.states[None, :]), mu.weights, nu.weights)
                for mu, nu in pairs])
            for (mu, nu), sol, expected in zip(pairs, many, per_pair):
                assert same_solution(sol, expected)
                assert abs(sol.value - d_kantorovich(mu, nu).value) <= 1e-15

    def test_plan_marginals(self, rng):
        mu = random_ensemble(2, 3, rng)
        nu = random_ensemble(2, 2, rng)
        sol = d_kantorovich(mu, nu)
        assert np.allclose(sol.plan.sum(axis=1), mu.weights, atol=1e-9)
        assert np.allclose(sol.plan.sum(axis=0), nu.weights, atol=1e-9)

    def test_data_processing(self, rng):
        chan = random_channel(3, 3, 2, rng)
        mu = random_ensemble(3, 3, rng)
        nu = random_ensemble(3, 2, rng)
        before = d_kantorovich(mu, nu).value
        after = d_kantorovich(chan.apply_ensemble(mu), chan.apply_ensemble(nu)).value
        assert after <= before + 1e-9


class TestSolveTransport:
    def test_dense_and_sparse_paths_match_vertex_enumeration(self, rng, monkeypatch):
        # the kept model's column of cell i*m + j costs cost[i, j], lies in
        # marginal rows i and n + j with coefficient 1, and is >= 0; the rows
        # hold p then q
        models = kept_models(monkeypatch)
        for _ in range(10):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            # every block here starts from all its cells: one LP over all of them
            assert min(n, m) <= metrics.TRANSPORT_START_CELLS
            cost = rng.uniform(0.0, 1.0, size=(n, m))
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            value, _ = solve_transport(cost, p, q)
            assert value == pytest.approx(transport_bruteforce(cost, p, q), abs=1e-9)
            a_eq = np.zeros((n + m, n * m))
            for i in range(n):
                for j in range(m):
                    a_eq[i, i * m + j] = a_eq[n + j, i * m + j] = 1.0
            (model,) = models
            lp = model.highs.getLp()
            mat = lp.a_matrix_
            dense = np.zeros((lp.num_row_, lp.num_col_))
            for k in range(lp.num_col_):
                span = slice(mat.start_[k], mat.start_[k + 1])
                dense[np.array(mat.index_[span], dtype=int), k] = mat.value_[span]
            assert np.array_equal(dense, a_eq)
            assert np.array_equal(lp.col_cost_, cost.ravel())
            assert np.array_equal(lp.col_lower_, np.zeros(n * m))
            assert np.array_equal(lp.col_upper_, np.full(n * m, np.inf))
            assert np.array_equal(lp.row_lower_, np.concatenate([p, q]))
            assert np.array_equal(lp.row_upper_, np.concatenate([p, q]))
            models.clear()

    def test_priced_lp_matches_full_lp_with_a_certificate(self, monkeypatch):
        # KR costs min(|x - y|, 2) on random point clouds; the duals of each
        # solve's kept model must price every cell of the full cost matrix
        models = kept_models(monkeypatch)
        rng = np.random.default_rng(9)
        kinds = ("plain", "zero-weight", "n=1", "m=1", "identical", "far")
        rounds = []
        for case in range(300):
            kind = kinds[case % len(kinds)]
            n, m = (int(k) for k in rng.integers(1, 81, size=2))
            n, m = (1 if kind == "n=1" else n), (1 if kind == "m=1" else m)
            spread = rng.uniform(0.1, 3.0)
            pts_a = rng.normal(scale=spread, size=(n, 2))
            pts_b = rng.normal(scale=spread, size=(m, 2))
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            if kind == "zero-weight":
                p[1::3], q[::4] = 0.0, 0.0
                p, q = p / p.sum(), q / q.sum()
            if kind == "identical":
                m, pts_b, q = n, pts_a, p
            if kind == "far":
                pts_b = pts_b + 10.0 * spread + 4.0
            gaps = pts_a[:, None, :] - pts_b[None, :, :]
            cost = np.minimum(np.hypot(gaps[..., 0], gaps[..., 1]), 2.0)
            sol = metrics._solve_transports([(cost, p, q)])[0]
            assert abs(sol.value - transport_full_lp(cost, p, q)) <= 1e-12
            assert np.allclose(sol.plan.sum(axis=1), p, rtol=0.0, atol=1e-9)
            assert np.allclose(sol.plan.sum(axis=0), q, rtol=0.0, atol=1e-9)
            duals = np.array(models[-1].highs.getSolution().row_dual)
            violation = max(-float(np.min(cost - duals[:n, None] - duals[None, n:])), 0.0)
            assert violation <= 1e-10
            assert sol.gap == violation * np.sum(p)
            if kind == "identical":
                assert abs(sol.value) <= 1e-12
            if kind == "far":
                assert abs(sol.value - 2.0) <= 1e-12
            rounds.append(sol.iterations)
        # pricing ran, and adding each row's and column's most negative cell
        # keeps it to a few rounds (8 here; 14 when the least negative is added)
        assert 1 < max(rounds) <= 11

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(sizes=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                          min_size=1, max_size=60))
    def test_marginal_rows_equal_the_division_formula(self, sizes):
        # oracle: cell k of block b, counted from the block's first cell, lies
        # in rows start_b + k // m_b and start_b + n_b + k % m_b
        n, m = (np.array(v, dtype=np.int64) for v in zip(*sizes))
        cells = n * m
        block = np.repeat(np.arange(n.size), cells)
        start = np.cumsum(n + m) - (n + m)
        k = np.arange(int(cells.sum())) - (np.cumsum(cells) - cells)[block]
        expected = (block, start[block] + k // m[block], start[block] + n[block] + k % m[block])
        for got, want in zip(metrics._marginal_rows(n, m), expected, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_unequal_masses_raise_with_the_model_status(self):
        # an all-cells block and a priced one: the first LP is infeasible
        for n, m in ((2, 2), (5, 6)):
            cost = np.ones((n, m))
            p, q = np.full(n, 1.0 / n), np.full(m, 1.2 / m)
            with pytest.raises(ConvergenceError, match="model status kInfeasible"):
                metrics._solve_transports([(cost, p, q)])

    def test_linprog_stays_bound(self):
        # no LP of the package calls it, but the benchmark's tracer wraps
        # metrics.linprog by name on every install
        assert metrics.linprog is scipy.optimize.linprog

    def test_linprog_binds_on_first_access(self):
        # in a fresh interpreter metrics.linprog imports scipy.optimize on
        # first access and then sits in the module dict, where the tracer's
        # binding sweep reads it; any other missing name stays missing
        res = fresh_python("""
import qensembles.metrics as metrics
before = "linprog" in vars(metrics)
import scipy.optimize
print(before, metrics.linprog is scipy.optimize.linprog, "linprog" in vars(metrics))
try:
    getattr(metrics, "no_such_name")
except AttributeError as exc:
    print(type(exc).__name__, exc)
""")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "False True True",
            "AttributeError module 'qensembles.metrics' has no attribute 'no_such_name'",
        ]

    def test_priced_batch_matches_lone_solves(self):
        # complete and priced blocks in one LP: each block's value, plan and
        # gap stand on their own; all blocks share the batch's rounds
        rng = np.random.default_rng(4)
        problems = []
        for n, m in ((2, 9), (30, 40), (1, 1), (12, 25), (3, 3), (40, 6)):
            gaps = rng.normal(size=(n, 1, 2)) - rng.normal(size=(1, m, 2))
            problems.append((np.minimum(np.hypot(gaps[..., 0], gaps[..., 1]), 2.0),
                             rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))))
        batch = metrics._solve_transports(problems)
        assert len({sol.iterations for sol in batch}) == 1 and batch[0].iterations > 1
        for (cost, p, q), sol in zip(problems, batch):
            assert abs(sol.value - transport_full_lp(cost, p, q)) <= 1e-12
            assert sol.plan.shape == cost.shape
            assert np.allclose(sol.plan.sum(axis=1), p, rtol=0.0, atol=1e-9)
            assert np.allclose(sol.plan.sum(axis=0), q, rtol=0.0, atol=1e-9)
            assert 0.0 <= sol.gap <= 1e-10


class TestDkUpper:
    def test_identical(self, rng):
        mu = random_ensemble(2, 3, rng)
        assert dk_upper(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_same_distribution_dominates_dk(self, rng):
        weights = rng.dirichlet(np.ones(3))
        mu = Ensemble(2, weights, tuple(random_state(2, 2, rng) for _ in range(3)))
        nu = Ensemble(2, weights, tuple(random_state(2, 2, rng) for _ in range(3)))
        assert dk_upper(mu, nu) == pytest.approx(d0(mu, nu), abs=1e-12)
        assert d_kantorovich(mu, nu).value <= d0(mu, nu) + 1e-9

    def test_dominates_kantorovich(self, rng):
        for _ in range(10):
            mu = random_ensemble(2, 3, rng)
            nu = random_ensemble(2, 3, rng)
            assert d_kantorovich(mu, nu).value <= dk_upper(mu, nu) + 1e-9


class TestEhs:
    def test_split_copy_is_zero(self, rng):
        rho = random_state(2, 2, rng)
        mu = singleton(rho)
        nu = Ensemble.from_members([(0.5, rho), (0.5, rho)])
        sol = d_ehs(mu, nu, tol=1e-8)
        assert sol.value == pytest.approx(0.0, abs=1e-8)

    def test_singleton_vs_orthogonal_split(self):
        rho = ketbra(basis_ket(2, 0))
        sigma = ketbra(basis_ket(2, 1))
        mu = singleton(rho)
        nu = Ensemble.from_members([(0.5, rho), (0.5, sigma)])
        sol = d_ehs(mu, nu, tol=1e-8)
        assert sol.value == pytest.approx(0.5, abs=1e-7)
        # average-state lower bound certifies optimality here
        assert trace_norm(average_state(mu) - average_state(nu)) == pytest.approx(1.0)

    def test_chain_inequalities(self, rng):
        for _ in range(10):
            mu = random_ensemble(2, 3, rng)
            nu = random_ensemble(2, 2, rng)
            tol = 1e-6
            val = d_ehs(mu, nu, tol=tol).value
            assert val <= d0(mu, nu) + tol + 1e-9
            assert val <= d_kantorovich(mu, nu).value + tol + 1e-9

    def test_splitting_and_permutation_invariance(self, rng):
        tol = 1e-7
        mu = random_ensemble(2, 2, rng)
        nu = random_ensemble(2, 2, rng)
        base = d_ehs(mu, nu, tol=tol).value
        w, s = nu.weights, nu.states
        nu_split = Ensemble.from_members(
            [(w[1], s[1]), (0.5 * w[0], s[0]), (0.5 * w[0], s[0])]
        )
        split = d_ehs(mu, nu_split, tol=tol).value
        assert abs(split - base) <= 2 * tol

    def test_matches_angular_grid_lp(self, rng):
        for _ in range(4):
            mu = random_ensemble(2, 2, rng)
            nu = random_ensemble(2, 3, rng)
            sol = d_ehs(mu, nu, tol=1e-7)
            assert sol.value == pytest.approx(
                ehs_angular_grid_lp(mu, nu), abs=1e-5
            )

    def test_average_state_bound(self, rng):
        for _ in range(10):
            mu = random_ensemble(3, 2, rng)
            nu = random_ensemble(3, 3, rng)
            gap = trace_norm(average_state(mu) - average_state(nu))
            assert gap <= 2 * d_ehs(mu, nu, tol=1e-7).value + 1e-5
            assert gap <= 2 * d_kantorovich(mu, nu).value + 1e-9

    def test_nonconvergence_diagnostic(self, rng):
        mu = random_ensemble(2, 2, rng)
        nu = random_ensemble(2, 2, rng)
        with pytest.raises(ConvergenceError) as err:
            d_ehs(mu, nu, tol=0.0, max_rounds=1)
        assert err.value.gap is not None and 0.0 <= err.value.gap < math.inf

    def test_plans_satisfy_marginals(self, rng):
        mu = random_ensemble(2, 3, rng)
        nu = random_ensemble(2, 2, rng)
        sol = d_ehs(mu, nu, tol=1e-7)
        assert np.allclose(sol.plan.sum(axis=1), mu.weights, atol=1e-9)
        assert np.allclose(sol.plan_q.sum(axis=0), nu.weights, atol=1e-9)

    def test_matches_kelley_reference(self):
        # n, m in {1, 2, 3} (n != m included), d in 2..5, rank-1 and full-rank
        # states, and a zero-weight member in every third case
        rng = np.random.default_rng(5150)
        sizes = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
        tol = 1e-7
        pairs = []
        for case in range(200):
            n, m = sizes[case % len(sizes)]
            d = 2 + (case // len(sizes)) % 4
            mu = mixed_rank_ensemble(d, n, rng, zero_weight=case % 3 == 0)
            nu = mixed_rank_ensemble(d, m, rng, zero_weight=case % 3 == 1)
            pairs.append((mu, nu))
        for (mu, nu), sol in zip(pairs, d_ehs_many(pairs, tol=tol)):
            assert abs(sol.value - ehs_kelley_reference(mu, nu, tol)) <= tol
            assert sol.gap <= tol
            assert np.allclose(sol.plan.sum(axis=1), mu.weights, rtol=0.0, atol=1e-9)
            assert np.allclose(sol.plan_q.sum(axis=0), nu.weights, rtol=0.0, atol=1e-9)

    def test_many_matches_single_calls_and_reference(self):
        # one batch with d = 2..5, n != m, two-singleton instances, zero-weight
        # members and one instance given twice
        rng = np.random.default_rng(6150)
        sizes = [(1, 1), (1, 3), (2, 2), (3, 2), (2, 1), (3, 3)]
        tol = 1e-7
        pairs = []
        for case in range(24):
            n, m = sizes[case % len(sizes)]
            d = 2 + case % 4
            mu = mixed_rank_ensemble(d, n, rng, zero_weight=case % 3 == 0)
            nu = mixed_rank_ensemble(d, m, rng, zero_weight=case % 3 == 1)
            pairs.append((mu, nu))
        pairs.append(pairs[3])
        sols = d_ehs_many(pairs, tol=tol)
        assert len(sols) == len(pairs)
        for (mu, nu), sol in zip(pairs, sols):
            assert abs(sol.value - d_ehs(mu, nu, tol=tol).value) <= tol
            assert abs(sol.value - ehs_kelley_reference(mu, nu, tol)) <= tol
            assert sol.gap <= tol
            assert np.allclose(sol.plan.sum(axis=1), mu.weights, rtol=0.0, atol=1e-9)
            assert np.allclose(sol.plan_q.sum(axis=0), nu.weights, rtol=0.0, atol=1e-9)
            assert (sol.iterations == 0) == (len(mu) == len(nu) == 1)

    def test_many_of_nothing_is_empty(self):
        assert d_ehs_many([]) == []
        assert d_kantorovich_many([]) == []

    def test_many_round_limit_carries_largest_open_gap(self, rng):
        pairs = [(random_ensemble(d, 3, rng), random_ensemble(d, 2, rng)) for d in (2, 3, 4)]
        tol = 1e-9
        with pytest.raises(ConvergenceError) as err:
            d_ehs_many(pairs, tol=tol, max_rounds=1)
        assert tol < err.value.gap < math.inf

    def test_many_runs_at_most_the_cap_per_model(self, rng, monkeypatch):
        tol = 1e-8
        pairs = [(random_ensemble(2, 2, rng), random_ensemble(2, 3, rng)) for _ in range(7)]
        pairs.insert(3, (singleton(random_state(2, 1, rng)), singleton(random_state(2, 2, rng))))
        whole = d_ehs_many(pairs, tol=tol)
        models = kept_models(monkeypatch)
        # 30 instances, as in a verify call at --trials 30: one model
        d_ehs_many([pairs[0]] * 30, tol=tol)
        assert len(models) == 1
        models.clear()
        monkeypatch.setattr(metrics, "EHS_MODEL_INSTANCES", 3)
        capped = d_ehs_many(pairs, tol=tol)
        # the singleton pair takes no model: instances 0-2, 4-6 and 7
        assert len(models) == 3
        for chunk in ([0, 1, 2], [4, 5, 6], [7]):
            alone = d_ehs_many([pairs[t] for t in chunk], tol=tol)
            for t, sol in zip(chunk, alone):
                assert same_solution(capped[t], sol)
        for sol, ref in zip(capped, whole):
            assert abs(sol.value - ref.value) <= tol and sol.gap <= tol
        assert same_solution(capped[3], whole[3])

    def test_two_singletons_need_no_lp(self, rng):
        for d in (2, 3, 5):
            rho, sigma = random_state(d, d, rng), random_state(d, 1, rng)
            sol = d_ehs(singleton(rho), singleton(sigma))
            assert sol.value == 0.5 * trace_norm(rho - sigma)
            assert sol.gap == 0.0
            assert sol.iterations == 0

    def test_brackets_match_nearest_angles_by_loop(self, rng):
        # repeated angles, query angles equal to earlier ones, and a pair
        # (7) with no earlier angle
        ang_pair = rng.integers(0, 6, size=80)
        ang = rng.choice(np.linspace(0.0, np.pi / 2.0, 9), size=80)
        use = np.array([0, 2, 3, 5, 7])
        phi = np.concatenate([rng.choice(ang, size=3), rng.uniform(0.0, np.pi / 2.0, 2)])
        owners, angles = _ehs_brackets(use, phi, ang_pair, ang)
        expected = []
        for side in ("lo", "hi"):
            for f in metrics.EHS_BRACKET_FRACTIONS:
                for k, p in zip(use.tolist(), phi.tolist()):
                    mine = ang[ang_pair == k]
                    if side == "lo" and np.any(mine < p):
                        expected.append((k, p - f * (p - mine[mine < p].max())))
                    if side == "hi" and np.any(mine > p):
                        expected.append((k, p + f * (mine[mine > p].min() - p)))
        assert list(zip(owners.tolist(), angles.tolist())) == expected

    # coefficients that repeat, that differ only in the 12th decimal
    # (distinct keys) or below it (one key), and -0.0 beside 0.0 (one key)
    UNSEEN_VALUES = (0.0, -0.0, 0.123456789012, 0.123456789013, 0.5, 0.5 + 1e-14, -1.0)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(calls=st.lists(st.lists(st.tuples(
        st.integers(0, 3),
        *[st.one_of(st.sampled_from(UNSEEN_VALUES), st.floats(-2.0, 2.0))] * 2),
        max_size=12), min_size=1, max_size=5))
    def test_unseen_keeps_first_occurrences_across_calls(self, calls):
        # calls sharing one seen set, against a first-occurrence loop over a
        # plain list of the key tuples (pair, a, b to 12 decimals, half to even)
        seen, taken = set(), []
        for batch in calls:
            pair = np.array([c[0] for c in batch], dtype=int)
            a = np.array([c[1] for c in batch], dtype=float)
            b = np.array([c[2] for c in batch], dtype=float)
            want = []
            for k, (p, x, y) in enumerate(batch):
                key = (p, round(x * 1e12), round(y * 1e12))
                if key not in taken:
                    taken.append(key)
                    want.append(k)
            fresh = metrics._unseen(seen, pair, a, b)
            assert fresh.dtype == np.int_ and fresh.tolist() == want
        assert len(seen) == len(taken)

    def test_degenerate_inputs_match_kelley_reference(self, monkeypatch):
        # each case on its own (a lone one-pair call) and all in one batch,
        # with every LP kept in a HiGHS model: linprog is never reached, by
        # d_ehs nor by the transport LPs of d_kantorovich, KR and W1
        monkeypatch.setattr(metrics, "linprog", None)
        rng = np.random.default_rng(7150)
        tol = 1e-8
        pure = [random_state(3, 1, rng) for _ in range(4)]
        mixed = [random_state(3, 3, rng) for _ in range(4)]
        shared = Ensemble.from_members(zip((0.3, 0.7), mixed[:2]))
        cases = {
            "zero weights": (Ensemble.from_members(zip((0.0, 0.4, 0.6), mixed[:3])),
                             Ensemble.from_members(zip((0.5, 0.0, 0.5), pure[:3]))),
            "rank 1": (Ensemble.from_members(zip((0.2, 0.8), pure[:2])),
                       Ensemble.from_members(zip((0.6, 0.4), pure[2:]))),
            "n=1, m=4": (singleton(mixed[0]),
                         Ensemble.from_members(zip((0.1, 0.2, 0.3, 0.4), pure))),
            "n=3, m=1": (Ensemble.from_members(zip((0.5, 0.25, 0.25), pure[:3])),
                         singleton(mixed[3])),
            "identical": (shared, shared),
            "two singletons": (singleton(pure[0]), singleton(mixed[0])),
        }
        pairs = list(cases.values())
        batch = d_ehs_many(pairs, tol=tol)
        for (name, (mu, nu)), together in zip(cases.items(), batch):
            alone = d_ehs(mu, nu, tol=tol)
            expected = ehs_kelley_reference(mu, nu, tol)
            for sol in (alone, together):
                assert abs(sol.value - expected) <= tol, name
                assert 0.0 <= sol.gap <= tol, name
                assert np.allclose(sol.plan.sum(axis=1), mu.weights, rtol=0.0, atol=1e-9)
                assert np.allclose(sol.plan_q.sum(axis=0), nu.weights, rtol=0.0, atol=1e-9)
        assert abs(batch[4].value) <= tol
        assert batch[5].iterations == 0
        for (name, (mu, nu)), together in zip(cases.items(), d_kantorovich_many(pairs)):
            cost = 0.5 * np.array([[trace_norm(r - s) for s in nu.states] for r in mu.states])
            expected = transport_bruteforce(cost, mu.weights, nu.weights)
            for value in (d_kantorovich(mu, nu).value, together.value,
                          solve_transport(cost, mu.weights, nu.weights)[0]):
                assert abs(value - expected) <= 1e-9, name
        # 5 x 7 atoms: more than TRANSPORT_START_CELLS each way, so priced
        a = PointMeasure(points=rng.normal(size=(5, 2)), weights=rng.dirichlet(np.ones(5)))
        b = PointMeasure(points=rng.normal(size=(7, 2)) + 1.5,
                         weights=rng.dirichlet(np.ones(7)))
        euclid = np.hypot(*np.moveaxis(a.points[:, None] - b.points[None], -1, 0))
        assert abs(kr_distance(a, b) - kr_dual_lp(a.points, a.weights, b.points, b.weights)) <= 1e-9
        assert abs(kr_modified(a, b) - transport_full_lp(euclid, a.weights, b.weights)) <= 1e-9

    def test_lp_status_other_than_optimal_raises(self):
        # a negative marginal leaves the kept model infeasible
        model = metrics._HighsModel(np.array([-1.0, 1.0]))
        model.add_cols(np.zeros(2), np.array([[0], [1]]))
        with pytest.raises(ConvergenceError, match="model status kInfeasible"):
            model.solve()

    def test_kept_model_takes_the_lp_options(self):
        # the certified gaps rest on LP_OPTIONS; presolve off keeps the basis
        model = metrics._HighsModel(np.array([1.0, 1.0]))
        for key, value in {"presolve": "off", "output_flag": False, **metrics.LP_OPTIONS}.items():
            assert model.highs.getOptionValue(key)[1] == value

    def test_private_highs_api_is_there(self):
        # every LP of the package is kept in scipy's private HiGHS binding;
        # name the first attribute missing if a scipy release renames any of
        # them. The list names every method and solution field the model uses,
        # each read through the accessor the model itself calls.
        core = metrics._highs()
        assert core is scipy.optimize._highspy._core

        api = metrics._HighsModel.HIGHS_API
        source = inspect.getsource(metrics._HighsModel)
        used = {f"_Highs.{f}" for f in re.findall(r"self\.highs\.(\w+)", source)}
        used |= {f"HighsSolution.{f}" for f in re.findall(r"\bsol\.(\w+)", source)}
        assert {"_Highs.addCols", "HighsSolution.row_dual"} <= used <= set(api)
        for name in api:
            obj = core
            for part in name.split("."):
                assert hasattr(obj, part), (
                    f"scipy.optimize._highspy._core lacks {name} (no attribute {part!r})"
                )
                obj = getattr(obj, part)

    def test_highs_loads_by_file_and_is_the_module_scipy_imports_later(self):
        # no part of scipy is imported to reach the binding; a later import of
        # scipy.optimize gets the same module object, and linprog still runs
        res = fresh_python("""
import sys
from qensembles import metrics
core = metrics._highs()
print([m for m in sys.modules if m.split(".")[0] == "scipy" and "_highspy" not in m],
      type(core._Highs()).__name__)
import scipy.optimize
import scipy.optimize._highspy._core as again
print(again is core, scipy.optimize.linprog([1.0], A_eq=[[1.0]], b_eq=[1.0]).status)
""")
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["[]", "_Highs", "True", "0"]

    def test_a_missing_highs_binding_names_its_path(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"/optimize/_highspy/_core\.\*\.so is missing"):
            metrics._highs_path()

    def test_a_missing_scipy_raises_import_error(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy, whose HiGHS binding"):
            metrics._highs_path()

    def test_a_failed_highs_load_leaves_no_module_and_raises_again(self):
        # the binding's name is registered only once it has loaded, so a
        # second call tries again, and a later load succeeds
        res = fresh_python("""
import importlib.machinery, sys
from qensembles import metrics
loader = importlib.machinery.ExtensionFileLoader
real = loader.exec_module
def fail(self, module):
    raise ImportError("load failed")
loader.exec_module = fail
for _ in range(2):
    try:
        metrics._highs()
    except ImportError as exc:
        print(exc, "scipy.optimize._highspy._core" in sys.modules)
loader.exec_module = real
print(type(metrics._highs()._Highs()).__name__)
""")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["load failed False"] * 2 + ["_Highs"]

    def test_tangents_match_checked_stack_bit_for_bit(self, rng, monkeypatch):
        # validated ensembles hold exactly Hermitian stacks, so every
        # cp rho - cq sigma is exactly Hermitian and check_hermitian returns
        # it unchanged: the tangents are those of the checked stack, bit for
        # bit. A skewed state is refused where it enters, by Ensemble.
        real_eigh = np.linalg.eigh
        for d in (2, 3, 5):
            mu = mixed_rank_ensemble(d, 3, rng, zero_weight=True)
            nu = mixed_rank_ensemble(d, 4, rng, zero_weight=False)
            rs, ss = np.repeat(mu.states, 4, axis=0), np.tile(nu.states, (3, 1, 1))
            theta = np.linspace(0.0, np.pi / 2.0, rs.shape[0])
            for cp, cq in ((np.cos(theta), np.sin(theta)),
                           tuple(rng.uniform(0.0, 1.0, size=(2, rs.shape[0])))):
                stack = cp[:, None, None] * rs - cq[:, None, None] * ss
                assert check_hermitian(stack).tobytes() == stack.tobytes()
                unchecked = _ehs_tangents(cp, cq, rs, ss)
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "eigh", lambda h: real_eigh(check_hermitian(h)))
                    checked = _ehs_tangents(cp, cq, rs, ss)
                for got, want in zip(unchecked, checked):
                    assert got.tobytes() == want.tobytes()
        sigma = random_state(2, 2, rng)
        with pytest.raises(ValidationError):
            Ensemble.from_members([(1.0, sigma + np.array([[0.0, 1e-3], [0.0, 0.0]]))])


class TestMetricAxioms:
    def test_quantum_metrics(self, rng):
        ensembles = [random_ensemble(2, 2, rng) for _ in range(3)]
        for metric in (d0, lambda a, b: d_kantorovich(a, b).value):
            d_ab = metric(ensembles[0], ensembles[1])
            d_ba = metric(ensembles[1], ensembles[0])
            d_ac = metric(ensembles[0], ensembles[2])
            d_cb = metric(ensembles[2], ensembles[1])
            assert d_ab == pytest.approx(d_ba, abs=1e-9)
            assert d_ab <= d_ac + d_cb + 1e-8
            assert metric(ensembles[0], ensembles[0]) <= 1e-10

    def test_classical_metrics(self, rng):
        pms = [
            PointMeasure(points=rng.uniform(-1, 1, (3, 2)),
                         weights=rng.dirichlet(np.ones(3)))
            for _ in range(3)
        ]
        for metric in (kr_distance, kr_modified):
            d_ab = metric(pms[0], pms[1])
            d_ba = metric(pms[1], pms[0])
            d_ac = metric(pms[0], pms[2])
            d_cb = metric(pms[2], pms[1])
            assert d_ab == pytest.approx(d_ba, abs=1e-9)
            assert d_ab <= d_ac + d_cb + 1e-8
            assert metric(pms[0], pms[0]) <= 1e-10


# Derandomized property tests on d <= 4, one d_ehs_many call per example. Members
# are rank 1 or full rank, and with zero_weight the first member weighs 0.
_PAIRS = dict(dim=st.integers(2, 4), n=st.integers(1, 3), m=st.integers(1, 3),
              zero_weight=st.booleans(), seed=st.integers(0, 2**32 - 1))
_PROPERTY_TOL = 1e-7


@settings(derandomize=True, max_examples=25, deadline=None)
@given(**_PAIRS)
def test_metrics_are_unitarily_invariant(dim, n, m, zero_weight, seed):
    rng = np.random.default_rng(seed)
    mu = mixed_rank_ensemble(dim, n, rng, zero_weight)
    nu = mixed_rank_ensemble(dim, m, rng, zero_weight)
    rotate = KrausChannel(dim, dim, [random_unitary(dim, rng)])
    umu, unu = rotate.apply_ensemble(mu), rotate.apply_ensemble(nu)
    assert abs(d0(umu, unu) - d0(mu, nu)) <= 1e-9
    assert abs(d_kantorovich(umu, unu).value - d_kantorovich(mu, nu).value) <= 1e-9
    plain, rotated = d_ehs_many([(mu, nu), (umu, unu)], tol=_PROPERTY_TOL)
    assert abs(rotated.value - plain.value) <= _PROPERTY_TOL + 1e-9


@settings(derandomize=True, max_examples=25, deadline=None)
@given(**_PAIRS, dim_out=st.integers(2, 4), env=st.integers(1, 3))
def test_ehs_obeys_data_processing(dim, n, m, zero_weight, seed, dim_out, env):
    rng = np.random.default_rng(seed)
    mu = mixed_rank_ensemble(dim, n, rng, zero_weight)
    nu = mixed_rank_ensemble(dim, m, rng, zero_weight)
    chan = random_channel(dim, dim_out, max(env, math.ceil(dim / dim_out)), rng)
    before, after = d_ehs_many(
        [(mu, nu), (chan.apply_ensemble(mu), chan.apply_ensemble(nu))], tol=_PROPERTY_TOL)
    assert after.value <= before.value + 2.0 * _PROPERTY_TOL


# Triangle inequality on d <= 3: singletons, zero weights, rank-1 members and
# n != m are all drawn. d_ehs values sit within tol above the distance, so the
# triangle holds for them within 3 tol.
_TRIPLES = dict(dim=st.integers(2, 3), n=st.integers(1, 3), m=st.integers(1, 3),
                k=st.integers(1, 3), zero_weight=st.booleans(),
                seed=st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(**_TRIPLES)
def test_dk_and_ehs_obey_the_triangle_inequality(dim, n, m, k, zero_weight, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (mixed_rank_ensemble(dim, size, rng, zero_weight) for size in (n, m, k))
    pairs = [(a, c), (a, b), (b, c)]
    ac, ab, bc = (sol.value for sol in d_kantorovich_many(pairs))
    assert ac <= ab + bc + 1e-9
    ac, ab, bc = (sol.value for sol in d_ehs_many(pairs, tol=_PROPERTY_TOL))
    assert ac <= ab + bc + 3.0 * _PROPERTY_TOL


@settings(derandomize=True, max_examples=25, deadline=None)
@given(dim=st.integers(2, 3), n=st.integers(1, 3), zero_weight=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_d0_obeys_the_triangle_inequality(dim, n, zero_weight, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (mixed_rank_ensemble(dim, n, rng, zero_weight) for _ in range(3))
    assert d0(a, c) <= d0(a, b) + d0(b, c) + 1e-12


def coherent_grids():
    """The two subsampled grids of `repro coherent` at its defaults."""
    n_mean, delta = 1.0, 0.5
    half = int(math.ceil(6.0 * math.sqrt(n_mean / 2.0) / delta))
    radius_sq = n_mean * math.log(1000.0)
    measures = []
    for step, cells in ((delta, half), (delta / 2.0, 2 * half)):
        pts, wts = gaussian_grid_measure(n_mean, step, cells)
        keep = np.sum(pts**2, axis=1) <= radius_sq
        measures.append(PointMeasure(points=pts[keep], weights=wts[keep] / wts[keep].sum()))
    return measures


class TestKRDistances:
    def test_identical(self):
        pm = PointMeasure(points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                          weights=np.array([0.4, 0.6]))
        assert kr_distance(pm, pm) == pytest.approx(0.0, abs=1e-10)
        assert kr_modified(pm, pm) == pytest.approx(0.0, abs=1e-10)

    def test_two_atoms_close(self):
        a = PointMeasure(points=np.array([[0.0, 0.0]]), weights=np.array([1.0]))
        b = PointMeasure(points=np.array([[0.5, 0.0]]), weights=np.array([1.0]))
        assert kr_distance(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_two_atoms_far(self):
        a = PointMeasure(points=np.array([[0.0, 0.0]]), weights=np.array([1.0]))
        b = PointMeasure(points=np.array([[5.0, 0.0]]), weights=np.array([1.0]))
        assert kr_distance(a, b) == pytest.approx(2.0, abs=1e-9)
        assert kr_modified(a, b) == pytest.approx(5.0, abs=1e-9)

    def test_small_diameter_agreement(self, rng):
        pts1 = 0.4 * rng.uniform(0, 1, (3, 2))
        pts2 = 0.4 * rng.uniform(0, 1, (4, 2))
        a = PointMeasure(points=pts1, weights=rng.dirichlet(np.ones(3)))
        b = PointMeasure(points=pts2, weights=rng.dirichlet(np.ones(4)))
        assert kr_distance(a, b) == pytest.approx(kr_modified(a, b), abs=1e-8)


    def test_matches_dual_lp_oracle(self):
        rng = np.random.default_rng(11)
        capped = 0
        for _ in range(200):
            n, m = rng.integers(1, 7, size=2)
            spread = rng.uniform(0.1, 3.0)
            a = PointMeasure(points=rng.normal(scale=spread, size=(n, 2)),
                             weights=rng.dirichlet(np.ones(n)))
            b = PointMeasure(points=rng.normal(scale=spread, size=(m, 2)),
                             weights=rng.dirichlet(np.ones(m)))
            oracle = kr_dual_lp(a.points, a.weights, b.points, b.weights)
            assert kr_distance(a, b) == pytest.approx(oracle, abs=1e-9)
            gaps = a.points[:, None, :] - b.points[None, :, :]
            capped += bool(np.any(np.hypot(gaps[..., 0], gaps[..., 1]) > 2.0))
        assert capped > 50  # the min(d, 2) cap is exercised, not just W1

    def test_matches_dual_lp_oracle_on_coherent_grids(self):
        a, b = coherent_grids()
        assert (a.weights.size, b.weights.size) == (88, 348)
        oracle = kr_dual_lp(a.points, a.weights, b.points, b.weights)
        assert kr_distance(a, b) == pytest.approx(oracle, abs=1e-9)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 7), n1=st.integers(1, 9), n2=st.integers(1, 9))
    def test_ground_distance_equals_the_3d_reduction(self, data, dim, n1, n2):
        # oracle: the (n1, n2, m) difference array summed along its short
        # last axis, which numpy adds in order for m < 8; points of any
        # magnitude, so squares underflow, are subnormal or overflow to inf
        coords = st.floats(allow_nan=False, allow_infinity=False)
        pts = [data.draw(arrays(np.float64, (k, dim), elements=coords)) for k in (n1, n2)]
        a, b = (PointMeasure(points=p, weights=np.full(len(p), 1.0 / len(p))) for p in pts)
        with np.errstate(over="ignore"):
            diff = a.points[:, None, :] - b.points[None, :, :]
            expected = np.sqrt(np.sum(diff * diff, axis=2))
            got = metrics._ground_distance(a, b)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_coherent_grid_lp_is_solved_once(self):
        # the start cells already hold the optimal support of the KR LP of
        # `repro coherent`, so the first solve prices nothing in
        a, b = coherent_grids()
        cost = np.minimum(metrics._ground_distance(a, b), 2.0)
        sol = metrics._solve_transports([(cost, a.weights, b.weights)])[0]
        assert sol.iterations == 1
        assert sol.value == kr_distance(a, b)
        assert sol.value == pytest.approx(transport_full_lp(cost, a.weights, b.weights),
                                          abs=1e-12)


class TestContinuousD0Shadow:
    def test_grid_families(self, rng):
        # discretized parametric families obey the memberwise integral bound
        xs = np.linspace(0.0, 1.0, 6)
        p = np.exp(-xs)
        p /= p.sum()
        q = np.exp(-2 * xs)
        q /= q.sum()

        def rho_of(x):
            c, s = math.cos(0.7 * x), math.sin(0.7 * x)
            v = np.array([c, s], dtype=complex)
            return np.outer(v, v.conj())

        def sigma_of(x):
            return 0.8 * rho_of(x) + 0.2 * np.eye(2) / 2

        mu = Ensemble.from_members([(pi, rho_of(x)) for pi, x in zip(p, xs)])
        nu = Ensemble.from_members([(qi, sigma_of(x)) for qi, x in zip(q, xs)])
        grid_bound = 0.5 * sum(
            trace_norm(pi * rho_of(x) - qi * sigma_of(x))
            for pi, qi, x in zip(p, q, xs)
        )
        assert d_ehs(mu, nu, tol=1e-7).value <= grid_bound + 1e-6
