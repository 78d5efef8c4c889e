"""Distances between ensembles and between classical point measures.

Four ensemble metrics: the memberwise metric d0 on ordered ensembles, the
Kantorovich distance (transportation LP over half trace distances), the
easy upper bound on it, and the coupling-program distance d_ehs solved by a
certified cutting-plane method. Classical point measures get the
Kantorovich-Rubinshtein distance and its modified (Wasserstein-1) form, both
solved as transportation LPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from .errors import ConvergenceError, DimensionMismatch, ValidationError
from .ensembles import Ensemble
from .linalg import sign_operator, trace_norm

EHS_SEED_ANGLES = 8
EHS_MAX_ROUNDS = 200

# HiGHS defaults sit near 1e-7; certified gaps below that need tighter solves
LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class PointMeasure:
    """Finitely supported probability measure on R^m (m=2 encodes the plane)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != w.size:
            raise ValidationError("points and weights have mismatched shapes")
        if np.any(w < -1e-10):
            raise ValidationError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > 1e-10:
            raise ValidationError(f"weights sum to {np.sum(w)}, expected 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))

    @property
    def size(self):
        return self.weights.size


@dataclass(frozen=True)
class CouplingSolution:
    """Result of a coupling program: optimal value, plan(s), certificate data."""

    value: float
    plan: np.ndarray | None = None
    plan_q: np.ndarray | None = None
    iterations: int = 1
    gap: float = 0.0


def _padded_members(mu, nu):
    # pad the shorter ordered ensemble with zero-weight copies of a fixed state
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"ensemble dims {mu.dim} and {nu.dim} differ")
    a, b = list(mu.members), list(nu.members)
    filler = np.eye(mu.dim, dtype=complex) / mu.dim
    while len(a) < len(b):
        a.append((0.0, filler))
    while len(b) < len(a):
        b.append((0.0, filler))
    return a, b


def d0(mu, nu):
    """Ordered-ensemble metric: half the summed trace norms of p_i rho_i - q_i sigma_i."""
    a, b = _padded_members(mu, nu)
    return 0.5 * sum(trace_norm(p * r - q * s) for (p, r), (q, s) in zip(a, b))


def dk_upper(mu, nu):
    """Easy upper bound on the Kantorovich distance between ordered ensembles."""
    a, b = _padded_members(mu, nu)
    total = 0.0
    for (p, r), (q, s) in zip(a, b):
        total += min(p, q) * trace_norm(r - s) + abs(p - q)
    return 0.5 * total


def solve_transport(cost, p, q):
    """Exact transportation LP: min <cost, plan> with marginals p (rows), q (cols)."""
    cost = np.asarray(cost, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, m = cost.shape
    # cell k = i*m + j is in marginal rows i and n + j; sparse since the dense
    # matrix is (n + m) x nm, CSC since linprog hands that layout to HiGHS
    k = np.arange(n * m)
    a_eq = csc_matrix(
        (np.ones(2 * n * m), np.column_stack([k // m, n + k % m]).ravel(),
         np.arange(0, 2 * n * m + 1, 2)),
        shape=(n + m, n * m),
    )
    b_eq = np.concatenate([p, q])
    res = linprog(
        cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options=LP_OPTIONS,
    )
    if not res.success:
        raise ConvergenceError(f"transportation LP failed: {res.message}")
    return float(res.fun), res.x.reshape(n, m)


def d_kantorovich(mu, nu):
    """Kantorovich distance: transportation LP with cost half the trace distance."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"ensemble dims {mu.dim} and {nu.dim} differ")
    cost = np.array(
        [
            [0.5 * trace_norm(r - s) for _, s in nu.members]
            for _, r in mu.members
        ]
    )
    value, plan = solve_transport(cost, mu.weights, nu.weights)
    return CouplingSolution(value=value, plan=plan)


def _ehs_cut(x_op, rho, sigma):
    # subgradient cut of f(p, q) = ||p rho - q sigma||_1 from a dual operator X
    a = float(np.trace(x_op @ rho).real)
    b = -float(np.trace(x_op @ sigma).real)
    return a, b


def _ehs_seed_cuts(rho, sigma):
    cuts = [(1.0, -1.0), (-1.0, 1.0)]
    for theta in np.linspace(0.0, 2.0 * np.pi, EHS_SEED_ANGLES, endpoint=False):
        x_op = sign_operator(np.cos(theta) * rho - np.sin(theta) * sigma)
        cuts.append(_ehs_cut(x_op, rho, sigma))
    return cuts


def _ehs_eval(plan_p, plan_q, rhos, sigmas):
    total = 0.0
    for i, rho in enumerate(rhos):
        for j, sigma in enumerate(sigmas):
            p, q = plan_p[i, j], plan_q[i, j]
            if p > 0.0 or q > 0.0:
                total += trace_norm(p * rho - q * sigma)
    return 0.5 * total


def d_ehs(mu, nu, tol=1e-6, max_rounds=EHS_MAX_ROUNDS):
    """Coupling-program ensemble distance by cutting planes with a certified gap.

    The objective 1/2 sum_ij ||P_ij rho_i - Q_ij sigma_j||_1 over couplings
    (P marginal to mu's weights over j, Q marginal to nu's weights over i) is
    convex and positively homogeneous per pair, so every dual operator X with
    ||X|| <= 1 yields the linear underestimate Tr(X rho_i) p - Tr(X sigma_j) q.
    The epigraph LP over accumulated cuts gives a lower bound; evaluating the
    exact objective at its solution gives an upper bound; cuts regenerate from
    the sign operator of the incumbent until upper - lower <= tol.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"ensemble dims {mu.dim} and {nu.dim} differ")
    rhos = [s for _, s in mu.members]
    sigmas = [s for _, s in nu.members]
    n, m = len(rhos), len(sigmas)
    cuts = [[_ehs_seed_cuts(rhos[i], sigmas[j]) for j in range(m)] for i in range(n)]
    seen = [
        [{(round(a, 12), round(b, 12)) for a, b in cuts[i][j]} for j in range(m)]
        for i in range(n)
    ]

    nm = n * m
    a_eq = np.zeros((n + m, 3 * nm))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, nm + j : 2 * nm : m] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights])
    objective = np.concatenate([np.zeros(2 * nm), 0.5 * np.ones(nm)])

    best_value = np.inf
    best_plans = None
    lower = 0.0
    for rounds in range(1, max_rounds + 1):
        rows = []
        for i in range(n):
            for j in range(m):
                k = i * m + j
                for a, b in cuts[i][j]:
                    row = np.zeros(3 * nm)
                    row[k] = a
                    row[nm + k] = b
                    row[2 * nm + k] = -1.0
                    rows.append(row)
        res = linprog(
            objective,
            A_ub=np.array(rows),
            b_ub=np.zeros(len(rows)),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * (2 * nm) + [(0, None)] * nm,
            method="highs",
            options=LP_OPTIONS,
        )
        if not res.success:
            raise ConvergenceError(f"cutting-plane LP failed: {res.message}")
        lower = float(res.fun)
        plan_p = res.x[:nm].reshape(n, m)
        plan_q = res.x[nm : 2 * nm].reshape(n, m)
        upper = _ehs_eval(plan_p, plan_q, rhos, sigmas)
        if upper < best_value:
            best_value = upper
            best_plans = (plan_p.copy(), plan_q.copy())
        gap = max(best_value - lower, 0.0)
        if gap <= tol:
            return CouplingSolution(
                value=best_value,
                plan=best_plans[0],
                plan_q=best_plans[1],
                iterations=rounds,
                gap=gap,
            )
        for i in range(n):
            for j in range(m):
                diff = plan_p[i, j] * rhos[i] - plan_q[i, j] * sigmas[j]
                x_op = sign_operator(diff)
                cut = _ehs_cut(x_op, rhos[i], sigmas[j])
                key = (round(cut[0], 12), round(cut[1], 12))
                if key not in seen[i][j]:
                    seen[i][j].add(key)
                    cuts[i][j].append(cut)
    raise ConvergenceError(
        f"cutting plane did not reach tol={tol} in {max_rounds} rounds",
        gap=max(best_value - lower, 0.0),
    )


def _ground_distance(p1, p2):
    if p1.points.shape[1] != p2.points.shape[1]:
        raise DimensionMismatch("point measures live in different ambient spaces")
    diff = p1.points[:, None, :] - p2.points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def kr_distance(p1: PointMeasure, p2: PointMeasure):
    """Kantorovich-Rubinshtein (bounded-Lipschitz) distance.

    The dual max sum f (w1 - w2) over |f| <= 1 and |f(x) - f(y)| <= d(x, y)
    equals Wasserstein-1 under the truncated metric min(d, 2) (KR duality: for
    a zero-mass signed measure |f| <= 1 is the same as oscillation <= 2).
    """
    cost = np.minimum(_ground_distance(p1, p2), 2.0)
    value, _ = solve_transport(cost, p1.weights, p2.weights)
    return value


def kr_modified(p1: PointMeasure, p2: PointMeasure):
    """Modified KR distance: Wasserstein-1 transportation LP over Euclidean cost."""
    cost = _ground_distance(p1, p2)
    value, _ = solve_transport(cost, p1.weights, p2.weights)
    return value
