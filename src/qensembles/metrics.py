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
from .linalg import HERM_TOL, trace_norm

# d_ehs seeds each pair with tangents at this many angles spread evenly over
# [0, pi/2], the quadrant where every (P_ij, Q_ij) lies
EHS_SEED_ANGLES = 9
EHS_MAX_ROUNDS = 200
# fractions of the way from a round's tangent angle to its neighbours at which
# d_ehs adds further tangents
EHS_BRACKET_FRACTIONS = (0.1, 0.5)
# eigenvalues within this of zero get sign 0, as in linalg.sign_operator
SIGN_TOL = 1e-12

# transport LPs with at most this many cells get a dense A_eq: scipy's sparse
# path costs more below it (dense won at 12 x 12 cells, CSC at 16 x 16)
TRANSPORT_DENSE_CELLS = 200

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
    # cell k = i*m + j is in marginal rows i and n + j
    k = np.arange(n * m)
    if n * m <= TRANSPORT_DENSE_CELLS:
        a_eq = np.zeros((n + m, n * m))
        a_eq[k // m, k] = 1.0
        a_eq[n + k % m, k] = 1.0
    else:
        # sparse since the dense matrix is (n + m) x nm, CSC since linprog
        # hands that layout to HiGHS
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


def _hermitian_stack(mats):
    # check_hermitian over a stack of operators: raise past HERM_TOL, else
    # return the Hermitian parts
    adj = mats.conj().swapaxes(-1, -2)
    dev = float(np.max(np.abs(mats - adj))) if mats.size else 0.0
    if dev > HERM_TOL:
        raise ValidationError(f"operator is not Hermitian (deviation {dev:.3e} > {HERM_TOL})")
    return (mats + adj) / 2


def d_kantorovich(mu, nu):
    """Kantorovich distance: transportation LP with cost half the trace distance."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"ensemble dims {mu.dim} and {nu.dim} differ")
    diffs = np.stack(mu.states)[:, None] - np.stack(nu.states)[None, :]
    cost = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(_hermitian_stack(diffs))), axis=-1)
    value, plan = solve_transport(cost, mu.weights, nu.weights)
    return CouplingSolution(value=value, plan=plan)


def _ehs_tangents(cp, cq, rs, ss):
    """Tangent cuts of f_k(p, q) = ||p rho_k - q sigma_k||_1 at (cp_k, cq_k).

    One eigendecomposition of the stack cp_k rho_k - cq_k sigma_k gives its
    sign operators X_k, hence the cuts (Tr X_k rho_k, -Tr X_k sigma_k), and
    its absolute eigenvalue sums, hence f_k(cp_k, cq_k) itself.
    """
    w, v = np.linalg.eigh(
        _hermitian_stack(cp[:, None, None] * rs - cq[:, None, None] * ss)
    )
    s = np.where(w > SIGN_TOL, 1.0, np.where(w < -SIGN_TOL, -1.0, 0.0))
    x_ops = (v * s[:, None, :]) @ v.conj().swapaxes(-1, -2)
    a = np.einsum("kij,kji->k", x_ops, rs).real
    b = -np.einsum("kij,kji->k", x_ops, ss).real
    return a, b, np.sum(np.abs(w), axis=1)


def _unseen(seen, owner, a, b):
    # indices of the cuts whose (pair, a, b) to 12 digits is not yet in seen
    fresh = []
    for r, (k, x, y) in enumerate(zip(owner.tolist(), a.tolist(), b.tolist())):
        key = (k, round(x, 12), round(y, 12))
        if key not in seen:
            seen.add(key)
            fresh.append(r)
    return fresh


def _ehs_brackets(use, phi, ang_pair, ang):
    # for each pair in use, the angles a fraction f of the way from phi to the
    # nearest earlier tangent angle of that pair on each side, if there is one
    same = ang_pair[None, :] == use[:, None]
    lo = np.max(np.where(same & (ang < phi[:, None]), ang, -np.inf), axis=1)
    hi = np.min(np.where(same & (ang > phi[:, None]), ang, np.inf), axis=1)
    f = np.array(EHS_BRACKET_FRACTIONS)[:, None]
    angles = np.concatenate([phi - f * (phi - lo), phi + f * (hi - phi)]).ravel()
    owners = np.tile(use, 2 * f.size)
    keep = np.isfinite(angles)
    return owners[keep], angles[keep]


def d_ehs(mu, nu, tol=1e-6, max_rounds=EHS_MAX_ROUNDS):
    """Coupling-program ensemble distance by cutting planes with a certified gap.

    The objective 1/2 sum_ij ||P_ij rho_i - Q_ij sigma_j||_1 over couplings
    (P marginal to mu's weights over j, Q marginal to nu's weights over i) is
    convex and positively homogeneous per pair, so every dual operator X with
    ||X|| <= 1 yields the linear underestimate Tr(X rho_i) p - Tr(X sigma_j) q.
    The epigraph LP over accumulated cuts gives a lower bound; evaluating the
    exact objective at its solution gives an upper bound; cuts regenerate from
    the sign operator of the incumbent until upper - lower <= tol. The cuts
    start from the identity cuts and the tangents at EHS_SEED_ANGLES angles
    across [0, pi/2]. Each round also adds, per pair in use, the tangents at
    the angles given by EHS_BRACKET_FRACTIONS between the incumbent's angle
    atan2(Q_ij, P_ij) and the nearest earlier tangent angle on each side,
    which needs fewer rounds than the incumbent's tangent alone (Kelley's
    method). Two singletons have the one plan P = Q = 1 and need no LP.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"ensemble dims {mu.dim} and {nu.dim} differ")
    n, m = len(mu), len(nu)
    if n == m == 1:
        (p, rho), (q, sigma) = mu.members[0], nu.members[0]
        return CouplingSolution(
            value=0.5 * trace_norm(p * rho - q * sigma),
            plan=np.array([[p]]),
            plan_q=np.array([[q]]),
            iterations=0,
            gap=0.0,
        )
    nm = n * m
    # pair k = i*m + j couples rho_i with sigma_j
    rs = np.repeat(np.stack(mu.states), m, axis=0)
    ss = np.tile(np.stack(nu.states), (n, 1, 1))
    pairs = np.arange(nm)

    thetas = np.tile(np.linspace(0.0, np.pi / 2.0, EHS_SEED_ANGLES), nm)
    seed_pair = np.repeat(pairs, EHS_SEED_ANGLES)
    seed_a, seed_b, _ = _ehs_tangents(
        np.cos(thetas), np.sin(thetas), rs[seed_pair], ss[seed_pair]
    )
    cut_pair = np.concatenate([np.repeat(pairs, 2), seed_pair])
    cut_a = np.concatenate([np.tile([1.0, -1.0], nm), seed_a])
    cut_b = np.concatenate([np.tile([-1.0, 1.0], nm), seed_b])
    seen = set()
    fresh = _unseen(seen, cut_pair, cut_a, cut_b)
    cut_pair, cut_a, cut_b = cut_pair[fresh], cut_a[fresh], cut_b[fresh]
    # the angles in [0, pi/2] of the tangents made so far
    ang_pair, ang = seed_pair, thetas

    a_eq = np.zeros((n + m, 3 * nm))
    a_eq[pairs // m, pairs] = 1.0
    a_eq[n + pairs % m, nm + pairs] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights])
    objective = np.concatenate([np.zeros(2 * nm), 0.5 * np.ones(nm)])

    best_value = np.inf
    best_plans = None
    lower = 0.0
    for rounds in range(1, max_rounds + 1):
        rows = np.arange(cut_pair.size)
        a_ub = np.zeros((cut_pair.size, 3 * nm))
        a_ub[rows, cut_pair] = cut_a
        a_ub[rows, nm + cut_pair] = cut_b
        a_ub[rows, 2 * nm + cut_pair] = -1.0
        res = linprog(
            objective,
            A_ub=a_ub,
            b_ub=np.zeros(cut_pair.size),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
            options=LP_OPTIONS,
        )
        if not res.success:
            raise ConvergenceError(f"cutting-plane LP failed: {res.message}")
        lower = float(res.fun)
        plan_p, plan_q = res.x[:nm], res.x[nm : 2 * nm]
        # pairs with P_ij = Q_ij = 0 add nothing to the objective
        use = pairs[(plan_p > 0.0) | (plan_q > 0.0)]
        phi = np.arctan2(plan_q[use], plan_p[use])
        new_pair, new_ang = _ehs_brackets(use, phi, ang_pair, ang)
        owner = np.concatenate([use, new_pair])
        new_a, new_b, norms = _ehs_tangents(
            np.concatenate([plan_p[use], np.cos(new_ang)]),
            np.concatenate([plan_q[use], np.sin(new_ang)]),
            rs[owner],
            ss[owner],
        )
        upper = 0.5 * float(np.sum(norms[: use.size]))
        if upper < best_value:
            best_value = upper
            best_plans = (plan_p.reshape(n, m), plan_q.reshape(n, m))
        gap = max(best_value - lower, 0.0)
        if gap <= tol:
            return CouplingSolution(
                value=best_value,
                plan=best_plans[0],
                plan_q=best_plans[1],
                iterations=rounds,
                gap=gap,
            )
        ang_pair = np.concatenate([ang_pair, owner])
        ang = np.concatenate([ang, phi, new_ang])
        fresh = _unseen(seen, owner, new_a, new_b)
        cut_pair = np.concatenate([cut_pair, owner[fresh]])
        cut_a = np.concatenate([cut_a, new_a[fresh]])
        cut_b = np.concatenate([cut_b, new_b[fresh]])
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
