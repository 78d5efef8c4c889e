"""Distances between ensembles and between classical point measures.

Four ensemble metrics: the memberwise metric d0 on ordered ensembles, the
Kantorovich distance (transportation LP over half trace distances), the
easy upper bound on it, and the coupling-program distance d_ehs solved by a
certified cutting-plane method. Classical point measures get the
Kantorovich-Rubinshtein distance and its modified (Wasserstein-1) form, both
solved as transportation LPs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatch, ValidationError
from .ensembles import _check_weights
from .linalg import SIGN_TOL, _trace_norm

# d_ehs seeds each pair with tangents at this many angles spread evenly over
# [0, pi/2], the quadrant where every (P_ij, Q_ij) lies
EHS_SEED_ANGLES = 9
EHS_MAX_ROUNDS = 200
# fractions of the way from a round's tangent angle to its neighbours at which
# d_ehs adds further tangents
EHS_BRACKET_FRACTIONS = (0.1, 0.5)
# d_ehs_many runs its lockstep cutting plane on at most this many instances
# per HiGHS model, since HiGHS time grows faster than the model: criterion
# 4's 1,000 pairs at tol 1e-8 took 3.4 s in one model, 2.2 s in models of
# 160 and 2.0 s in models of 80 (one BLAS thread). Calls of up to this many,
# such as verify's 30 trials, stay whole.
EHS_MODEL_INSTANCES = 80
# a transport LP block with more rows and columns than this starts its priced
# LP from each row's and each column's this many cheapest cells and a
# northwest-corner plan, not from every cell: on the 88 x 348 KR grid of
# `repro coherent` that is 1,607 of 30,624 cells, which already hold the
# optimal support, so one HiGHS solve (486 simplex iterations) certifies it;
# 3 cells needed a second solve (494 + 257). Median kr_distance time there,
# one BLAS thread, 100 interleaved calls each: 11.7 ms at 3 cells, 8.0 at 4,
# 8.4 at 5, 8.5 at 6
TRANSPORT_START_CELLS = 4
# largest Euclidean cost kr_modified passes to its LP: HiGHS ended a 2 x 2
# transport LP in kSolveError at costs of 9.9e17 to 1e19, and in kUnknown
# from its infinite cost, 1e20, up
_KR_COST_CAP = 1e15

# HiGHS defaults sit near 1e-7; certified gaps below that need tighter solves
LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@functools.cache
def _highs():
    # scipy.optimize loads on the first LP, not on import: it is most of the
    # import time of the package, and the closed-form bounds never need it
    from scipy.optimize._highspy import _core

    return _core


def __getattr__(name):
    # metrics.linprog stays bound for perfbench's tracer, which wraps it by
    # name; no LP of the package calls it. Imported on first access, then
    # kept in the module dict, where the tracer's binding sweep finds it.
    if name == "linprog":
        from scipy.optimize import linprog

        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class PointMeasure:
    """Finitely supported probability measure on R^m (m=2 encodes the plane)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or w.ndim != 1 or pts.shape[0] != w.size:
            raise ValidationError(
                f"points must be (n, m) and weights (n,), got shapes {pts.shape} and {w.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", _check_weights(w, "weights"))


@dataclass(frozen=True)
class CouplingSolution:
    """Result of a coupling program: optimal value, plan(s), certificate data."""

    value: float
    plan: np.ndarray | None = None
    plan_q: np.ndarray | None = None
    iterations: int = 1
    gap: float = 0.0


def _padded_members(mu, nu):
    # weights (n,) and states (n, d, d) of both ordered ensembles, the shorter
    # padded with zero-weight copies of the maximally mixed state
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"ensemble dims {mu.dim} and {nu.dim} differ")
    n = max(len(mu), len(nu))
    filler = np.eye(mu.dim, dtype=complex) / mu.dim

    def pad(e):
        extra = n - len(e)
        return (np.concatenate([e.weights, np.zeros(extra)]),
                np.concatenate([e.states, np.broadcast_to(filler, (extra,) + filler.shape)]))

    return pad(mu) + pad(nu)


def d0(mu, nu):
    """Ordered-ensemble metric: half the summed trace norms of p_i rho_i - q_i sigma_i."""
    p, r, q, s = _padded_members(mu, nu)
    return 0.5 * float(np.sum(_trace_norm(p[:, None, None] * r - q[:, None, None] * s)))


def dk_upper(mu, nu):
    """Easy upper bound on the Kantorovich distance between ordered ensembles."""
    p, r, q, s = _padded_members(mu, nu)
    return 0.5 * float(np.sum(np.minimum(p, q) * _trace_norm(r - s) + np.abs(p - q)))


def _marginal_rows(n, m):
    """Marginal rows of the cells of a block-diagonal LP of n_b x m_b blocks.

    Block b owns n_b + m_b consecutive rows; its cell k = i*m_b + j (global
    cells run over the blocks in turn) lies in the block's i-th row and in its
    (n_b + j)-th row. Returns the block, the i-row and the j-row of each cell.
    """
    cells = n * m
    block = np.repeat(np.arange(n.size), cells)
    start = np.cumsum(n + m) - (n + m)
    k = np.arange(int(cells.sum())) - (np.cumsum(cells) - cells)[block]
    return block, start[block] + k // m[block], start[block] + n[block] + k % m[block]


class _HighsModel:
    """A min-cost LP over columns x >= 0, kept as one HiGHS model across solves.

    Its equality rows (right-hand sides b_eq) go in once with passModel;
    columns join with add_cols and rows with add_rows, and each solve re-runs
    from the last optimal basis (presolve off, the LP_OPTIONS tolerances).
    Every LP of the package runs here. This is the one place that uses
    scipy's private HiGHS binding (the class its linprog drives), reached
    through _highs() and the names in HIGHS_API.
    """

    HIGHS_API = (
        "_Highs.passModel", "_Highs.addCols", "_Highs.addRows", "_Highs.run",
        "_Highs.getSolution", "_Highs.getModelStatus", "_Highs.setOptionValue",
        "HighsSolution.col_value", "HighsSolution.row_dual",
        "HighsModelStatus.kOptimal", "kHighsInf",
        *(f"HighsLp.{f}_" for f in ("num_row", "row_lower", "row_upper")),
    )

    def __init__(self, b_eq):
        lp = _highs().HighsLp()
        lp.num_row_ = b_eq.size
        lp.row_lower_ = lp.row_upper_ = b_eq
        self.highs = _highs()._Highs()
        for key, value in {"output_flag": False, "presolve": "off", **LP_OPTIONS}.items():
            self.highs.setOptionValue(key, value)
        self.highs.passModel(lp)

    def add_cols(self, cost, rows):
        # one column per cost, with coefficient 1 in each row of its row of rows
        k, w = rows.shape
        self.highs.addCols(
            k, cost, np.zeros(k), np.full(k, _highs().kHighsInf), k * w,
            w * np.arange(k, dtype=np.int32), rows.astype(np.int32).ravel(),
            np.ones(k * w),
        )

    def add_rows(self, cols, values):
        # one row sum values * x[cols] <= 0 per row of cols and values
        k, w = cols.shape
        self.highs.addRows(
            k, np.full(k, -_highs().kHighsInf), np.zeros(k), k * w,
            w * np.arange(k, dtype=np.int32), cols.astype(np.int32).ravel(),
            values.ravel(),
        )

    def solve(self):
        """Column values and row duals at the optimum of the LP so far."""
        self.highs.run()
        status = self.highs.getModelStatus()
        if status != _highs().HighsModelStatus.kOptimal:
            raise ConvergenceError(f"LP failed: model status {status.name}")
        sol = self.highs.getSolution()
        return np.array(sol.col_value), np.array(sol.row_dual)


def solve_transport(cost, p, q):
    """Exact transportation LP: min <cost, plan> with marginals p (rows), q (cols)."""
    sol = _solve_transports([(cost, p, q)])[0]
    return sol.value, sol.plan


def _start_cells(cost, p, q):
    # the cells a block's priced LP starts from: all of them when the block
    # has at most TRANSPORT_START_CELLS rows or columns; otherwise each row's
    # and each column's TRANSPORT_START_CELLS cheapest cells and the cells of
    # the northwest-corner plan, which keep the restricted LP feasible
    k = TRANSPORT_START_CELLS
    if min(cost.shape) <= k:
        return np.ones(cost.shape, dtype=bool)
    keep = np.zeros(cost.shape, dtype=bool)
    np.put_along_axis(keep, np.argpartition(cost, k - 1, axis=1)[:, :k], True, axis=1)
    np.put_along_axis(keep, np.argpartition(cost, k - 1, axis=0)[:k], True, axis=0)
    # the northwest-corner staircase: from (0, 0), step down at each row's
    # cumulative mass and right at each column's, in increasing order (rows
    # first on a tie), which visits n + m - 1 cells
    ends = np.concatenate([np.cumsum(p)[:-1], np.cumsum(q)[:-1]])
    down = np.argsort(ends, kind="stable") < cost.shape[0] - 1
    keep[np.concatenate([[0], np.cumsum(down)]), np.concatenate([[0], np.cumsum(~down)])] = True
    return keep


def _solve_transports(problems):
    """Transportation LPs (cost, p, q), solved as one block-diagonal LP priced
    by column generation; one CouplingSolution per problem.

    The LP is kept as one HiGHS model (_HighsModel): its rows are every
    block's marginal rows, and its columns are the cells included so far,
    starting from _start_cells. Each round solves it, warm from the last
    optimal basis after the first, reads the duals (u, v) of its marginal
    rows and prices every cell by its reduced cost c_ij - u_i - v_j. Each
    row's and each column's most negative excluded cell joins the model as a
    new column. Once no excluded cell prices below
    -dual_feasibility_tolerance, (u, v) is dual feasible on the full LP, so
    the restricted optimum is the full one to the tolerance HiGHS certifies.
    A block's value is sum cost * plan; iterations counts the rounds; gap is
    the largest dual violation over all cells of a block times the block's
    mass, a bound on how far its value can sit above the full optimum.
    Raises ConvergenceError if an LP ends in any model status but optimal.
    """
    if not problems:
        return []
    costs = [np.asarray(c, dtype=float) for c, _, _ in problems]
    n = np.array([c.shape[0] for c in costs])
    m = np.array([c.shape[1] for c in costs])
    block, rows_p, rows_q = _marginal_rows(n, m)
    c = np.concatenate([cost.reshape(-1) for cost in costs])
    included = np.concatenate(
        [_start_cells(cost, p, q).reshape(-1) for cost, (_, p, q) in zip(costs, problems)]
    )
    model = _HighsModel(np.concatenate(
        [np.asarray(w, dtype=float) for _, p, q in problems for w in (p, q)]
    ))
    # cells[k] is the cell of the model's column k
    cells = new = np.flatnonzero(included)
    tol = LP_OPTIONS["dual_feasibility_tolerance"]
    rounds = 0
    while True:
        rounds += 1
        model.add_cols(c[new], np.column_stack([rows_p[new], rows_q[new]]))
        x_cells, duals = model.solve()
        reduced = c - duals[rows_p] - duals[rows_q]
        priced = np.flatnonzero(~included & (reduced < -tol))
        if not priced.size:
            break
        picks = []
        for rows in (rows_p, rows_q):
            # the most negative priced cell of each marginal row: sorted by
            # row, then by reduced cost, it comes first in its row's run
            order = priced[np.lexsort((reduced[priced], rows[priced]))]
            picks.append(order[np.concatenate([[True], rows[order][1:] != rows[order][:-1]])])
        new = np.unique(np.concatenate(picks))
        included[new] = True
        cells = np.concatenate([cells, new])
    x = np.zeros(c.size)
    x[cells] = x_cells
    values = np.bincount(block, weights=c * x, minlength=n.size)
    starts = np.cumsum(n * m) - n * m
    violation = np.maximum(-np.minimum.reduceat(reduced, starts), 0.0)
    return [
        CouplingSolution(
            value=float(v), plan=plan.reshape(cost.shape), iterations=rounds,
            gap=float(viol * np.sum(p)),
        )
        for v, plan, cost, viol, (_, p, _) in zip(
            values, np.split(x, starts[1:]), costs, violation, problems
        )
    ]


def d_kantorovich(mu, nu):
    """Kantorovich distance: transportation LP with cost half the trace distance."""
    return d_kantorovich_many([(mu, nu)])[0]


def d_kantorovich_many(pairs):
    """d_kantorovich of every (mu, nu) in pairs, as one block-diagonal transport LP."""
    problems = []
    for mu, nu in pairs:
        if mu.dim != nu.dim:
            raise DimensionMismatch(f"ensemble dims {mu.dim} and {nu.dim} differ")
        diffs = mu.states[:, None] - nu.states[None, :]
        cost = 0.5 * _trace_norm(diffs)
        problems.append((cost, mu.weights, nu.weights))
    return _solve_transports(problems)


def _ehs_tangents(cp, cq, rs, ss):
    """Tangent cuts of f_k(p, q) = ||p rho_k - q sigma_k||_1 at (cp_k, cq_k).

    One eigendecomposition of the stack cp_k rho_k - cq_k sigma_k gives its
    sign operators X_k, hence the cuts (Tr X_k rho_k, -Tr X_k sigma_k), and
    its absolute eigenvalue sums, hence f_k(cp_k, cq_k) itself. The states
    come from validated ensembles, which hold exactly Hermitian stacks, so
    the stack is exactly Hermitian too and is not checked again.
    """
    w, v = np.linalg.eigh(cp[:, None, None] * rs - cq[:, None, None] * ss)
    s = np.where(w > SIGN_TOL, 1.0, np.where(w < -SIGN_TOL, -1.0, 0.0))
    x_ops = (v * s[:, None, :]) @ v.conj().swapaxes(-1, -2)
    a = np.einsum("kij,kji->k", x_ops, rs).real
    b = -np.einsum("kij,kji->k", x_ops, ss).real
    return a, b, np.sum(np.abs(w), axis=1)


def _unseen(seen, owner, a, b):
    """Fresh cuts by their key: the pair and a, b to 12 decimals.

    seen holds the keys of earlier cuts, one int64 row each. Returns the
    indices, in order, of the cuts whose key is neither in seen nor taken by
    an earlier cut of this batch, and seen with their keys added.
    """
    keys = np.column_stack([owner, np.rint(a * 1e12), np.rint(b * 1e12)]).astype(np.int64)
    both = np.concatenate([seen, keys])
    # a stable sort by key puts each key's first occurrence first in its run
    order = np.lexsort(both.T[::-1])
    ordered = both[order]
    first = order[np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)])]
    fresh = np.sort(first[first >= len(seen)]) - len(seen)
    return fresh, np.concatenate([seen, keys[fresh]])


def _ehs_brackets(use, phi, ang_pair, ang):
    # for each pair in use, the angles a fraction f of the way from phi to the
    # nearest earlier tangent angle of that pair on each side, if there is one.
    # Keys pair * R + (rank of the angle among all R distinct angles) order
    # (pair, angle) exactly, so two binary searches find both neighbours.
    values, ranks = np.unique(np.concatenate([ang, phi]), return_inverse=True)
    keys = ang_pair * values.size + ranks[: ang.size]
    order = np.argsort(keys)
    keys, sorted_ang = keys[order], ang[order]
    query = use * values.size + ranks[ang.size :]
    below = np.searchsorted(keys, query, side="left") - 1
    above = np.searchsorted(keys, query, side="right")
    pad = np.concatenate([[-1], keys // values.size, [-1]])
    lo = np.where(pad[below + 1] == use, np.append(sorted_ang, 0.0)[below], -np.inf)
    hi = np.where(pad[above + 1] == use, np.append(sorted_ang, 0.0)[above], np.inf)
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
    return d_ehs_many([(mu, nu)], tol=tol, max_rounds=max_rounds)[0]


def d_ehs_many(pairs, tol=1e-6, max_rounds=EHS_MAX_ROUNDS):
    """d_ehs of every (mu, nu) in pairs, by cutting planes run in lockstep.

    The instances are independent, so their LP is separable: up to
    EHS_MODEL_INSTANCES of them share one block-diagonal LP, kept as one
    HiGHS model for their whole run (_HighsModel). Each round adds only the
    fresh cuts of the instances still open and re-solves from the last
    optimal basis (dual simplex, no presolve); there is one eigh per
    dimension and round, and an instance's lower bound is half the sum of its
    own epigraph variables. An instance closes once its own gap is within
    tol; its rows never change again, so it stays at its optimum without
    touching the others. Two singletons never enter the LP. Returns one
    CouplingSolution per pair. Raises ConvergenceError if an LP ends in any
    status but optimal or, carrying the largest open gap of its model, if an
    instance is still open after max_rounds.
    """
    pairs = list(pairs)
    out = [None] * len(pairs)
    todo = []
    for t, (mu, nu) in enumerate(pairs):
        if mu.dim != nu.dim:
            raise DimensionMismatch(f"ensemble dims {mu.dim} and {nu.dim} differ")
        if len(mu) == len(nu) == 1:
            out[t] = CouplingSolution(
                value=d0(mu, nu),
                plan=np.array([mu.weights]),
                plan_q=np.array([nu.weights]),
                iterations=0,
                gap=0.0,
            )
        else:
            todo.append(t)
    for at in range(0, len(todo), EHS_MODEL_INSTANCES):
        chunk = todo[at : at + EHS_MODEL_INSTANCES]
        for t, sol in zip(chunk, _ehs_lockstep([pairs[t] for t in chunk], tol, max_rounds)):
            out[t] = sol
    return out


def _ehs_lockstep(pairs, tol, max_rounds):
    """The cutting plane of d_ehs_many on pairs that are not two singletons,
    in one kept model; one CouplingSolution per pair."""
    # global pair g runs over the instances in turn; pair k = i*m + j of an
    # instance couples its rho_i with its sigma_j and lies in its marginal
    # rows i (through P) and n + j (through Q)
    n = np.array([len(mu) for mu, _ in pairs])
    m = np.array([len(nu) for _, nu in pairs])
    inst, row_p, row_q = _marginal_rows(n, m)
    first = np.concatenate([[0], np.cumsum(n * m)])
    n_pairs = inst.size

    # the states of each pair, stacked per dimension: pair g is row slot[g]
    # of the stacks of its dimension
    dims = np.repeat([mu.dim for mu, _ in pairs], n * m)
    slot = np.zeros(n_pairs, dtype=int)
    stacks = {}
    for d in np.unique(dims).tolist():
        at = np.flatnonzero(dims == d)
        slot[at] = np.arange(at.size)
        group = [(mu, nu) for mu, nu in pairs if mu.dim == d]
        stacks[d] = (
            np.concatenate([np.repeat(mu.states, len(nu), axis=0) for mu, nu in group]),
            np.concatenate([np.tile(nu.states, (len(mu), 1, 1)) for mu, nu in group]),
        )

    def tangents(owner, cp, cq):
        # _ehs_tangents once per dimension among the owners
        a, b, norms = np.empty(owner.size), np.empty(owner.size), np.empty(owner.size)
        for d, (rs, ss) in stacks.items():
            sel = np.flatnonzero(dims[owner] == d)
            if sel.size:
                rows = slot[owner[sel]]
                a[sel], b[sel], norms[sel] = _ehs_tangents(cp[sel], cq[sel], rs[rows], ss[rows])
        return a, b, norms

    all_pairs = np.arange(n_pairs)
    thetas = np.tile(np.linspace(0.0, np.pi / 2.0, EHS_SEED_ANGLES), n_pairs)
    seed_pair = np.repeat(all_pairs, EHS_SEED_ANGLES)
    seed_a, seed_b, _ = tangents(seed_pair, np.cos(thetas), np.sin(thetas))
    cut_pair = np.concatenate([np.repeat(all_pairs, 2), seed_pair])
    cut_a = np.concatenate([np.tile([1.0, -1.0], n_pairs), seed_a])
    cut_b = np.concatenate([np.tile([-1.0, 1.0], n_pairs), seed_b])
    fresh, seen = _unseen(np.empty((0, 3), dtype=np.int64), cut_pair, cut_a, cut_b)
    # columns [P, Q, T] per pair, min 1/2 sum T; a P or Q column lies in its
    # instance's marginal row, a T column in none
    model = _HighsModel(np.concatenate([w for mu, nu in pairs for w in (mu.weights, nu.weights)]))
    model.add_cols(np.zeros(2 * n_pairs), np.concatenate([row_p, row_q])[:, None])
    model.add_cols(np.full(n_pairs, 0.5), np.empty((n_pairs, 0), dtype=int))

    def add_cuts(pair, a, b):
        # one row a P + b Q - T <= 0 per cut, on the columns of its pair
        model.add_rows(np.column_stack([pair, n_pairs + pair, 2 * n_pairs + pair]),
                       np.column_stack([a, b, -np.ones(pair.size)]))

    add_cuts(cut_pair[fresh], cut_a[fresh], cut_b[fresh])
    # the angles in [0, pi/2] of the tangents made so far
    ang_pair, ang = seed_pair, thetas

    out = [None] * len(pairs)
    is_open = np.ones(len(pairs), dtype=bool)
    best_value = np.full(len(pairs), np.inf)
    best_p, best_q = np.zeros(n_pairs), np.zeros(n_pairs)
    gap = np.full(len(pairs), np.inf)
    for rounds in range(1, max_rounds + 1):
        plan_p, plan_q, epi = np.split(model.solve()[0], 3)
        live = np.flatnonzero(is_open[inst])
        lower = 0.5 * np.bincount(inst, weights=epi, minlength=len(pairs))
        # pairs with P_ij = Q_ij = 0 add nothing to the objective
        use = live[(plan_p[live] > 0.0) | (plan_q[live] > 0.0)]
        phi = np.arctan2(plan_q[use], plan_p[use])
        new_pair, new_ang = _ehs_brackets(use, phi, ang_pair, ang)
        owner = np.concatenate([use, new_pair])
        new_a, new_b, norms = tangents(
            owner,
            np.concatenate([plan_p[use], np.cos(new_ang)]),
            np.concatenate([plan_q[use], np.sin(new_ang)]),
        )
        upper = 0.5 * np.bincount(inst[use], weights=norms[: use.size], minlength=len(pairs))
        better = is_open & (upper < best_value)
        best_value[better] = upper[better]
        take = better[inst]
        best_p[take], best_q[take] = plan_p[take], plan_q[take]
        gap[is_open] = np.maximum(best_value - lower, 0.0)[is_open]
        for u in np.flatnonzero(is_open & (gap <= tol)).tolist():
            shape = (n[u], m[u])
            out[u] = CouplingSolution(
                value=float(best_value[u]),
                plan=best_p[first[u] : first[u + 1]].reshape(shape),
                plan_q=best_q[first[u] : first[u + 1]].reshape(shape),
                iterations=rounds,
                gap=float(gap[u]),
            )
            is_open[u] = False
        if not is_open.any():
            return out
        # closed instances take no more cuts: their angles and keys go
        ang_pair = np.concatenate([ang_pair, owner])
        ang = np.concatenate([ang, phi, new_ang])
        keep = is_open[inst[ang_pair]]
        ang_pair, ang = ang_pair[keep], ang[keep]
        keep = is_open[inst[owner]]
        owner, new_a, new_b = owner[keep], new_a[keep], new_b[keep]
        fresh, seen = _unseen(seen[is_open[inst[seen[:, 0]]]], owner, new_a, new_b)
        add_cuts(owner[fresh], new_a[fresh], new_b[fresh])
    raise ConvergenceError(
        f"cutting plane did not reach tol={tol} in {max_rounds} rounds",
        gap=float(np.max(gap[is_open])),
    )


def _ground_distance(p1, p2):
    if p1.points.shape[1] != p2.points.shape[1]:
        raise DimensionMismatch("point measures live in different ambient spaces")
    # a distance beyond the float range comes out inf, which kr_distance
    # caps at 2 and kr_modified rejects
    with np.errstate(over="ignore"):
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
    if not cost.max() <= _KR_COST_CAP:
        raise ValidationError(
            f"Euclidean cost {cost.max():g} exceeds {_KR_COST_CAP:g}, beyond what the LP solves")
    value, _ = solve_transport(cost, p1.weights, p2.weights)
    return value
