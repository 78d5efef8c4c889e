"""Independent oracles used only by the test suite.

These deliberately avoid the production code paths: characteristic-polynomial
roots via the trace recursion plus a companion-matrix root finder, the
transportation LP via exhaustive basis (vertex) enumeration and as one LP
over every cell, the coupling distance via a dense fixed angular grid of dual
cuts and via plain Kelley cutting planes, the Holevo-bound crossover via the two bound formulas written
out with `math` only, the EoF witness via an explicit Schmidt-coefficient matrix and its singular values,
the Kantorovich-Rubinshtein distance via its bounded-Lipschitz dual LP, the
Poisson entropy via its defining series with `math.lgamma`, the average entropy
of an ensemble as the conditional entropy S(A|C) of its q-c state built block by
block, the Holevo quantity as an average of relative entropies, g(x) from its
defining formula in 700-digit `mpmath`, the displaced-Gibbs average
node by node with each displacement from `scipy.linalg.expm`, the
oscillator's truncated Gibbs state by bisection on its Boltzmann factor in
`mpmath`, and any floating-point sum against `math.fsum`, its correctly
rounded value.
"""

import itertools
import math

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

EPS = np.finfo(float).eps


def charpoly_coeffs(a):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    trace recursion (no eigendecomposition involved)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def eigvals_by_charpoly(a):
    """Spectrum as companion-matrix roots of the characteristic polynomial."""
    roots = np.roots(charpoly_coeffs(a))
    return np.sort(roots.real)[::-1]


def transport_bruteforce(cost, p, q, tol=1e-12):
    """Exact transportation optimum by enumerating basic feasible solutions.

    Every vertex of the transportation polytope is a basic solution with at
    most n+m-1 active cells; enumerate all cell subsets of that size, solve
    the marginal equations, and keep feasible ones.
    """
    cost = np.asarray(cost, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, m = cost.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    rows = n + m - 1  # drop the last (redundant) marginal equation
    best = np.inf
    for subset in itertools.combinations(cells, rows):
        a = np.zeros((rows, rows))
        for col, (i, j) in enumerate(subset):
            if i < n:
                a[i, col] = 1.0
            if n + j < n + m - 1:
                a[n + j, col] = 1.0
        b = np.concatenate([p, q[:-1]])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -tol):
            continue
        value = sum(cost[i, j] * max(x[col], 0.0) for col, (i, j) in enumerate(subset))
        best = min(best, value)
    return best


def transport_full_lp(cost, p, q):
    """Transportation optimum as one HiGHS LP over every cell (the one-shot
    LP that the priced solver replaced), at the package's LP tolerances."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    cells = np.arange(n * m)
    a_eq = coo_matrix(
        (np.ones(2 * n * m), (np.concatenate([cells // m, n + cells % m]),
                              np.concatenate([cells, cells]))),
        shape=(n + m, n * m),
    ).tocsc()
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(res.fun)


def _angular_cuts(rho, sigma, thetas, tol=1e-12):
    # batched sign-operator cuts of f(p, q) = ||p rho - q sigma||_1
    mats = (np.cos(thetas)[:, None, None] * rho
            - np.sin(thetas)[:, None, None] * sigma)
    w, v = np.linalg.eigh(mats)
    s = np.where(w > tol, 1.0, np.where(w < -tol, -1.0, 0.0))
    x_ops = v @ (s[..., None] * v.conj().transpose(0, 2, 1))
    a = np.einsum("tij,ji->t", x_ops, rho).real
    b = -np.einsum("tij,ji->t", x_ops, sigma).real
    return list(zip(a, b))


def ehs_angular_grid_lp(mu, nu, n_angles=720):
    """Coupling-distance LP with a fixed dense grid of dual cuts per pair.

    Angles sweep [0, pi/2] (the relevant directions for nonnegative pair
    weights); the +/- identity cuts are included as anchors. The value is a
    lower bound on the true coupling distance with O(d_theta^2) defect.
    """
    rhos = [s for _, s in mu.members]
    sigmas = [s for _, s in nu.members]
    n, m = len(rhos), len(sigmas)
    nm = n * m
    thetas = np.linspace(0.0, np.pi / 2.0, n_angles)
    rows, rhs = [], []
    for i, rho in enumerate(rhos):
        for j, sigma in enumerate(sigmas):
            k = i * m + j
            cuts = [(1.0, -1.0), (-1.0, 1.0)]
            cuts.extend(_angular_cuts(rho, sigma, thetas))
            for a_c, b_c in cuts:
                row = np.zeros(3 * nm)
                row[k] = a_c
                row[nm + k] = b_c
                row[2 * nm + k] = -1.0
                rows.append(row)
                rhs.append(0.0)
    a_eq = np.zeros((n + m, 3 * nm))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, nm + j : 2 * nm : m] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights])
    c = np.concatenate([np.zeros(2 * nm), 0.5 * np.ones(nm)])
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), A_eq=a_eq,
                  b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def _sign_operator(a, tol=1e-12):
    w, v = np.linalg.eigh(a)
    s = np.where(w > tol, 1.0, np.where(w < -tol, -1.0, 0.0))
    return (v * s) @ v.conj().T


def _kelley_cut(x_op, rho, sigma):
    return float(np.trace(x_op @ rho).real), -float(np.trace(x_op @ sigma).real)


def ehs_kelley_reference(mu, nu, tol, max_rounds=200):
    """Coupling-program distance by plain Kelley cutting planes, one pair and
    one cut at a time: eight seed angles and the +/- identity cuts per pair,
    then each round one sign-operator cut per pair at the LP solution, until
    the exact objective at an LP solution is within tol of the LP value.
    Returns the best exact objective value found.
    """
    rhos = [s for _, s in mu.members]
    sigmas = [s for _, s in nu.members]
    n, m = len(rhos), len(sigmas)
    nm = n * m
    cuts = []
    for rho in rhos:
        for sigma in sigmas:
            pair = [(1.0, -1.0), (-1.0, 1.0)]
            for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                x_op = _sign_operator(np.cos(theta) * rho - np.sin(theta) * sigma)
                pair.append(_kelley_cut(x_op, rho, sigma))
            cuts.append(pair)
    seen = [{(round(a, 12), round(b, 12)) for a, b in pair} for pair in cuts]
    a_eq = np.zeros((n + m, 3 * nm))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, nm + j : 2 * nm : m] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights])
    c = np.concatenate([np.zeros(2 * nm), 0.5 * np.ones(nm)])
    best = np.inf
    for _ in range(max_rounds):
        rows = []
        for k in range(nm):
            for a_c, b_c in cuts[k]:
                row = np.zeros(3 * nm)
                row[k], row[nm + k], row[2 * nm + k] = a_c, b_c, -1.0
                rows.append(row)
        res = linprog(c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)), A_eq=a_eq,
                      b_eq=b_eq, bounds=(0, None), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert res.success, res.message
        plan_p, plan_q = res.x[:nm], res.x[nm : 2 * nm]
        upper = 0.0
        for k in range(nm):
            rho, sigma = rhos[k // m], sigmas[k % m]
            diff = plan_p[k] * rho - plan_q[k] * sigma
            upper += 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
            cut = _kelley_cut(_sign_operator(diff), rho, sigma)
            key = (round(cut[0], 12), round(cut[1], 12))
            if key not in seen[k]:
                seen[k].add(key)
                cuts[k].append(cut)
        best = min(best, upper)
        if best - float(res.fun) <= tol:
            return best
    raise AssertionError(f"Kelley reference did not reach tol={tol}")


def paired_minus_prior(dim, eps):
    """Paired rank bound 2(eps ln(d-1) + h2(eps)) minus the prior dimension
    bound eps ln d + 2 g(eps), for 0 < eps <= 1 - 1/d.

    Positive where the prior bound is the tighter one; the crossover closeness
    is where the sign turns negative.
    """
    h2 = -eps * math.log(eps) - (1.0 - eps) * math.log(1.0 - eps)
    g = (1.0 + eps) * math.log(1.0 + eps) - eps * math.log(eps)
    paired = 2.0 * (eps * math.log(dim - 1) + h2)
    prior = eps * math.log(dim) + 2.0 * g
    return paired - prior


def _haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def tilted_witness(rank, delta):
    """EoF drop E(rho) - E(sigma) and fidelity F(rho, sigma) of the
    tilted-vector witness pair, from explicit (r+1)x(r+1) coefficient matrices.

    theta_p = sqrt(1-p) phi + sqrt(p) alpha x beta, with phi maximally
    entangled on the first r levels of each side and alpha = beta the last
    level; rho, sigma are theta at p = 1/2 - delta and 1/2. Both are rotated by
    one fixed random local unitary U x V (C -> U C V^T), so the Schmidt
    coefficients must come out of the SVD rather than off the diagonal.
    """
    rng = np.random.default_rng(0)
    u, v = _haar_unitary(rank + 1, rng), _haar_unitary(rank + 1, rng)

    def coeffs(p):
        c = np.zeros((rank + 1, rank + 1), dtype=complex)
        c[np.arange(rank), np.arange(rank)] = math.sqrt((1.0 - p) / rank)
        c[rank, rank] = math.sqrt(p)
        return u @ c @ v.T

    def entanglement(c):
        lam = np.linalg.svd(c, compute_uv=False) ** 2
        return float(-np.sum(lam * np.log(lam)))

    rho, sigma = coeffs(0.5 - delta), coeffs(0.5)
    fid = abs(np.vdot(rho, sigma)) ** 2
    return entanglement(rho) - entanglement(sigma), float(fid)


def kr_dual_lp(points_a, w_a, points_b, w_b):
    """Kantorovich-Rubinshtein distance as the bounded-Lipschitz dual LP on the
    joint support: maximize sum f (w_a - w_b) over |f| <= 1 and
    |f(x) - f(y)| <= |x - y|, with two sparse rows per pair of support points.
    """
    pts = np.vstack([np.asarray(points_a, float), np.asarray(points_b, float)])
    w = np.concatenate([np.asarray(w_a, float), -np.asarray(w_b, float)])
    n = pts.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    dist = np.sqrt(np.sum((pts[iu] - pts[ju]) ** 2, axis=1))
    npairs = iu.size
    row_idx = np.repeat(np.arange(2 * npairs), 2)
    col_idx = np.empty(4 * npairs, dtype=int)
    col_idx[0::4], col_idx[1::4] = iu, ju
    col_idx[2::4], col_idx[3::4] = iu, ju
    vals = np.empty(4 * npairs)
    vals[0::4], vals[1::4] = 1.0, -1.0
    vals[2::4], vals[3::4] = -1.0, 1.0
    a_ub = coo_matrix((vals, (row_idx, col_idx)), shape=(2 * npairs, n)).tocsr()
    res = linprog(-w, A_ub=a_ub, b_ub=np.repeat(dist, 2), bounds=(-1.0, 1.0),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(-res.fun)


def near_fsum(value, terms):
    """Whether value lies within 4 eps * fsum(|t|) of fsum(t), the
    correctly rounded sum of the terms. Array terms are checked entry by
    entry, real and imaginary parts apart.

    Added in any order, n terms are off by at most about (n - 1) eps/2 *
    sum |t| (log2(n) eps/2 * sum |t| pairwise); 4 eps covers any order of a
    few terms and the typical error, not the worst case, of long sums."""
    terms = np.asarray(terms)
    value = np.asarray(value)
    parts = (np.real, np.imag) if np.iscomplexobj(terms) else (np.real,)
    for part in parts:
        columns = part(terms).reshape(len(terms), -1).T.tolist()
        for entry, column in zip(part(value).reshape(-1).tolist(), columns):
            scale = math.fsum(abs(t) for t in column)
            if not abs(entry - math.fsum(column)) <= 4 * EPS * scale:
                return False
    return True


def poisson_entropy_series(lam):
    """-sum_n p_n ln p_n for Poisson(lam), with ln p_n = -lam + n ln lam - ln n!
    from math.lgamma, summed term by term far past the bulk of the mass."""
    if lam == 0.0:
        return 0.0
    total = 0.0
    for n in range(int(lam + 20.0 * math.sqrt(lam) + 60.0)):
        log_p = -lam + n * math.log(lam) - math.lgamma(n + 1.0)
        total -= math.exp(log_p) * log_p
    return total


def _entropy(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log(w)))


def qc_state(weights, states):
    """sum_k p_k rho_k (x) |k><k| on the dim * n space, one Kronecker block at a time."""
    n = len(weights)
    out = 0.0
    for k, (p, rho) in enumerate(zip(weights, states)):
        flag = np.zeros((n, n))
        flag[k, k] = 1.0
        out = out + p * np.kron(rho, flag)
    return out


def partial_trace(rho_ab, dim_a, dim_b, keep):
    """Marginal of a bipartite operator on A (keep="A") or on B (keep="B")."""
    r = np.asarray(rho_ab).reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ijkj->ik", r) if keep == "A" else np.einsum("ijil->jl", r)


def conditional_entropy(rho_ab, dim_a, dim_b):
    """S(A|B) = S(rho_AB) - S(rho_B); may be negative."""
    return _entropy(rho_ab) - _entropy(partial_trace(rho_ab, dim_a, dim_b, "B"))


def qc_conditional_entropy(mu):
    """S(A|C) of mu's q-c state, which equals the average entropy sum_k p_k S(rho_k)."""
    return conditional_entropy(qc_state(mu.weights, mu.states), mu.dim, len(mu))


def relative_entropy(rho, sigma, support_tol=1e-10):
    """D(rho||sigma) in nats from both eigendecompositions; +inf when rho puts
    more than support_tol of its mass outside the support of sigma."""
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sigma)
    wr, ws = np.clip(wr, 0.0, None), np.clip(ws, 0.0, None)
    overlap = np.abs(vs.conj().T @ vr) ** 2  # overlap[k, i] = |<w_k|phi_i>|^2
    off = ws <= support_tol
    if wr @ overlap[off].sum(axis=0) > support_tol:
        return math.inf
    pos = wr > 1e-14
    return float(np.sum(wr[pos] * np.log(wr[pos]))
                 - wr @ (overlap[~off].T @ np.log(ws[~off])))


def holevo_relative_entropy_form(chan, mu):
    """sum_i p_i D(Phi(rho_i) || Phi(avg)), each output summed over the Kraus
    operators one at a time."""
    outs = [sum(k @ rho @ k.conj().T for k in chan.kraus) for rho in mu.states]
    avg = sum(p * out for p, out in zip(mu.weights, outs))
    return sum(p * relative_entropy(out, avg) for p, out in zip(mu.weights, outs) if p > 0.0)


def g_mpmath(x):
    """(x+1) ln(x+1) - x ln x in 700-digit arithmetic, rounded to a float:
    enough digits that neither x + 1 at x = 1e-300 nor the difference of the
    two terms at x = 1e300 loses any of the float's."""
    with mpmath.workdps(700):
        x = mpmath.mpf(x)
        return float((x + 1) * mpmath.log(x + 1) - x * mpmath.log(x))


def displaced_average_bruteforce(g, n_max, radial, angular, r_hi, n_mean):
    """Unit-trace Gaussian average of D(zeta) diag(g) D(zeta)^dag over the full
    radial x angular polar grid on |zeta| <= r_hi, node by node, each D(zeta)
    the matrix exponential of zeta a^dag - conj(zeta) a; and the list of the
    weights the grid's nodes capture."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    gibbs = np.diag(np.asarray(g, dtype=complex))
    xs, ws = np.polynomial.legendre.leggauss(radial)
    avg = np.zeros_like(gibbs)
    node_weights = []
    for x, w in zip(xs, ws):
        r = 0.5 * r_hi * (x + 1.0)
        wr = 0.5 * r_hi * w * (2.0 * r / n_mean) * math.exp(-r * r / n_mean)
        for k in range(angular):
            zeta = r * np.exp(2j * np.pi * k / angular)
            d_op = expm(zeta * a.T - np.conj(zeta) * a)
            avg += (wr / angular) * (d_op @ gibbs @ d_op.conj().T)
            node_weights.append(wr / angular)
    return avg / np.trace(avg).real, node_weights


def thermal_populations_oracle(energy, levels, dps=40, steps=150):
    """The Gibbs state y^k / Z of the number operator on `levels` levels whose
    mean is `energy` (below (levels - 1) / 2), with y = e^-beta found by
    bisection on (0, 1) in dps-digit mpmath: its populations as floats and
    its entropy -sum p ln p."""
    with mpmath.workdps(dps):
        target = mpmath.mpf(energy)

        def weights(y):
            w = [mpmath.mpf(1)]
            for _ in range(levels - 1):
                w.append(w[-1] * y)
            return w

        def mean(y):
            w = weights(y)
            return mpmath.fsum(k * v for k, v in enumerate(w)) / mpmath.fsum(w)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(steps):
            mid = (lo + hi) / 2
            if mean(mid) < target:
                lo = mid
            else:
                hi = mid
        w = weights((lo + hi) / 2)
        z = mpmath.fsum(w)
        pops = [v / z for v in w]
        entropy = -mpmath.fsum(v * mpmath.log(v) for v in pops if v > 0)
        return np.array([float(v) for v in pops]), float(entropy)
