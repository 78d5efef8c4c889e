"""Scalar evaluators for the semicontinuity/continuity bounds, keyed by
proposition-style tags, plus the rank/energy constraint records and the
BoundReport evidence type.

Every evaluator is total over its guarded domain. Those with a closeness
parameter (eps or delta) are nondecreasing in it and return 0 at zero
closeness, with two exceptions: aoe_upper (prop7) bounds an AOE, not a
difference, and gives ln r at delta = 0; chi_cb_prior_energy (chi-cb-2) is
defined only for eps > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, EnergyRangeError, ValidationError
from .linalg import binary_entropy, g_func

HOLDS_SLACK = 1e-8
CROSSOVER_BISECTIONS = 200
# golden-section steps in chi_cb_prior_energy; each shrinks the bracket by
# 0.618, so 80 take the grid bracket far below 1e-10 of its upper end
GOLDEN_STEPS = 80


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs <= rhs at closeness epsilon."""

    tag: str
    rhs: float
    epsilon: float
    lhs: float | None = None
    params: dict = field(default_factory=dict)

    @property
    def holds(self):
        if self.lhs is None:
            return None
        return self.lhs <= self.rhs + HOLDS_SLACK


@dataclass(frozen=True)
class RankConstraint:
    rank: int

    def __post_init__(self):
        if not self.rank >= 1:  # also rejects NaN
            raise ValidationError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class EnergyConstraint:
    energy: float


def _check_energy(energy):
    """A mean energy of the oscillator, as given: nonnegative, else EnergyRangeError."""
    energy = float(energy)
    if not energy >= 0.0:
        raise EnergyRangeError(energy)
    return energy


def _rank_term(delta, rank):
    """delta ln(r-1) + h2(delta), the rank term of Props. 2, 6 and 8, Remark 3
    and Cor. 3; delta may pass 1 - 1/r by the callers' 1e-15 slack, and h2
    is read at min(delta, 1)."""
    return delta * math.log(rank - 1) + binary_entropy(min(delta, 1.0))


def scb_rank(eps, rank):
    """eps ln(r-1) + h2(eps) for eps <= 1 - 1/r, else ln r (rank-constrained form)."""
    if not rank >= 2:  # also rejects NaN
        raise ValidationError(f"rank case needs r >= 2, got {rank}")
    eps = float(eps)
    if not eps >= 0.0:
        raise ValidationError(f"eps must be nonnegative, got {eps}")
    if eps <= 1.0 - 1.0 / rank:
        return _rank_term(eps, rank)
    return math.log(rank)


def _eps_g(eps, energy, t=1.0, weight=1.0):
    """eps weight g(E / (eps t)) for eps, t > 0 and E >= 0, also where the
    quotient x overflows: there 1/x < 1e-308, so g(x) = ln(1 + x) +
    x ln(1 + 1/x) is ln x + 1 to double precision, and eps g(E/eps) =
    eps ln(1 + E/eps) + E ln(1 + eps/E) is eps (ln E - ln eps + 1)."""
    scale = eps * t
    x = energy / scale if scale > 0.0 else math.inf
    if math.isfinite(x):
        return eps * weight * g_func(x)
    if energy == 0.0:
        return 0.0
    return eps * weight * (math.log(energy) - math.log(eps) - math.log(t) + 1.0)


def scb_energy(eps, energy):
    """eps F_H(E/eps) + g(eps) (energy-constrained form; oscillator F_H = g)."""
    energy = _check_energy(energy)
    eps = float(eps)
    if not eps >= 0.0:
        raise ValidationError(f"eps must be nonnegative, got {eps}")
    if eps == 0.0:
        return 0.0
    return _eps_g(eps, energy) + g_func(eps)


def _case_term(eps, constraint):
    if isinstance(constraint, RankConstraint):
        return scb_rank(eps, constraint.rank)
    if isinstance(constraint, EnergyConstraint):
        return scb_energy(eps, constraint.energy)
    raise ValidationError(f"unsupported constraint {constraint!r}")


def scb_holevo(eps, case_a, case_b):
    """A_i(eps) + B_j(eps): one rank/energy term per side of the Holevo bound."""
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [0, 1], got {eps}")
    return _case_term(eps, case_a) + _case_term(eps, case_b)


def cb_holevo_rank(eps, rank_mu, rank_nu):
    """Two-sided rank continuity bound C_mu(eps) + C_nu(eps)."""
    return scb_holevo(eps, RankConstraint(rank_mu), RankConstraint(rank_nu))


def cb_holevo_energy(eps, e_mu, e_nu):
    """Two-sided energy continuity bound eps F(E_mu/eps) + eps F(E_nu/eps) + 2g(eps)."""
    return scb_holevo(eps, EnergyConstraint(e_mu), EnergyConstraint(e_nu))


def chi_cb_prior_dim(eps, dim):
    """Prior dimension-constrained Holevo continuity bound: eps ln d + 2g(eps)."""
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [0, 1], got {eps}")
    if not dim >= 2:
        raise ValidationError(f"dim must be >= 2, got {dim}")
    return eps * math.log(dim) + 2.0 * g_func(eps)


def _h2_clamped(x):
    return binary_entropy(min(max(x, 0.0), 1.0))


def chi_cb_prior_energy(eps, energy, grid=1000):
    """Prior energy-constrained Holevo continuity bound, minimized over its

    free parameter t in (0, 1/(2 eps)] by a log-spaced grid plus golden-section
    refinement. Returns (value, minimizer). ConvergenceError, carrying the
    width, if GOLDEN_STEPS steps leave the bracket wider than
    1e-10 * max(1, its upper end).
    """
    energy = _check_energy(energy)
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps}")
    # 1/(2 eps) overflows below eps ~ 3e-309, and the grid's ratio t_hi/t_lo
    # below eps ~ 3e-303; the minimizer stays far inside (t ~ 3e-4 at 1e-300)
    t_hi = min(1.0 / (2.0 * eps), 1e300)
    t_lo = min(1e-6, t_hi * 1e-6)
    if t_lo >= t_hi:
        raise ValidationError("empty feasible interval for the free parameter")

    def objective(t):
        r_t = (1.0 + t / 2.0) / (1.0 - eps * t)
        return (
            _eps_g(eps, energy, t, 2.0 * t + r_t)
            + 2.0 * g_func(eps * r_t)
            + 2.0 * _h2_clamped(eps * t)
        )

    ts = [t_lo * (t_hi / t_lo) ** (k / (grid - 1)) for k in range(grid)]
    vals = [objective(t) for t in ts]
    k_best = min(range(grid), key=lambda k: vals[k])
    lo = ts[max(k_best - 1, 0)]
    hi = ts[min(k_best + 1, grid - 1)]
    phi_ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi_ratio * (b - a)
    d = a + phi_ratio * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(GOLDEN_STEPS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi_ratio * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi_ratio * (b - a)
            fd = objective(d)
    if b - a > 1e-10 * max(1.0, b):
        raise ConvergenceError(
            f"golden section for eps={eps} did not close in {GOLDEN_STEPS} steps",
            gap=b - a,
        )
    t_star = 0.5 * (a + b)
    return min(objective(t_star), vals[k_best]), t_star


def u_func(eps):
    """u(eps) = (1-eps^2)^(2/eps) ((1+eps)/(1-eps))^2, via the stable product
    (1+eps)^(2/eps+2) (1-eps)^(2/eps-2); u(1) = 16 exactly."""
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"u defined on (0, 1], got {eps}")
    return (1.0 + eps) ** (2.0 / eps + 2.0) * (1.0 - eps) ** (2.0 / eps - 2.0)


def v_func(dim):
    """v(d) = d (1 - 1/d)^2 = (d-1)^2 / d."""
    if not dim >= 2:
        raise ValidationError(f"v defined for d >= 2, got {dim}")
    return (dim - 1) ** 2 / dim


def crossover_eps(dim):
    """Crossover closeness where the paired rank bound overtakes the prior
    dimension bound: 0 for d=2, the root of u(eps) = v(d) for 3 <= d <= 17,
    None for d >= 18 (u tops out at 16 < v(18)).

    The root is bisected until its bracket is at most 1e-10 * max(1, hi)
    wide; ConvergenceError, carrying the width, if CROSSOVER_BISECTIONS
    steps do not get there.
    """
    if not dim >= 2:
        raise ValidationError(f"dim must be >= 2, got {dim}")
    if dim == 2:
        return 0.0
    if dim >= 18:
        return None
    target = v_func(dim)
    lo, hi = 1e-12, 1.0
    for _ in range(CROSSOVER_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if u_func(mid) > target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-10 * max(1.0, hi):
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        f"crossover bisection for d={dim} did not close in {CROSSOVER_BISECTIONS} steps",
        gap=hi - lo,
    )


def ae_upper(delta, constraint):
    """Upper bound on the average entropy from closeness delta to pure ensembles."""
    delta = float(delta)
    if not delta >= 0.0:
        raise ValidationError(f"delta must be nonnegative, got {delta}")
    # Prop. 6's rank case holds up to delta = 1 - 1/r; past it scb_rank gives ln r
    if isinstance(constraint, RankConstraint) and delta > 1.0 - 1.0 / constraint.rank:
        raise ValidationError(f"rank case needs delta <= 1 - 1/r, got {delta}")
    return _case_term(delta, constraint)


def aoe_upper(rank, delta_r, e_psv):
    """ln r + delta F_H(E/delta) + g(delta): AOE cap from the Choi-rank-r distance."""
    e_psv = _check_energy(e_psv)
    if not rank >= 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    delta_r = float(delta_r)
    if not delta_r >= 0.0:
        raise ValidationError(f"delta must be nonnegative, got {delta_r}")
    if delta_r == 0.0:
        return math.log(rank)
    return math.log(rank) + _eps_g(delta_r, e_psv) + g_func(delta_r)


def eof_scb(eps, rank):
    """EoF semicontinuity bound from trace distance: delta = sqrt(eps(2-eps))."""
    eps = float(eps)
    if not rank >= 2:
        raise ValidationError(f"rank must be >= 2, got {rank}")
    guard = 1.0 - math.sqrt(2.0 * rank - 1.0) / rank
    if not 0.0 <= eps <= guard + 1e-15:
        raise ValidationError(
            f"eps {eps} outside [0, {guard:.6f}] (delta must stay <= 1 - 1/r)"
        )
    return _rank_term(math.sqrt(eps * (2.0 - eps)), rank)


def eof_scb_fid(fid, rank):
    """EoF semicontinuity bound from fidelity: delta = sqrt(1 - F)."""
    fid = float(fid)
    if not 0.0 <= fid <= 1.0:
        raise ValidationError(f"fidelity {fid} outside [0, 1]")
    return eof_upper_sep(math.sqrt(1.0 - fid), rank)


def eof_upper_sep(delta_f, rank):
    """EoF cap from distance-to-separable: delta ln(r-1) + h2(delta)."""
    delta_f = float(delta_f)
    if not rank >= 2:
        raise ValidationError(f"rank must be >= 2, got {rank}")
    if not 0.0 <= delta_f <= 1.0 - 1.0 / rank + 1e-15:
        raise ValidationError(f"delta {delta_f} outside [0, 1 - 1/r] for r = {rank}")
    return _rank_term(delta_f, rank)


def discretization_bounds(delta, n_mean):
    """(loss, gain) caps on the AOE change under a grid discretization of a
    Gaussian coherent ensemble with mean photon number n_mean."""
    delta = float(delta)
    n_mean = float(n_mean)
    if not (delta > 0.0 and n_mean > 0.0):  # also rejects NaN
        raise ValidationError("delta and n_mean must be positive")
    d = delta / math.sqrt(2.0)
    loss = d * g_func(math.sqrt(2.0) * n_mean / delta) + g_func(d)
    gain = d * g_func(
        math.sqrt(2.0) * n_mean / delta + d + math.sqrt(math.pi * n_mean)
    ) + g_func(d)
    return loss, gain


def s_ineq_check(eps, n_mean):
    """Check eps g(N/eps) - eps g(N) <= -eps ln eps + eps(1 + eps/N) <= 1/e + 1 + 1/N."""
    eps = float(eps)
    n_mean = float(n_mean)
    if not (0.0 < eps <= 1.0 and n_mean > 0.0):
        raise ValidationError("need eps in (0, 1] and N > 0")
    left = eps * g_func(n_mean / eps) - eps * g_func(n_mean)
    mid = -eps * math.log(eps) + eps * (1.0 + eps / n_mean)
    right = 1.0 / math.e + 1.0 + 1.0 / n_mean
    return left <= mid + 1e-9 and mid <= right + 1e-9


# ---------------------------------------------------------------------------
# Tag registry for the CLI
# ---------------------------------------------------------------------------

def _case(params, rank_key, energy_key):
    if rank_key in params:
        return RankConstraint(params[rank_key])
    return EnergyConstraint(params[energy_key])


def _discretization(params):
    loss, gain = discretization_bounds(params["delta"], params["n_mean"])
    return {"loss": loss, "gain": gain}


BOUNDS = {
    "prop2": lambda p: scb_rank(p["eps"], p["rank"]),
    "prop3": lambda p: scb_energy(p["eps"], p["energy"]),
    "prop4": lambda p: scb_holevo(
        p["eps"], _case(p, "rank_mu", "energy_mu"), _case(p, "rank_nu", "energy_nu")
    ),
    "cor2a": lambda p: cb_holevo_rank(p["eps"], p["rank_mu"], p["rank_nu"]),
    "cor2b": lambda p: cb_holevo_energy(p["eps"], p["energy_mu"], p["energy_nu"]),
    "chi-cb-1": lambda p: chi_cb_prior_dim(p["eps"], p["dim"]),
    "chi-cb-2": lambda p: chi_cb_prior_energy(p["eps"], p["energy"])[0],
    "crossover": lambda p: crossover_eps(p["dim"]),
    "prop6": lambda p: ae_upper(p["delta"], _case(p, "rank", "energy")),
    "prop7": lambda p: aoe_upper(p["rank"], p["delta"], p["energy"]),
    "prop8": lambda p: eof_scb(p["eps"], p["rank"]),
    "remark3": lambda p: eof_scb_fid(p["fidelity"], p["rank"]),
    "cor3": lambda p: eof_upper_sep(p["delta"], p["rank"]),
    "discretization": _discretization,
    "s-ineq": lambda p: s_ineq_check(p["eps"], p["n_mean"]),
}
BOUNDS.update({
    alias: BOUNDS[tag] for alias, tag in (
        ("lemma3", "prop2"), ("scb-rank", "prop2"),
        ("lemma4", "prop3"), ("scb-energy", "prop3"),
        ("scb-holevo", "prop4"),
    )
})


# parameters that count levels or ranks; every other one is a real number
_INTEGER_PARAMS = {"rank", "rank_mu", "rank_nu", "dim"}


def _checked(tag, key, value):
    """A parameter as an int (integer keys) or a float, else ValidationError."""
    kind = int if key in _INTEGER_PARAMS else float
    try:
        ok = (isinstance(value, (int, float)) and math.isfinite(value)
              and (kind is float or value == int(value)))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        what = "a finite integer" if kind is int else "a finite number"
        raise ValidationError(
            f"bound {tag!r} parameter {key!r} must be {what}, got {value!r}"
        )
    return kind(value)


def evaluate_tag(tag, params):
    """Evaluate a bound by its tag with a flat parameter record (CLI surface)."""
    tag = tag.lower()
    if tag not in BOUNDS:
        raise ValidationError(f"unknown bound tag {tag!r}")
    params = {key: _checked(tag, key, value) for key, value in params.items()}
    try:
        return BOUNDS[tag](params)
    except KeyError as exc:
        raise ValidationError(f"bound {tag!r} needs parameter {exc.args[0]!r}") from None
