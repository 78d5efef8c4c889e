import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qensembles import (
    ConvergenceError,
    EnergyConstraint,
    RankConstraint,
    ValidationError,
    aoe_upper,
    ae_upper,
    binary_entropy,
    cb_holevo_energy,
    cb_holevo_rank,
    chi_cb_prior_dim,
    chi_cb_prior_energy,
    crossover_eps,
    discretization_bounds,
    eof_scb,
    eof_scb_fid,
    eof_upper_sep,
    g_func,
    s_ineq_check,
    scb_energy,
    scb_holevo,
    scb_rank,
    u_func,
    v_func,
)
from qensembles import bounds
from qensembles.bounds import BOUNDS, BoundReport, evaluate_tag

# (params, direct evaluator call) for every registry key, aliases included.
_SCB_RANK = [({"eps": 0.1, "rank": 4}, lambda: scb_rank(0.1, 4))]
_SCB_ENERGY = [({"eps": 0.1, "energy": 1.0}, lambda: scb_energy(0.1, 1.0))]
_SCB_HOLEVO = [
    ({"eps": 0.2, "rank_mu": 3, "rank_nu": 5},
     lambda: scb_holevo(0.2, RankConstraint(3), RankConstraint(5))),
    ({"eps": 0.2, "energy_mu": 1.0, "energy_nu": 2.0},
     lambda: scb_holevo(0.2, EnergyConstraint(1.0), EnergyConstraint(2.0))),
    ({"eps": 0.2, "rank_mu": 3, "energy_nu": 2.0},
     lambda: scb_holevo(0.2, RankConstraint(3), EnergyConstraint(2.0))),
]
TAG_CASES = {
    "prop2": _SCB_RANK, "lemma3": _SCB_RANK, "scb-rank": _SCB_RANK,
    "prop3": _SCB_ENERGY, "lemma4": _SCB_ENERGY, "scb-energy": _SCB_ENERGY,
    "prop4": _SCB_HOLEVO, "scb-holevo": _SCB_HOLEVO,
    "cor2a": [({"eps": 0.2, "rank_mu": 3, "rank_nu": 5},
               lambda: cb_holevo_rank(0.2, 3, 5))],
    "cor2b": [({"eps": 0.2, "energy_mu": 1.0, "energy_nu": 2.0},
               lambda: cb_holevo_energy(0.2, 1.0, 2.0))],
    "chi-cb-1": [({"eps": 0.2, "dim": 3}, lambda: chi_cb_prior_dim(0.2, 3))],
    "chi-cb-2": [({"eps": 0.2, "energy": 1.0},
                  lambda: chi_cb_prior_energy(0.2, 1.0)[0])],
    "crossover": [({"dim": 4}, lambda: crossover_eps(4)),
                  ({"dim": 18}, lambda: crossover_eps(18))],
    "prop6": [({"delta": 0.2, "rank": 4}, lambda: ae_upper(0.2, RankConstraint(4))),
              ({"delta": 0.2, "energy": 1.0},
               lambda: ae_upper(0.2, EnergyConstraint(1.0)))],
    "prop7": [({"rank": 3, "delta": 0.2, "energy": 1.0},
               lambda: aoe_upper(3, 0.2, 1.0))],
    "prop8": [({"eps": 0.1, "rank": 4}, lambda: eof_scb(0.1, 4))],
    "remark3": [({"fidelity": 0.95, "rank": 4}, lambda: eof_scb_fid(0.95, 4))],
    "cor3": [({"delta": 0.3, "rank": 4}, lambda: eof_upper_sep(0.3, 4))],
    "discretization": [({"delta": 0.5, "n_mean": 1.0},
                        lambda: dict(zip(("loss", "gain"),
                                         discretization_bounds(0.5, 1.0))))],
    "s-ineq": [({"eps": 0.3, "n_mean": 1.0}, lambda: s_ineq_check(0.3, 1.0))],
}


class TestScbRank:
    def test_zero(self):
        assert scb_rank(0.0, 4) == 0.0

    def test_branch_continuity(self):
        for r in (2, 3, 5, 9, 17):
            eps = 1.0 - 1.0 / r
            below = scb_rank(eps, r)
            assert abs(below - math.log(r)) < 1e-12

    def test_frozen_value(self):
        # eps ln(r-1) + h2(eps) at (0.1, 2) reduces to the binary entropy
        assert scb_rank(0.1, 2) == pytest.approx(0.3250829733914482, abs=1e-10)

    def test_overflow_branch(self):
        assert scb_rank(0.95, 3) == math.log(3)

    def test_rank_guard(self):
        with pytest.raises(ValidationError):
            scb_rank(0.1, 1)


class TestScbEnergy:
    def test_oscillator_closed_form(self):
        for eps, energy in ((0.1, 1.0), (0.5, 3.0), (1.0, 2.0)):
            assert scb_energy(eps, energy) == pytest.approx(
                eps * g_func(energy / eps) + g_func(eps), abs=1e-12
            )

    def test_eps_one(self):
        assert scb_energy(1.0, 2.5) == pytest.approx(
            g_func(2.5) + g_func(1.0), abs=1e-12
        )

    def test_nondecreasing_in_eps(self):
        vals = [scb_energy(e, 1.0) for e in np.linspace(1e-4, 1.0, 40)]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_zero(self):
        assert scb_energy(0.0, 5.0) == 0.0


class TestScbHolevo:
    def test_zero_both_rank(self):
        assert scb_holevo(0.0, RankConstraint(4), RankConstraint(3)) == 0.0

    def test_erasure_closed_form(self):
        # rank pair (r_mu, 3) below both switches collapses to the worked form
        for r_mu in (4, 8, 16):
            for eps_tot in (0.04, 0.1):
                expected = eps_tot * math.log(2 * (r_mu - 1)) + 2 * binary_entropy(
                    eps_tot
                )
                assert scb_holevo(
                    eps_tot, RankConstraint(r_mu), RankConstraint(3)
                ) == pytest.approx(expected, abs=1e-12)

class TestScbHolevoEnergyPair:
    def test_oscillator_pair_closed_form(self):
        n_mean = 1.0
        for eps in (0.1, 0.25):
            expected = (
                eps * (g_func(n_mean / eps) + g_func(2 * n_mean)) + 2 * g_func(eps)
            )
            got = scb_holevo(
                eps,
                EnergyConstraint(n_mean),
                EnergyConstraint(2 * eps * n_mean),
            )
            assert got == pytest.approx(expected, abs=1e-12)


class TestCorollary2:
    def test_symmetric_rank(self):
        for d in (2, 5, 9):
            for eps in (0.05, 0.3):
                if eps < 1 - 1 / d:
                    assert cb_holevo_rank(eps, d, d) == pytest.approx(
                        2 * eps * math.log(d - 1) + 2 * binary_entropy(eps)
                        if d > 1
                        else 0.0,
                        abs=1e-12,
                    )

    def test_symmetric_energy(self):
        for eps in (0.1, 0.4):
            assert cb_holevo_energy(eps, 2.0, 2.0) == pytest.approx(
                2 * eps * g_func(2.0 / eps) + 2 * g_func(eps), abs=1e-12
            )

    def test_zero(self):
        assert cb_holevo_rank(0.0, 3, 3) == 0.0


class TestPriorChiBounds:
    def test_dim_form(self):
        assert chi_cb_prior_dim(0.2, 4) == pytest.approx(
            0.2 * math.log(4) + 2 * g_func(0.2), abs=1e-14
        )

    def test_dim_form_eps_domain(self):
        assert chi_cb_prior_dim(0.0, 3) == 0.0
        with pytest.raises(ValidationError, match=r"eps must lie in \[0, 1\]"):
            chi_cb_prior_dim(-0.1, 3)

    def test_sign_matches_crossover(self):
        for d in (3, 4, 5):
            eps_d = crossover_eps(d)
            for eps in (eps_d * 0.5, min(eps_d * 1.5, 1.0)):
                prior = chi_cb_prior_dim(eps, d)
                paired = cb_holevo_rank(eps, d, d)
                if eps < eps_d:
                    assert paired >= prior - 1e-12
                else:
                    assert paired <= prior + 1e-12

    def test_both_vanish_at_zero(self):
        for eps, cap in ((1e-5, 3e-4), (1e-6, 4e-5)):
            assert chi_cb_prior_dim(eps, 5) < cap
            assert cb_holevo_rank(eps, 5, 5) < cap

    def test_energy_form_minimizer(self):
        value, t_star = chi_cb_prior_energy(0.1, 10.0)
        assert math.isfinite(value) and value > 0.0
        assert 0.0 < t_star <= 1.0 / (2 * 0.1) + 1e-12

    def test_energy_form_unclosed_golden_section_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "GOLDEN_STEPS", 3)
        with pytest.raises(ConvergenceError) as err:
            chi_cb_prior_energy(0.1, 10.0)
        assert err.value.gap > 1e-10 * (1.0 / (2 * 0.1))

    def test_energy_form_grid_oracle(self):
        # doubling the grid resolution must not find a meaningfully lower value
        coarse, _ = chi_cb_prior_energy(0.2, 3.0, grid=1000)
        fine, _ = chi_cb_prior_energy(0.2, 3.0, grid=2000)
        assert coarse == pytest.approx(fine, abs=1e-8)


class TestCrossover:
    def test_qubit_zero(self):
        assert crossover_eps(2) == 0.0

    def test_anchor_values(self):
        assert u_func(1.0) == 16.0
        assert v_func(17) == pytest.approx(256 / 17, abs=1e-12)
        assert v_func(18) == pytest.approx(289 / 18, abs=1e-12)

    def test_none_beyond_17(self):
        assert crossover_eps(18) is None
        assert crossover_eps(25) is None

    def test_roots_solve_equation(self):
        for d in (3, 4, 5, 10, 17):
            eps_d = crossover_eps(d)
            assert u_func(eps_d) == pytest.approx(v_func(d), abs=1e-7)

    def test_monotone_in_d(self):
        roots = [crossover_eps(d) for d in range(3, 18)]
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_bracket_closes(self, monkeypatch):
        # the roots for d = 3..17 as computed before an unclosed bracket raised
        recorded = (
            0.14334604176196253, 0.3945336207695307, 0.5498470047900765,
            0.6558676478165384, 0.7328686243566096, 0.79117733761107,
            0.8366494162184424, 0.8728703279922592, 0.9021648181661543,
            0.9261067474436289, 0.9457959086576553, 0.962015953118718,
            0.9753254000970877, 0.9861027324514138, 0.9945332713832666,
        )
        probes = []

        def spy(eps):
            value = u_func(eps)
            probes.append((eps, value))
            return value

        monkeypatch.setattr(bounds, "u_func", spy)
        for d, expected in zip(range(3, 18), recorded):
            probes.clear()
            assert crossover_eps(d) == expected
            # the bracket the bisection ended on, rebuilt from its probes
            lo = max([e for e, u in probes if u <= v_func(d)], default=1e-12)
            hi = min([e for e, u in probes if u > v_func(d)], default=1.0)
            assert 0.0 < hi - lo <= 1e-10 * max(1.0, hi)
            assert expected == 0.5 * (lo + hi)

    def test_unclosed_bracket_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "CROSSOVER_BISECTIONS", 5)
        with pytest.raises(ConvergenceError) as err:
            crossover_eps(4)
        assert err.value.gap == pytest.approx((1.0 - 1e-12) / 32, rel=1e-12)


class TestAeUpper:
    def test_zero(self):
        assert ae_upper(0.0, RankConstraint(4)) == 0.0

    def test_flat_tail_spectrum_is_tight(self):
        # states with spectrum {1-p, p/(r-1), ...}: bound equals the exact AE
        for r, p in ((3, 0.2), (5, 0.4)):
            spectrum = [1 - p] + [p / (r - 1)] * (r - 1)
            exact = -sum(x * math.log(x) for x in spectrum)
            assert ae_upper(p, RankConstraint(r)) == pytest.approx(exact, abs=1e-12)

    def test_rank_domain_guard(self):
        with pytest.raises(ValidationError):
            ae_upper(0.9, RankConstraint(3))

    def test_geometric_tail_gap(self):
        # spectrum {1-p, p(1-q) q^k}: energy-case bound gap stays within the
        # stated envelope g(p) - h2(p) + p ln 2 + p(1 + p/N)
        for p in (0.1, 0.3):
            for n_mean in (0.5, 1.0, 3.0):
                exact = binary_entropy(p) + p * g_func(n_mean)
                bound = ae_upper(p, EnergyConstraint(p * n_mean))
                gap = bound - exact
                envelope = (
                    g_func(p) - binary_entropy(p) + p * math.log(2)
                    + p * (1 + p / n_mean)
                )
                assert gap >= -1e-9
                assert gap <= envelope + 1e-9


class TestAoeUpper:
    def test_delta_zero(self):
        assert aoe_upper(4, 0.0, 2.0) == math.log(4)

    def test_oscillator_form(self):
        assert aoe_upper(3, 0.2, 1.5) == pytest.approx(
            math.log(3) + 0.2 * g_func(1.5 / 0.2) + g_func(0.2), abs=1e-12
        )

    def test_monotone_in_delta(self):
        vals = [aoe_upper(3, d, 1.0) for d in np.linspace(1e-4, 0.8, 25)]
        assert np.all(np.diff(vals) >= -1e-12)


class TestEofBounds:
    def test_zeros(self):
        assert eof_scb(0.0, 5) == 0.0
        assert eof_scb_fid(1.0, 5) == 0.0
        assert eof_upper_sep(0.0, 5) == 0.0

    def test_guards(self):
        with pytest.raises(ValidationError):
            eof_scb(0.9, 3)
        with pytest.raises(ValidationError):
            eof_scb_fid(0.0, 3)
        with pytest.raises(ValidationError):
            eof_upper_sep(0.95, 3)

    def test_trace_form_uses_expanded_delta(self):
        eps = 0.05
        delta = math.sqrt(eps * (2 - eps))
        assert eof_scb(eps, 8) == pytest.approx(
            delta * math.log(7) + binary_entropy(delta), abs=1e-12
        )


class TestDiscretization:
    def test_vanishing_limit(self):
        for delta in (1e-3, 1e-4):
            loss, gain = discretization_bounds(delta, 1.0)
            assert loss < 0.05 and gain < 0.05

    def test_gain_dominates_loss(self):
        for delta in (0.1, 0.5, 1.0):
            for n_mean in (0.5, 1.0, 10.0):
                loss, gain = discretization_bounds(delta, n_mean)
                assert gain >= loss - 1e-12

    def test_worked_point(self):
        loss, gain = discretization_bounds(0.5, 1.0)
        assert math.isfinite(loss) and math.isfinite(gain)
        assert 0.0 < loss < gain


class TestSIneq:
    def test_grid(self):
        for eps in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
            for n_mean in (0.5, 1.0, 10.0, 100.0):
                assert s_ineq_check(eps, n_mean)

    def test_eps_one_reduces(self):
        assert s_ineq_check(1.0, 2.0)

    def test_max_of_entropy_term(self):
        # -eps ln eps peaks at eps = 1/e with value 1/e
        assert -((1 / math.e) * math.log(1 / math.e)) == pytest.approx(1 / math.e)
        assert s_ineq_check(1 / math.e, 1.0)


class TestSmallClosenessLimit:
    def test_every_evaluator_vanishes(self):
        eps = 1e-6
        assert scb_rank(eps, 5) < 2e-5
        assert scb_energy(eps, 1.0) < 4e-5
        assert scb_holevo(eps, RankConstraint(3), RankConstraint(3)) < 4e-5
        assert cb_holevo_rank(eps, 4, 4) < 4e-5
        assert cb_holevo_energy(eps, 1.0, 1.0) < 8e-5
        assert chi_cb_prior_dim(eps, 4) < 4e-5
        assert ae_upper(eps, RankConstraint(4)) < 2e-5
        assert aoe_upper(3, eps, 1.0) - math.log(3) < 4e-5
        assert eof_scb(eps, 4) < 4e-2  # delta = sqrt(2 eps) scale
        assert eof_scb_fid(1.0 - eps**2, 4) < 2e-5
        loss, gain = discretization_bounds(eps, 1.0)
        assert gain < 4e-5


class TestBoundReport:
    def test_holds_semantics(self):
        rep = BoundReport(tag="t", rhs=1.0, epsilon=0.1, lhs=0.5)
        assert rep.holds is True and rep.rhs - rep.lhs == 0.5
        rep2 = BoundReport(tag="t", rhs=1.0, epsilon=0.1, lhs=1.1)
        assert rep2.holds is False
        rep3 = BoundReport(tag="t", rhs=1.0, epsilon=0.1)
        assert rep3.holds is None


class TestTagRegistry:
    def test_rank_tags(self):
        assert evaluate_tag("prop2", {"eps": 0.1, "rank": 4}) == scb_rank(0.1, 4)

    def test_energy_tag_defaults_to_oscillator(self):
        assert evaluate_tag("prop3", {"eps": 0.1, "energy": 1.0}) == pytest.approx(
            0.1 * g_func(1.0 / 0.1) + g_func(0.1), abs=1e-12
        )

    def test_crossover_tag(self):
        assert evaluate_tag("crossover", {"dim": 2}) == 0.0

    def test_discretization_tag(self):
        out = evaluate_tag("discretization", {"delta": 0.5, "n_mean": 1.0})
        assert set(out) == {"loss", "gain"}

    def test_unknown_tag(self):
        with pytest.raises(ValidationError):
            evaluate_tag("nope", {})

    @pytest.mark.parametrize("tag", sorted(BOUNDS))
    def test_every_tag_matches_its_evaluator(self, tag):
        for params, direct in TAG_CASES[tag]:
            assert evaluate_tag(tag, params) == direct()

    def test_missing_parameter_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="bound 'prop2' needs parameter 'rank'"):
            evaluate_tag("prop2", {"eps": 0.1})


# ---------------------------------------------------------------------------
# Monotonicity in closeness of every closeness-parameterized tag
# ---------------------------------------------------------------------------

_RANKS = st.integers(2, 64)
_ENERGIES = st.floats(0.01, 10.0)


def _side(data, suffix):
    if data.draw(st.booleans()):
        return {f"rank{suffix}": data.draw(_RANKS)}
    return {f"energy{suffix}": data.draw(_ENERGIES)}


# tag -> (closeness key, draw of the other parameters, upper end of the
# guarded closeness domain given those parameters)
_CLOSENESS = {
    "prop2": ("eps", lambda d: {"rank": d.draw(_RANKS)}, lambda p: 1.0),
    "prop3": ("eps", lambda d: {"energy": d.draw(_ENERGIES)}, lambda p: 1.0),
    "prop4": ("eps", lambda d: {**_side(d, "_mu"), **_side(d, "_nu")}, lambda p: 1.0),
    "cor2a": ("eps", lambda d: {"rank_mu": d.draw(_RANKS), "rank_nu": d.draw(_RANKS)},
              lambda p: 1.0),
    "cor2b": ("eps", lambda d: {"energy_mu": d.draw(_ENERGIES),
                                "energy_nu": d.draw(_ENERGIES)}, lambda p: 1.0),
    "chi-cb-1": ("eps", lambda d: {"dim": d.draw(st.integers(2, 64))}, lambda p: 1.0),
    "chi-cb-2": ("eps", lambda d: {"energy": d.draw(_ENERGIES)}, lambda p: 1.0),
    "prop6": ("delta", lambda d: _side(d, ""),
              lambda p: 1.0 - 1.0 / p["rank"] if "rank" in p else 1.0),
    "prop7": ("delta", lambda d: {"rank": d.draw(st.integers(1, 64)),
                                  "energy": d.draw(_ENERGIES)}, lambda p: 1.0),
    "prop8": ("eps", lambda d: {"rank": d.draw(_RANKS)},
              lambda p: 1.0 - math.sqrt(2.0 * p["rank"] - 1.0) / p["rank"]),
    "cor3": ("delta", lambda d: {"rank": d.draw(_RANKS)}, lambda p: 1.0 - 1.0 / p["rank"]),
}


@pytest.mark.parametrize("tag", sorted(_CLOSENESS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_tag_nondecreasing_in_closeness(tag, data):
    key, draw_params, upper = _CLOSENESS[tag]
    params = draw_params(data)
    # Positive closeness starts at the smallest subnormal, where E/eps and
    # chi-cb-2's E/(eps t) overflow
    closeness = st.floats(5e-324, upper(params))
    a, b = sorted(data.draw(closeness, label="closeness") for _ in range(2))
    value_a = evaluate_tag(tag, {**params, key: a})
    value_b = evaluate_tag(tag, {**params, key: b})
    assert value_a <= value_b + 1e-12 * max(1.0, abs(value_b))

    # 0 at zero closeness, but for the two exceptions the module docstring names
    if tag == "prop7":
        assert evaluate_tag(tag, {**params, key: 0.0}) == math.log(params["rank"])
    elif tag == "chi-cb-2":
        with pytest.raises(ValidationError):
            evaluate_tag(tag, {**params, key: 0.0})
    else:
        assert evaluate_tag(tag, {**params, key: 0.0}) == 0.0


_ENERGY_TAGS = {
    "prop3": {"energy": 1.0},
    "cor2b": {"energy_mu": 1.0, "energy_nu": 10.0},
    "chi-cb-2": {"energy": 10.0},
    "prop6": {"energy": 1.0},
    "prop7": {"rank": 3, "energy": 1.0},
}


@pytest.mark.parametrize("tag", sorted(_ENERGY_TAGS))
def test_energy_tags_finite_at_closeness_1e_300(tag):
    # eps F_H(E/eps) at E/eps ~ 1e300 once cancelled to 0 or NaN in g_func
    key = _CLOSENESS[tag][0]
    params = _ENERGY_TAGS[tag]
    tiny = evaluate_tag(tag, {**params, key: 1e-300})
    small = evaluate_tag(tag, {**params, key: 1e-9})
    assert math.isfinite(tiny) and 0.0 <= tiny <= small


@pytest.mark.parametrize("closeness", [1e-309, 5e-324])
@pytest.mark.parametrize("tag", sorted(_ENERGY_TAGS))
def test_energy_tags_finite_at_subnormal_closeness(tag, closeness):
    # E/eps overflows here; eps g(E/eps) is then eps (ln E - ln eps + 1)
    key = _CLOSENESS[tag][0]
    params = _ENERGY_TAGS[tag]
    tiny = evaluate_tag(tag, {**params, key: closeness})
    assert math.isfinite(tiny)
    assert tiny <= evaluate_tag(tag, {**params, key: 1e-300})
