import math

import mpmath
import numpy as np
import pytest

from qensembles import (
    EnergyRangeError,
    TruncationError,
    ValidationError,
    avg_passive_energy,
    eigvals_desc,
    g_func,
    passive_energy,
    truncated_passive_energy,
    von_neumann_entropy,
)
from qensembles.channels import FOCK_CAP, displacement_operator
from qensembles.energy import (
    THERMAL_TAIL_CUT,
    HamiltonianSpec,
    _thermal_populations,
    mean_energy,
)
from qensembles.ensembles import Ensemble, singleton
from qensembles.linalg import hermitian_part, shannon_entropy
from qensembles.randomgen import random_pure, random_state, random_unitary

from conftest import ketbra
from oracles import thermal_populations_oracle


def thermal_entropy(energy):
    return shannon_entropy(_thermal_populations(energy))


def test_hamiltonian_spec_validation():
    with pytest.raises(ValidationError):
        HamiltonianSpec.oscillator(1)
    assert HamiltonianSpec.oscillator(5).levels == 5


class TestPassiveEnergy:
    def test_pure_state_ground_shifted(self, rng):
        psi = random_pure(4, rng)
        assert passive_energy(ketbra(psi)) == pytest.approx(0.0, abs=1e-12)

    def test_sorted_dot_product(self):
        assert passive_energy(np.diag([0.5, 0.5])) == pytest.approx(0.5)

    def test_below_mean_energy(self, rng):
        for _ in range(20):
            rho = random_state(4, 4, rng)
            assert passive_energy(rho) <= mean_energy(rho) + 1e-10


def rearranged(rho):
    """Passive rearrangement: rho's descending spectrum, clipped at 0, on the diagonal."""
    return np.diag(np.clip(eigvals_desc(rho), 0.0, None)).astype(complex)


class TestPassiveRearrangement:
    """passive_energy(rho) is the mean energy of rho's passive rearrangement."""

    def test_sorted_diagonal_fixed_point(self):
        rho = np.diag([0.8, 0.2]).astype(complex)
        assert np.array_equal(rearranged(rho), rho)
        assert passive_energy(rho) == pytest.approx(mean_energy(rho), abs=1e-15)

    def test_gibbs_conjugate_restores(self, rng):
        gibbs = np.diag(_thermal_populations(1.0, levels=5))
        u = random_unitary(5, rng)
        rotated = u @ gibbs @ u.conj().T
        assert np.allclose(rearranged(rotated), gibbs, atol=1e-10)
        assert passive_energy(rotated) == pytest.approx(mean_energy(gibbs), abs=1e-12)

    def test_entropy_preserved(self, rng):
        rho = random_state(4, 4, rng)
        assert von_neumann_entropy(rearranged(rho)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )
        assert passive_energy(rho) == pytest.approx(
            mean_energy(rearranged(rho)), abs=1e-14
        )


class TestErgotropy:
    """The ergotropy Tr H rho - passive_energy(rho) is the work unitaries extract."""

    def test_passive_state(self):
        rho = np.diag([0.7, 0.3])
        assert mean_energy(rho) - passive_energy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_excited_state(self):
        rho = np.diag([0.0, 1.0])
        assert mean_energy(rho) - passive_energy(rho) == pytest.approx(1.0)

    def test_nonnegative(self, rng):
        for rank in (1, 2, 4):
            for _ in range(10):
                rho = random_state(4, rank, rng)
                assert passive_energy(rho) <= mean_energy(rho) + 1e-12
                assert passive_energy(rho) == pytest.approx(
                    mean_energy(rearranged(rho)), abs=1e-14
                )


class TestAvgPassiveEnergy:
    def test_pure_ensemble_zero(self, rng):
        mu = Ensemble.from_members(
            [(0.5, ketbra(random_pure(3, rng))), (0.5, ketbra(random_pure(3, rng)))]
        )
        assert avg_passive_energy(mu) == pytest.approx(0.0, abs=1e-12)

    def test_singleton(self, rng):
        rho = random_state(3, 3, rng)
        assert avg_passive_energy(singleton(rho)) == pytest.approx(passive_energy(rho))

    def test_displaced_gibbs_family(self):
        # every displaced thermal state keeps the thermal passive energy
        n_max, n0 = 56, 0.5
        gibbs = np.diag(_thermal_populations(n0, levels=n_max + 1))
        members = []
        for mag in (0.5, 1.0, 1.5, 2.0):
            d_op = displacement_operator(mag, n_max)
            rho = d_op @ gibbs @ d_op.conj().T
            members.append((0.25, hermitian_part(rho / np.trace(rho).real)))
        mu = Ensemble.from_members(members)
        assert avg_passive_energy(mu) == pytest.approx(n0, abs=1e-6)


class TestSolveGibbs:
    """The oscillator's thermal state in closed form: x^k with x = E / (1 + E),
    normalised over its levels."""

    def test_fixed_truncation_is_the_normalised_geometric(self):
        for energy, levels in ((0.5, 2), (0.5, 49), (0.9, 49), (3.0, 7)):
            pops = (energy / (1.0 + energy)) ** np.arange(levels, dtype=float)
            assert np.array_equal(_thermal_populations(energy, levels=levels),
                                  pops / np.sum(pops))
        assert np.array_equal(_thermal_populations(0.5, levels=2), [0.75, 0.25])

    def test_oscillator_matches_closed_form(self):
        # against the Gibbs state of the same truncation with mean exactly E,
        # bisected in mpmath: the mean, the entropy g(E) and the tail
        for energy in (1e-6, 0.5, 1.0, 2.0, 4.0, 7.5, 9.5, 10.0):
            pops = _thermal_populations(energy)
            oracle, oracle_entropy = thermal_populations_oracle(energy, pops.size)
            assert np.max(np.abs(pops - oracle)) <= 1e-10
            assert abs(oracle_entropy - g_func(energy)) <= 1e-10
            assert shannon_entropy(pops) == pytest.approx(g_func(energy), abs=1e-9)
            mean = mpmath.fsum(k * mpmath.mpf(float(p)) for k, p in enumerate(pops))
            assert abs(float(mean) - energy) <= 1e-9 * max(1.0, energy)
            assert pops[-1] < THERMAL_TAIL_CUT == 1e-12

    def test_ground_limit(self):
        assert thermal_entropy(1e-6) < 2e-5

    def test_range_error_carries_interval(self):
        with pytest.raises(EnergyRangeError) as err:
            _thermal_populations(-0.5)
        assert str(err.value) == "mean energy -0.5 outside achievable interval [0.0, inf)"
        for energy in (float("nan"), math.inf, -math.inf):
            with pytest.raises(EnergyRangeError):
                _thermal_populations(energy)
        # energy 0 is the ground state
        assert np.array_equal(_thermal_populations(0.0, levels=3), [1.0, 0.0, 0.0])

    def test_closed_form_matches_the_bisection_oracle(self):
        # fixed truncations far from the tail cut, where the normalised
        # geometric is the truncated Gibbs state of a lower mean: the oracle
        # at that mean gives the same populations
        for energy, levels in ((0.5, 2), (1.0, 5), (0.5, 49), (3.0, 7)):
            pops = _thermal_populations(energy, levels=levels)
            mean = float(np.arange(levels) @ pops)
            oracle, oracle_entropy = thermal_populations_oracle(mean, levels)
            assert np.max(np.abs(pops - oracle)) <= 1e-15
            # terms below LOG_CLAMP = 1e-14 add nothing to shannon_entropy
            assert shannon_entropy(pops) == pytest.approx(oracle_entropy, abs=1e-12)

    def test_witness_energies_keep_their_beta(self):
        # the scb-energy witness states: the ratio of successive populations
        # is e^-beta = E / (1 + E), within the bisection's tolerance of the
        # betas it once found for them
        for energy, beta in ((10.0, 0.09531017980279965), (2.0, 0.40546510810302105),
                             (4.0, 0.2231435513176957)):
            pops = _thermal_populations(energy)
            ratio = math.log(pops[0] / pops[1])
            assert ratio == pytest.approx(math.log1p(1.0 / energy), rel=1e-14)
            assert ratio == pytest.approx(beta, abs=1e-11)

    def test_extension_doubles_until_the_tail_is_negligible(self):
        for energy, levels in ((10.0, 512), (4.0, 128), (2.0, 128), (0.5, 64)):
            pops = _thermal_populations(energy)
            assert pops.size == levels and pops[-1] < THERMAL_TAIL_CUT
            if levels > 64:
                # half the levels would not do
                assert _thermal_populations(energy, levels=levels // 2)[-1] >= THERMAL_TAIL_CUT
        assert _thermal_populations(10.0)[-1] == pytest.approx(6.4e-23, rel=0.01)

    def test_extension_stops_at_the_fock_cap(self):
        assert _thermal_populations(20.0).size == FOCK_CAP == 512
        for energy in (21.0, 900.0, 1e300):
            with pytest.raises(TruncationError, match="needs more than 512 levels"):
                _thermal_populations(energy)

    def test_maximal_entropy_among_sampled_states(self, rng):
        # no distribution on 4 levels with mean E beats the Gibbs entropy of
        # the same 4 levels, which is below g(E)
        energy = 0.8
        entropy = thermal_populations_oracle(energy, 4)[1]
        assert entropy < thermal_entropy(energy)
        ev = np.arange(4.0)
        for _ in range(1000):
            w = rng.dirichlet(np.ones(4))
            e_w = float(ev @ w)
            if e_w > energy:
                alpha = energy / e_w
                mix = alpha * w + (1 - alpha) * np.eye(4)[0]
            else:
                alpha = (ev[-1] - energy) / (ev[-1] - e_w)
                mix = alpha * w + (1 - alpha) * np.eye(4)[3]
            assert float(ev @ mix) == pytest.approx(energy, abs=1e-12)
            sampled = -float(np.sum(mix[mix > 1e-15] * np.log(mix[mix > 1e-15])))
            assert entropy >= sampled - 1e-8


class TestFH:
    """The oscillator's entropy ceiling F_H is the closed form g."""

    def test_oscillator_closed_form(self):
        # g(E) is the entropy of the geometric populations E^k / (E+1)^(k+1)
        k = np.arange(4000)
        for energy in (0.3, 1.0, 7.5):
            log_pops = k * math.log(energy) - (k + 1) * math.log(energy + 1.0)
            entropy = -np.sum(np.exp(log_pops) * log_pops)
            assert g_func(energy) == pytest.approx(entropy, abs=1e-12)

    def test_nondegenerate_ground_zero(self):
        assert g_func(0.0) == 0.0
        assert thermal_entropy(0.0) == 0.0
        with pytest.raises(EnergyRangeError):
            _thermal_populations(-1e-300)

    def test_truncation_tracks_closed_form(self):
        # the tail-chosen truncation against g(E) across the working range
        for energy in np.linspace(0.01, 10.0, 23):
            assert thermal_entropy(energy) == pytest.approx(g_func(energy), abs=1e-9)

    def test_strictly_increasing_and_concave(self):
        grid = np.linspace(0.05, 1.5, 12)
        vals = [thermal_entropy(e) for e in grid]
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(diffs) < 1e-9)


class TestTruncatedPassiveEnergy:
    def test_large_eps_vanishes(self, rng):
        mu = Ensemble.from_members([(1.0, random_state(3, 3, rng))])
        assert truncated_passive_energy(mu, 1.1) == 0.0

    def test_singleton_worked_case(self):
        mu = singleton(np.diag([0.8, 0.2]).astype(complex))
        assert truncated_passive_energy(mu, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_limit(self, rng):
        mu = Ensemble.from_members(
            [(0.6, random_state(4, 4, rng)), (0.4, random_state(4, 4, rng))]
        )
        target = avg_passive_energy(mu)
        prev = -1.0
        for eps in (0.5, 0.2, 0.1, 0.01, 1e-4, 1e-7):
            val = truncated_passive_energy(mu, eps)
            assert val >= prev - 1e-12
            prev = val
        assert prev == pytest.approx(target, abs=1e-5)


def scaled_ceiling(energy, x):
    """x F_H(E/x), which the W-L inequality says is nondecreasing in x."""
    return x * g_func(energy / x)


class TestWL:
    def test_oscillator_grid(self):
        for energy in (0.5, 1.0, 3.0):
            for x, y in ((0.1, 0.2), (0.3, 0.9), (0.05, 1.0)):
                assert scaled_ceiling(energy, x) <= scaled_ceiling(energy, y) + 1e-9

    def test_equal_arguments(self):
        # x = y is the equality case; the oscillator ceiling is g(E)
        assert scaled_ceiling(1.0, 0.4) == 0.4 * g_func(1.0 / 0.4)
        assert scaled_ceiling(1.0, 1.0) == g_func(1.0)


class TestEntropyCeilingInvariants:
    # the cap is the Gibbs entropy of the same 4 levels at the passive energy,
    # which is at most (4 - 1) / 2; it is below the oscillator's g(E)

    def test_entropy_below_f_of_passive(self, rng):
        for _ in range(15):
            rho = random_state(4, 4, rng)
            cap = thermal_populations_oracle(passive_energy(rho), 4)[1]
            assert von_neumann_entropy(rho) <= cap + 1e-8

    def test_avg_entropy_below_f_of_avg_passive(self, rng):
        mu = Ensemble.from_members(
            [(0.5, random_state(4, 4, rng)), (0.5, random_state(4, 2, rng))]
        )
        avg_s = sum(w * von_neumann_entropy(s) for w, s in mu.members)
        cap = thermal_populations_oracle(avg_passive_energy(mu), 4)[1]
        assert avg_s <= cap + 1e-8
