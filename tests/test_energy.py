import math

import numpy as np
import pytest

from qensembles import (
    ConvergenceError,
    EnergyRangeError,
    HamiltonianSpec,
    ValidationError,
    avg_passive_energy,
    eigvals_desc,
    g_func,
    mean_energy,
    passive_energy,
    solve_gibbs,
    truncated_passive_energy,
    von_neumann_entropy,
)
from qensembles import energy as energy_mod
from qensembles.channels import displacement_operator
from qensembles.ensembles import Ensemble, singleton
from qensembles.linalg import hermitian_part
from qensembles.randomgen import random_pure, random_state, random_unitary

from conftest import ketbra

QUBIT = HamiltonianSpec.oscillator(2)


def test_hamiltonian_spec_validation():
    with pytest.raises(ValidationError):
        HamiltonianSpec.oscillator(1)
    ham = HamiltonianSpec.oscillator(5)
    assert ham.levels == 5 and np.array_equal(ham.eigenvalues, np.arange(5.0))
    assert ham.max_mean == 2.0


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
        ham = HamiltonianSpec.oscillator(5)
        gibbs = np.diag(solve_gibbs(ham, 1.0, auto_extend=False).weights)
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
        ham = HamiltonianSpec.oscillator(n_max + 1)
        gibbs = np.diag(solve_gibbs(ham, n0, auto_extend=False).weights)
        members = []
        for mag in (0.5, 1.0, 1.5, 2.0):
            d_op = displacement_operator(mag, n_max)
            rho = d_op @ gibbs @ d_op.conj().T
            members.append((0.25, hermitian_part(rho / np.trace(rho).real)))
        mu = Ensemble.from_members(members)
        assert avg_passive_energy(mu) == pytest.approx(n0, abs=1e-6)


class TestSolveGibbs:
    def test_qubit_midpoint_is_uniform(self):
        sol = solve_gibbs(QUBIT, 0.5, auto_extend=False)
        assert sol.beta == 0.0
        assert np.array_equal(sol.weights, [0.5, 0.5])
        assert sol.entropy == pytest.approx(math.log(2))

    def test_oscillator_matches_closed_form(self):
        ham = HamiltonianSpec.oscillator(200)
        sol = solve_gibbs(ham, 1.0, auto_extend=False)
        assert sol.entropy == pytest.approx(g_func(1.0), abs=1e-8)
        assert sol.mean_energy == pytest.approx(1.0, abs=1e-9)

    def test_ground_limit(self):
        ham = HamiltonianSpec.oscillator(3)
        assert solve_gibbs(ham, 1e-6, auto_extend=False).entropy < 2e-5

    def test_range_error_carries_interval(self):
        with pytest.raises(EnergyRangeError) as err:
            solve_gibbs(QUBIT, 0.9, auto_extend=False)
        assert err.value.lo == 0.0 and err.value.hi == pytest.approx(0.5)
        # energy 0 is refused and the top of the spectrum's range accepted
        assert str(err.value) == "mean energy 0.9 outside achievable interval (0.0, 0.5]"
        with pytest.raises(EnergyRangeError):
            solve_gibbs(QUBIT, 0.0, auto_extend=False)
        assert solve_gibbs(QUBIT, 0.5, auto_extend=False).beta == 0.0

    def test_unclosed_bisection_raises(self, monkeypatch):
        monkeypatch.setattr(energy_mod, "GIBBS_BISECTIONS", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_gibbs(HamiltonianSpec.oscillator(64), 10.0, auto_extend=False)
        assert err.value.gap > 1e-10 * 10.0

    def test_witness_energies_keep_their_beta(self):
        # the scb-energy witness states; betas as the bisection has always given them
        ham = HamiltonianSpec.oscillator(64)
        for energy, beta in ((10.0, 0.09531017980279965), (2.0, 0.40546510810302105),
                             (4.0, 0.2231435513176957)):
            assert solve_gibbs(ham, energy).beta == beta

    def test_extension_doubles_until_the_tail_is_negligible(self):
        start = HamiltonianSpec.oscillator(64)
        for energy, levels in ((10.0, 512), (2.0, 128)):
            sol = solve_gibbs(start, energy)
            assert sol.weights.size == levels and not sol.tail_warning
        assert solve_gibbs(start, 10.0).weights[-1] == pytest.approx(6.4e-23, rel=0.01)

    def test_extension_stops_at_the_cap_with_a_warning(self):
        start = HamiltonianSpec.oscillator(64)
        sol = solve_gibbs(start, 900.0)
        assert sol.weights.size == energy_mod.EXTEND_CAP == 2000
        assert sol.tail_warning
        with pytest.raises(EnergyRangeError) as err:
            solve_gibbs(start, 1000.0)
        assert err.value.hi == 999.5

    def test_maximal_entropy_among_sampled_states(self, rng):
        ham = HamiltonianSpec.oscillator(4)
        energy = 0.8
        sol = solve_gibbs(ham, energy, auto_extend=False)
        ev = ham.eigenvalues
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
            assert sol.entropy >= sampled - 1e-8


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
        with pytest.raises(EnergyRangeError):
            solve_gibbs(HamiltonianSpec.oscillator(3), 0.0, auto_extend=False)

    def test_truncation_tracks_closed_form(self):
        # K=200 truncation against g(E) across the working range
        ham = HamiltonianSpec.oscillator(200)
        for energy in np.linspace(0.01, 10.0, 23):
            assert solve_gibbs(ham, energy, auto_extend=False).entropy == pytest.approx(
                g_func(energy), abs=1e-8
            )

    def test_strictly_increasing_and_concave(self):
        ham = HamiltonianSpec.oscillator(5)
        grid = np.linspace(0.05, 1.5, 12)
        vals = [solve_gibbs(ham, e, auto_extend=False).entropy for e in grid]
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
    def test_entropy_below_f_of_passive(self, rng):
        ham = HamiltonianSpec.oscillator(4)
        for _ in range(15):
            rho = random_state(4, 4, rng)
            cap = solve_gibbs(ham, passive_energy(rho), auto_extend=False).entropy
            assert von_neumann_entropy(rho) <= cap + 1e-8

    def test_avg_entropy_below_f_of_avg_passive(self, rng):
        ham = HamiltonianSpec.oscillator(4)
        mu = Ensemble.from_members(
            [(0.5, random_state(4, 4, rng)), (0.5, random_state(4, 2, rng))]
        )
        avg_s = sum(w * von_neumann_entropy(s) for w, s in mu.members)
        cap = solve_gibbs(ham, avg_passive_energy(mu), auto_extend=False).entropy
        assert avg_s <= cap + 1e-8
