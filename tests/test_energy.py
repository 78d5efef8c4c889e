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
    f_h,
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

QUBIT = HamiltonianSpec(np.array([0.0, 1.0]))


def test_hamiltonian_spec_validation():
    with pytest.raises(ValidationError):
        HamiltonianSpec(np.array([1.0, 0.5]))
    with pytest.raises(ValidationError):
        HamiltonianSpec(np.array([0.0]))
    with pytest.raises(ValidationError):
        HamiltonianSpec(np.array([0.0, 2.0]), closed_form="oscillator")
    ham = HamiltonianSpec.oscillator(5)
    assert ham.ground_shifted and ham.levels == 5


class TestPassiveEnergy:
    def test_pure_state_ground_shifted(self, rng):
        psi = random_pure(4, rng)
        ham = HamiltonianSpec.oscillator(6)
        assert passive_energy(ketbra(psi), ham) == pytest.approx(0.0, abs=1e-12)

    def test_sorted_dot_product(self):
        assert passive_energy(np.diag([0.5, 0.5]), QUBIT) == pytest.approx(0.5)

    def test_below_mean_energy(self, rng):
        ham = HamiltonianSpec.oscillator(4)
        for _ in range(20):
            rho = random_state(4, 4, rng)
            assert passive_energy(rho, ham) <= mean_energy(rho, ham) + 1e-10

    def test_dim_guard(self):
        with pytest.raises(Exception):
            passive_energy(np.eye(3) / 3, QUBIT)


def rearranged(rho):
    """Passive rearrangement: rho's descending spectrum, clipped at 0, on the diagonal."""
    return np.diag(np.clip(eigvals_desc(rho), 0.0, None)).astype(complex)


class TestPassiveRearrangement:
    """passive_energy(rho) is the mean energy of rho's passive rearrangement."""

    def test_sorted_diagonal_fixed_point(self):
        rho = np.diag([0.8, 0.2]).astype(complex)
        assert np.array_equal(rearranged(rho), rho)
        assert passive_energy(rho, QUBIT) == pytest.approx(mean_energy(rho, QUBIT), abs=1e-15)

    def test_gibbs_conjugate_restores(self, rng):
        ham = HamiltonianSpec.oscillator(5)
        gibbs = np.diag(solve_gibbs(ham, 1.0, auto_extend=False).weights)
        u = random_unitary(5, rng)
        rotated = u @ gibbs @ u.conj().T
        assert np.allclose(rearranged(rotated), gibbs, atol=1e-10)
        assert passive_energy(rotated, ham) == pytest.approx(
            mean_energy(gibbs, ham), abs=1e-12
        )

    def test_entropy_preserved(self, rng):
        ham = HamiltonianSpec.oscillator(4)
        rho = random_state(4, 4, rng)
        assert von_neumann_entropy(rearranged(rho)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )
        assert passive_energy(rho, ham) == pytest.approx(
            mean_energy(rearranged(rho), ham), abs=1e-14
        )


class TestErgotropy:
    """The ergotropy Tr H rho - passive_energy(rho) is the work unitaries extract."""

    def test_passive_state(self):
        rho = np.diag([0.7, 0.3])
        assert mean_energy(rho, QUBIT) - passive_energy(rho, QUBIT) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_excited_state(self):
        rho = np.diag([0.0, 1.0])
        assert mean_energy(rho, QUBIT) - passive_energy(rho, QUBIT) == pytest.approx(1.0)

    def test_nonnegative(self, rng):
        ham = HamiltonianSpec.oscillator(4)
        for rank in (1, 2, 4):
            for _ in range(10):
                rho = random_state(4, rank, rng)
                assert passive_energy(rho, ham) <= mean_energy(rho, ham) + 1e-12
                assert passive_energy(rho, ham) == pytest.approx(
                    mean_energy(rearranged(rho), ham), abs=1e-14
                )


class TestAvgPassiveEnergy:
    def test_pure_ensemble_zero(self, rng):
        ham = HamiltonianSpec.oscillator(3)
        mu = Ensemble.from_members(
            [(0.5, ketbra(random_pure(3, rng))), (0.5, ketbra(random_pure(3, rng)))]
        )
        assert avg_passive_energy(mu, ham) == pytest.approx(0.0, abs=1e-12)

    def test_singleton(self, rng):
        ham = HamiltonianSpec.oscillator(3)
        rho = random_state(3, 3, rng)
        assert avg_passive_energy(singleton(rho), ham) == pytest.approx(
            passive_energy(rho, ham)
        )

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
        assert avg_passive_energy(mu, ham) == pytest.approx(n0, abs=1e-6)


class TestSolveGibbs:
    def test_qubit_midpoint_is_uniform(self):
        sol = solve_gibbs(QUBIT, 0.5)
        assert sol.beta == 0.0
        assert np.array_equal(sol.weights, [0.5, 0.5])
        assert sol.entropy == pytest.approx(math.log(2))

    def test_oscillator_matches_closed_form(self):
        ham = HamiltonianSpec.oscillator(200)
        sol = solve_gibbs(ham, 1.0, auto_extend=False)
        assert sol.entropy == pytest.approx(g_func(1.0), abs=1e-8)
        assert sol.mean_energy == pytest.approx(1.0, abs=1e-9)

    def test_ground_limit(self):
        ham = HamiltonianSpec(np.array([0.0, 1.0, 2.0]))
        assert solve_gibbs(ham, 1e-6).entropy < 2e-5

    def test_range_error_carries_interval(self):
        with pytest.raises(EnergyRangeError) as err:
            solve_gibbs(QUBIT, 0.9)
        assert err.value.lo == 0.0 and err.value.hi == pytest.approx(0.5)
        with pytest.raises(EnergyRangeError):
            solve_gibbs(QUBIT, 0.0)

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

    def test_maximal_entropy_among_sampled_states(self, rng):
        ham = HamiltonianSpec(np.array([0.0, 1.0, 2.0, 4.0]))
        energy = 0.8
        sol = solve_gibbs(ham, energy)
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
    def test_oscillator_closed_form(self):
        ham = HamiltonianSpec.oscillator(200)
        for energy in (0.3, 1.0, 7.5):
            assert f_h(ham, energy) == g_func(energy)

    def test_nondegenerate_ground_zero(self):
        ham = HamiltonianSpec(np.array([0.0, 1.0, 3.0]))
        assert f_h(ham, 0.0) == 0.0

    def test_degenerate_ground(self):
        ham = HamiltonianSpec(np.array([0.0, 0.0, 1.0, 2.0]))
        assert f_h(ham, 0.0) == pytest.approx(math.log(2))

    def test_truncation_tracks_closed_form(self):
        # K=200 truncation against g(E) across the working range
        ham = HamiltonianSpec(np.arange(200, dtype=float))
        for energy in np.linspace(0.01, 10.0, 23):
            assert solve_gibbs(ham, energy).entropy == pytest.approx(
                g_func(energy), abs=1e-8
            )

    def test_shifted_double_ground_sandwich(self):
        # spectrum (0,0,1,2,...): g(E) <= F_H(E) <= g(E) + ln 2
        ham = HamiltonianSpec(np.concatenate([[0.0], np.arange(399, dtype=float)]))
        for energy in (0.2, 0.5, 1.0, 2.0, 5.0):
            val = f_h(ham, energy)
            assert val >= g_func(energy) - 1e-9
            assert val <= g_func(energy) + math.log(2) + 1e-9

    def test_strictly_increasing_and_concave(self):
        ham = HamiltonianSpec(np.array([0.0, 0.5, 1.3, 2.0, 4.0]))
        grid = np.linspace(0.05, 1.5, 12)
        vals = [f_h(ham, e) for e in grid]
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(diffs) < 1e-9)


class TestTruncatedPassiveEnergy:
    def test_large_eps_vanishes(self, rng):
        ham = HamiltonianSpec.oscillator(3)
        mu = Ensemble.from_members([(1.0, random_state(3, 3, rng))])
        assert truncated_passive_energy(mu, ham, 1.1) == 0.0

    def test_singleton_worked_case(self):
        mu = singleton(np.diag([0.8, 0.2]).astype(complex))
        assert truncated_passive_energy(mu, QUBIT, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_limit(self, rng):
        ham = HamiltonianSpec.oscillator(4)
        mu = Ensemble.from_members(
            [(0.6, random_state(4, 4, rng)), (0.4, random_state(4, 4, rng))]
        )
        target = avg_passive_energy(mu, ham)
        prev = -1.0
        for eps in (0.5, 0.2, 0.1, 0.01, 1e-4, 1e-7):
            val = truncated_passive_energy(mu, ham, eps)
            assert val >= prev - 1e-12
            prev = val
        assert prev == pytest.approx(target, abs=1e-5)


def scaled_ceiling(ham, energy, x):
    """x F_H(E/x), which the W-L inequality says is nondecreasing in x."""
    return x * f_h(ham, energy / x)


class TestWL:
    def test_oscillator_grid(self):
        ham = HamiltonianSpec.oscillator(200)
        for energy in (0.5, 1.0, 3.0):
            for x, y in ((0.1, 0.2), (0.3, 0.9), (0.05, 1.0)):
                assert scaled_ceiling(ham, energy, x) <= scaled_ceiling(ham, energy, y) + 1e-9

    def test_equal_arguments(self):
        ham = HamiltonianSpec.oscillator(50)
        # x = y is the equality case; the oscillator ceiling is g(E)
        assert scaled_ceiling(ham, 1.0, 0.4) == 0.4 * g_func(1.0 / 0.4)
        assert scaled_ceiling(ham, 1.0, 1.0) == f_h(ham, 1.0) == g_func(1.0)

    def test_random_truncated_spectra(self, rng):
        for _ in range(10):
            ev = np.sort(rng.uniform(0.0, 3.0, size=6))
            ev[0] = 0.0
            ham = HamiltonianSpec(ev)
            hi = ham.max_mean
            energy = float(rng.uniform(0.05, 0.5)) * hi
            x = float(rng.uniform(energy / hi, 0.9))
            y = float(rng.uniform(x, 1.0))
            assert scaled_ceiling(ham, energy, x) <= scaled_ceiling(ham, energy, y) + 1e-9


class TestEntropyCeilingInvariants:
    def test_entropy_below_f_of_passive(self, rng):
        ham = HamiltonianSpec(np.arange(4, dtype=float))
        for _ in range(15):
            rho = random_state(4, 4, rng)
            cap = solve_gibbs(ham, passive_energy(rho, ham)).entropy
            assert von_neumann_entropy(rho) <= cap + 1e-8

    def test_avg_entropy_below_f_of_avg_passive(self, rng):
        ham = HamiltonianSpec(np.arange(4, dtype=float))
        mu = Ensemble.from_members(
            [(0.5, random_state(4, 4, rng)), (0.5, random_state(4, 2, rng))]
        )
        avg_s = sum(w * von_neumann_entropy(s) for w, s in mu.members)
        cap = solve_gibbs(ham, avg_passive_energy(mu, ham)).entropy
        assert avg_s <= cap + 1e-8
