import math

import numpy as np
import pytest

from qensembles import (
    Ensemble,
    ValidationError,
    average_entropy,
    average_state,
    d0,
    fidelity,
    steer_to_average,
    trace_norm,
    von_neumann_entropy,
)
from qensembles.ensembles import _check_weights, perturb_weights, pure_ensemble, singleton
from qensembles.randomgen import (
    random_ensemble,
    random_pure,
    random_pure_ensemble,
    random_state,
)

from conftest import basis_ket, ketbra
from oracles import qc_conditional_entropy, qc_state


class TestEnsembleType:
    def test_weight_validation(self, rng):
        states = (random_state(2, 2, rng), random_state(2, 2, rng))
        with pytest.raises(ValidationError):
            Ensemble(2, np.array([0.7, 0.7]), states)
        with pytest.raises(ValidationError):
            Ensemble(2, np.array([1.2, -0.2]), states)

    def test_zero_weight_members_allowed(self, rng):
        mu = Ensemble(2, np.array([1.0, 0.0]),
                      (random_state(2, 2, rng), random_state(2, 2, rng)))
        assert len(mu) == 2

    def test_state_validation(self):
        with pytest.raises(ValidationError):
            Ensemble.from_members([(1.0, np.eye(2))])


class TestAverageState:
    def test_singleton(self, rng):
        rho = random_state(3, 3, rng)
        assert np.allclose(average_state(singleton(rho)), rho)

    def test_orthogonal_mix(self):
        mu = Ensemble.from_members(
            [(0.5, ketbra(basis_ket(2, 0))), (0.5, ketbra(basis_ket(2, 1)))]
        )
        assert np.allclose(average_state(mu), np.eye(2) / 2)

    def test_random_is_state(self, rng):
        mu = random_ensemble(3, 4, rng)
        avg = average_state(mu)
        assert np.trace(avg).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(avg)[0] >= -1e-12


class TestQcState:
    def test_singleton_block(self, rng):
        rho = random_state(2, 2, rng)
        out = qc_state([1.0], [rho])
        assert np.allclose(out, np.kron(rho, np.array([[1.0]])))

    def test_trace_one(self, rng):
        mu = random_ensemble(2, 3, rng)
        assert np.trace(qc_state(mu.weights, mu.states)).real == pytest.approx(
            1.0, abs=1e-12
        )

    def test_trace_distance_recovers_d0(self, rng):
        mu = random_ensemble(2, 3, rng)
        nu = random_ensemble(2, 3, rng)
        qc_mu, qc_nu = qc_state(mu.weights, mu.states), qc_state(nu.weights, nu.states)
        assert trace_norm(qc_mu - qc_nu) == pytest.approx(
            2 * d0(mu, nu), abs=1e-10
        )


class TestQcConditionalEntropy:
    def test_pure_ensemble(self, rng):
        mu = random_pure_ensemble(3, 3, rng)
        assert average_entropy(mu) == pytest.approx(0.0, abs=1e-9)

    def test_singleton(self, rng):
        rho = random_state(3, 3, rng)
        assert average_entropy(singleton(rho)) == pytest.approx(
            von_neumann_entropy(rho)
        )

    def test_matches_bipartite_conditional_entropy(self, rng):
        for d, n in ((2, 3), (3, 4)):
            mu = random_ensemble(d, n, rng)
            assert average_entropy(mu) == pytest.approx(qc_conditional_entropy(mu), abs=1e-9)


class TestSteering:
    def test_fixed_point(self, rng):
        mu = random_ensemble(3, 3, rng)
        nu, mu_prime = steer_to_average(mu, average_state(mu))
        assert len(nu) == len(mu)
        for (w, s), (v, t) in zip(mu.members, nu.members):
            assert abs(w - v) < 1e-8
            assert trace_norm(s - t) < 1e-8
        assert d0(mu_prime, nu) < 1e-8

    def test_pure_inputs_steer_to_pure(self, rng):
        mu = random_pure_ensemble(2, 4, rng)
        sigma = 0.7 * average_state(mu) + 0.3 * random_state(2, 2, rng)
        nu, _ = steer_to_average(mu, sigma)
        for w, s in nu.members:
            if w > 1e-12:
                assert np.linalg.eigvalsh(s)[-1] >= 1.0 - 1e-8

    def test_postconditions_random(self, rng):
        for _ in range(10):
            mu = random_ensemble(2, 3, rng)
            sigma = 0.6 * average_state(mu) + 0.4 * random_state(2, 2, rng)
            nu, mu_prime = steer_to_average(mu, sigma)
            assert trace_norm(average_state(nu) - sigma) < 1e-8
            delta = math.sqrt(max(1 - fidelity(average_state(mu), sigma), 0.0))
            assert d0(mu_prime, nu) <= delta + 1e-8

    def test_rank_deficient_average_with_remainder(self, rng):
        # mu confined to a subspace, target with full support: the POVM gains
        # an off-support remainder outcome and mu gets a zero-weight pad
        v0, v1 = basis_ket(3, 0), basis_ket(3, 1)
        mu = pure_ensemble([v0, v1])
        sigma = 0.8 * average_state(mu) + 0.2 * np.eye(3) / 3
        nu, mu_prime = steer_to_average(mu, sigma)
        assert len(mu_prime) == len(nu)
        assert trace_norm(average_state(nu) - sigma) < 1e-8
        delta = math.sqrt(max(1 - fidelity(average_state(mu), sigma), 0.0))
        assert d0(mu_prime, nu) <= delta + 1e-8

    def test_off_support_remainder_in_closed_form(self):
        # mu = |0><0| and sigma diagonal: the member keeps sigma's weight on
        # |0>, and the off-support remainder outcome takes the rest of sigma,
        # at weight t in nu and as a zero-weight pad of mu
        mu = singleton(ketbra(basis_ket(3, 0)))
        sigma = np.diag([0.75, 0.15, 0.10]).astype(complex)
        nu, mu_prime = steer_to_average(mu, sigma)
        assert np.allclose(nu.weights, [0.75, 0.25], rtol=0.0, atol=1e-12)
        assert np.allclose(nu.states[0], np.diag([1.0, 0.0, 0.0]), rtol=0.0, atol=1e-12)
        assert np.allclose(nu.states[1], np.diag([0.0, 0.6, 0.4]), rtol=0.0, atol=1e-12)
        assert mu_prime.weights.tolist() == [1.0, 0.0]
        assert np.array_equal(mu_prime.states[0], mu.states[0])
        assert np.array_equal(mu_prime.states[1], nu.states[1])
        assert d0(mu_prime, nu) == pytest.approx(0.25, abs=1e-12)
        # sigma inside mu's support leaves no remainder and no pad
        nu, mu_prime = steer_to_average(mu, mu.states[0])
        assert len(nu) == len(mu_prime) == 1

    def test_invalid_target(self, rng):
        mu = random_ensemble(2, 2, rng)
        with pytest.raises(ValidationError):
            steer_to_average(mu, np.eye(2))


def test_pure_ensemble_builder(rng):
    vecs = [random_pure(2, rng) for _ in range(3)]
    mu = pure_ensemble(vecs)
    assert np.allclose(mu.weights, np.ones(3) / 3)
    for _, s in mu.members:
        assert np.trace(s @ s).real == pytest.approx(1.0, abs=1e-10)


class TestPerturbWeights:
    def test_weights_are_the_clipped_normalized_shift(self, rng):
        # bit for bit the shift the function replaced, which re-validated
        # its normalized weights
        for n in (1, 2, 5):
            mu = random_ensemble(2, n, rng)
            for t in (0.0, 0.1, 3.0, -2.0):
                direction = rng.normal(size=n)
                d = direction - np.mean(direction)
                w = np.clip(mu.weights + t * d, 0.0, None)
                want = _check_weights(w / np.sum(w), "weights")
                nu = perturb_weights(mu, direction, t)
                assert nu.weights.tobytes() == want.tobytes()
                assert nu.states is mu.states and not nu.weights.flags.writeable

    @pytest.mark.parametrize("direction, t", [
        ([0.2, np.nan, 0.1], 0.1),
        ([0.2, np.inf, 0.1], 0.1),
        ([0.2, -np.inf, 0.1], 0.1),
        ([0.2, -0.3, 0.1], np.nan),
        ([0.2, -0.3, 0.1], np.inf),
        ([0.2, -0.3, 0.1], -np.inf),
        ([0.2, 0.2, 0.2], np.inf),
        # finite, yet the shift overflows, or clips every weight: the
        # centred direction of equal entries is a tiny negative constant
        ([1e10, -1e10, 0.0], 1e300),
        ([0.1, 0.1, 0.1], 1e300),
    ])
    def test_non_finite_or_overflowing_shift_raises(self, direction, t):
        mu = Ensemble.from_members([(1 / 3, ketbra(basis_ket(2, k % 2))) for k in range(3)])
        with np.errstate(all="ignore"), pytest.raises(ValidationError):
            perturb_weights(mu, direction, t)
