import math

import numpy as np
import pytest
from scipy.linalg import expm

from qensembles import (
    HamiltonianSpec,
    KrausChannel,
    ValidationError,
    aoe,
    avg_passive_energy,
    choi_matrix,
    choi_rank,
    coherent_overlap,
    coherent_state,
    diamond_lower,
    erasure_channel,
    erasure_pair_diamond,
    fidelity,
    fock_dephasing,
    holevo_chi,
    identity_channel,
    mix_channels,
    mix_with_state,
    norm_1to1_lower,
    solve_gibbs,
    trace_norm,
    von_neumann_entropy,
)
from qensembles.channels import (
    _difference_maps,
    displacement_operator,
    evaluate_witness,
    poisson_entropy,
)
from qensembles.energy import mean_energy
from qensembles.ensembles import Ensemble, pure_ensemble, singleton
from qensembles.errors import TruncationError
from qensembles.randomgen import (
    random_channel,
    random_ensemble,
    random_pure,
    random_pure_ensemble,
    random_state,
)

from conftest import basis_ket, ketbra
from oracles import poisson_entropy_series


class TestApply:
    def test_identity(self, rng):
        rho = random_state(3, 3, rng)
        assert np.allclose(identity_channel(3).apply(rho), rho)

    def test_full_erasure(self, rng):
        chan = erasure_channel(2, 1.0)
        rho = random_state(2, 2, rng)
        out = chan.apply(rho)
        target = np.zeros((3, 3), dtype=complex)
        target[2, 2] = 1.0
        assert np.allclose(out, target, atol=1e-12)

    def test_random_channel_output_is_state(self, rng):
        chan = random_channel(3, 4, 2, rng)
        out = chan.apply(random_state(3, 2, rng))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_tp_validation(self):
        with pytest.raises(ValidationError):
            KrausChannel(2, 2, (np.eye(2) * 0.9,))


class TestChoi:
    def test_identity_rank_one(self):
        assert choi_rank(identity_channel(2)) == 1

    def test_erasure_rank_three(self):
        assert choi_rank(erasure_channel(2, 0.3)) == 3

    def test_rank_at_most_kraus_count(self, rng):
        chan = random_channel(2, 2, 2, rng)
        assert choi_rank(chan) <= len(chan.kraus)

    def test_choi_is_state(self, rng):
        chan = random_channel(2, 3, 2, rng)
        choi = choi_matrix(chan)
        assert np.trace(choi).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(choi)[0] >= -1e-9


class TestAoeChi:
    def test_identity_on_pure(self, rng):
        mu = random_pure_ensemble(3, 3, rng)
        assert aoe(identity_channel(3), mu) == pytest.approx(0.0, abs=1e-9)

    def test_erasure_entropy_of_flag_mix(self, rng):
        p = 0.3
        chan = erasure_channel(2, p)
        mu = random_pure_ensemble(2, 2, rng)
        # outputs have spectrum (1-p, p): entropy h2(p)
        assert aoe(chan, mu) == pytest.approx(
            -p * math.log(p) - (1 - p) * math.log(1 - p), abs=1e-9
        )

    def test_aoe_rank_cap(self, rng):
        chan = random_channel(3, 2, 2, rng)
        mu = random_ensemble(3, 3, rng)
        assert aoe(chan, mu) <= math.log(2) + 1e-12

    def test_chi_singleton(self, rng):
        chan = random_channel(2, 2, 2, rng)
        assert holevo_chi(chan, singleton(random_state(2, 2, rng))) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_chi_erasure_scaling(self, rng):
        p = 0.35
        mu = random_ensemble(2, 3, rng)
        chi_plain = holevo_chi(erasure_channel(2, 0.0), mu)
        chi_erased = holevo_chi(erasure_channel(2, p), mu)
        assert chi_erased == pytest.approx((1 - p) * chi_plain, abs=1e-8)

    def test_chi_orthogonal_uniform(self):
        mu = pure_ensemble([basis_ket(3, k) for k in range(3)])
        assert holevo_chi(identity_channel(3), mu) == pytest.approx(math.log(3))

    def test_chi_two_path_agreement(self, rng):
        chan = random_channel(2, 2, 2, rng)
        mu = random_ensemble(2, 3, rng)
        assert holevo_chi(chan, mu, cross_check=True, tol=1e-8) >= 0.0

    def test_aoe_below_energy_ceiling(self, rng):
        ham = HamiltonianSpec(np.arange(3, dtype=float))
        chan = random_channel(3, 3, 2, rng)
        mu = random_ensemble(3, 2, rng)
        out = chan.apply_ensemble(mu)
        cap = solve_gibbs(ham, max(avg_passive_energy(out, ham), 1e-9)).entropy
        assert aoe(chan, mu) <= cap + 1e-8


class TestNormSearch:
    def test_equal_channels(self, rng):
        chan = random_channel(2, 2, 2, rng)
        assert norm_1to1_lower(chan, chan, restarts=4).value == pytest.approx(
            0.0, abs=1e-10
        )

    def test_erasure_pair_exact(self):
        p, q = 0.1, 0.25
        est = norm_1to1_lower(erasure_channel(2, p), erasure_channel(2, q), restarts=8)
        assert est.value == pytest.approx(2 * abs(p - q), abs=1e-9)
        dia = diamond_lower(erasure_channel(2, p), erasure_channel(2, q), restarts=8)
        assert dia.value == pytest.approx(erasure_pair_diamond(p, q).value, abs=1e-9)

    def test_mix_with_state_capped(self, rng):
        eps = 0.2
        omega = random_state(2, 2, rng)
        phi = mix_with_state(2, eps, omega)
        psi = identity_channel(2)
        assert norm_1to1_lower(phi, psi, restarts=8).value <= 2 * eps + 1e-9
        assert diamond_lower(phi, psi, restarts=8).value <= 2 * eps + 1e-9

    def test_diamond_dominates_1to1(self, rng):
        for seed in range(3):
            a = random_channel(2, 2, 2, rng)
            b = random_channel(2, 2, 2, rng)
            one = norm_1to1_lower(a, b, restarts=6, seed=seed)
            dia = diamond_lower(a, b, restarts=6, seed=seed)
            assert dia.value >= one.value - 1e-8

    def test_reproducible_and_monotone_in_restarts(self, rng):
        a = random_channel(3, 3, 2, rng)
        b = random_channel(3, 3, 2, rng)
        v1 = norm_1to1_lower(a, b, restarts=8, seed=5).value
        v2 = norm_1to1_lower(a, b, restarts=8, seed=5).value
        v3 = norm_1to1_lower(a, b, restarts=16, seed=5).value
        assert v1 == v2
        assert v3 >= v1 - 1e-12

    def test_witness_reproduces_value(self, rng):
        a = random_channel(2, 2, 2, rng)
        b = random_channel(2, 2, 2, rng)
        for est in (norm_1to1_lower(a, b, restarts=6), diamond_lower(a, b, restarts=6)):
            assert evaluate_witness(a, b, est) == pytest.approx(est.value, abs=1e-8)

    def test_energy_constrained_variant(self, rng):
        a = random_channel(2, 2, 2, rng)
        b = random_channel(2, 2, 2, rng)
        ham = HamiltonianSpec(np.array([0.0, 1.0]))
        free = diamond_lower(a, b, restarts=6)
        capped = diamond_lower(a, b, restarts=6, energy_cap=(ham, 0.2))
        assert capped.value <= free.value + 1e-9
        assert capped.extras.get("energy_constrained") is True
        assert evaluate_witness(a, b, capped) == pytest.approx(capped.value, abs=1e-8)


class TestDifferenceMaps:
    """The maps of (Phi - Psi) (x) id that both norm searches ascend on."""

    @staticmethod
    def _pair(seed, dim_in, dim_out):
        rng = np.random.default_rng(seed)
        a = random_channel(dim_in, dim_out, 2, rng)
        b = random_channel(dim_in, dim_out, 3, rng)
        return rng, a, b

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_adjoint_duality(self, seed, dims):
        dim_in, dim_out = dims
        rng, a, b = self._pair(seed, dim_in, dim_out)
        for ancilla in (1, dim_in):
            apply_fn, adjoint_fn = _difference_maps(a, b, ancilla)
            rho = random_state(dim_in * ancilla, dim_in * ancilla, rng)
            g = rng.standard_normal((2, dim_out * ancilla, dim_out * ancilla))
            x = (g[0] + 1j * g[1]) + (g[0] + 1j * g[1]).conj().T
            lhs = np.trace(x @ apply_fn(rho))
            rhs = np.trace(adjoint_fn(x) @ rho)
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_ancilla_one_is_channel_difference(self, seed, dims):
        rng, a, b = self._pair(seed, *dims)
        apply_fn, _ = _difference_maps(a, b, 1)
        rho = random_state(dims[0], dims[0], rng)
        assert np.max(np.abs(apply_fn(rho) - (a.apply(rho) - b.apply(rho)))) < 1e-13


class TestTraceNormMonotonicity:
    def test_under_random_channel(self, rng):
        chan = random_channel(3, 3, 2, rng)
        for _ in range(10):
            rho = random_state(3, 3, rng)
            sigma = random_state(3, 2, rng)
            assert trace_norm(chan.apply(rho) - chan.apply(sigma)) <= trace_norm(
                rho - sigma
            ) + 1e-10


class TestCatalog:
    def test_erasure_zero_is_isometric(self, rng):
        chan = erasure_channel(2, 0.0)
        rho = random_state(2, 2, rng)
        out = chan.apply(rho)
        assert np.allclose(out[:2, :2], rho, atol=1e-12)
        assert abs(out[2, 2]) < 1e-15

    def test_mix_channels_validates(self, rng):
        a = random_channel(2, 2, 2, rng)
        b = random_channel(2, 2, 1, rng)
        mixed = mix_channels(0.3, a, b)
        rho = random_state(2, 2, rng)
        expected = 0.7 * a.apply(rho) + 0.3 * b.apply(rho)
        assert np.allclose(mixed.apply(rho), expected, atol=1e-12)

    def test_fock_dephasing_poisson_spectrum(self):
        n_max = 40
        zeta = 1.3
        chan = fock_dephasing(n_max)
        out = chan.apply(ketbra(coherent_state(zeta, n_max)))
        n = np.arange(n_max + 1)
        expected = np.exp(-zeta**2 + n * math.log(zeta**2)
                          - np.array([math.lgamma(k + 1) for k in n]))
        assert np.allclose(np.diag(out).real, expected, atol=1e-8)

    def test_fock_dephasing_preserves_mean_photons(self):
        n_max = 60
        ham = HamiltonianSpec.oscillator(n_max + 1)
        for zeta in (0.5, 1.5 + 0.5j):
            out = fock_dephasing(n_max).apply(ketbra(coherent_state(zeta, n_max)))
            assert mean_energy(out, ham) == pytest.approx(abs(zeta) ** 2, abs=1e-6)

    def test_fock_cap(self):
        with pytest.raises(ValidationError):
            fock_dephasing(600)


class TestCoherent:
    def test_vacuum(self):
        vec = coherent_state(0.0, 10)
        assert vec[0] == 1.0 and np.all(vec[1:] == 0.0)

    def test_overlap_closed_form(self):
        z1, z2 = 0.7 + 0.2j, -0.3 + 1.0j
        v1 = coherent_state(z1, 80)
        v2 = coherent_state(z2, 80)
        assert np.vdot(v1, v2) == pytest.approx(coherent_overlap(z1, z2), abs=1e-9)

    def test_lipschitz_bound(self):
        for z1, z2 in ((0.2, 0.9), (0.5 + 0.5j, 0.1 - 0.2j)):
            dist = 0.5 * trace_norm(
                ketbra(coherent_state(z1, 60)) - ketbra(coherent_state(z2, 60))
            )
            assert dist <= abs(z1 - z2) + 1e-9

    def test_truncation_budget(self):
        with pytest.raises(TruncationError):
            coherent_state(4.0, 20)
        vec = coherent_state(2.0, 30)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_poisson_entropy_matches_dephased_state(self):
        n_max, zeta = 50, 1.2
        out = fock_dephasing(n_max).apply(ketbra(coherent_state(zeta, n_max)))
        assert von_neumann_entropy(out) == pytest.approx(
            poisson_entropy(zeta**2), abs=1e-8
        )

    def test_displacement_unitarity(self):
        d_op = displacement_operator(0.8 + 0.3j, 50)
        assert np.allclose(d_op @ d_op.conj().T, np.eye(51), atol=1e-9)


class TestClosedFormKernels:
    @pytest.mark.parametrize("n_max", [10, 48])
    def test_displacement_matches_expm(self, n_max):
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
        for zeta in (0.0, 0.5, -1.2, 1.3j, 2.0 * np.exp(0.7j)):
            gen = zeta * a.T - np.conj(zeta) * a
            diff = displacement_operator(zeta, n_max) - expm(gen)
            assert np.max(np.abs(diff)) < 1e-12

    def test_displacement_result_is_a_fresh_array(self):
        first = displacement_operator(0.7 - 0.4j, 12)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(displacement_operator(0.7 - 0.4j, 12), expected)

    def test_poisson_entropy_matches_lgamma_series(self):
        for lam in np.concatenate([[1e-6, 1e-3], np.linspace(0.0, 60.0, 241)]):
            assert poisson_entropy(lam) == pytest.approx(
                poisson_entropy_series(lam), abs=1e-11
            )


def test_compose_dimension_guard(rng):
    a = random_channel(2, 3, 2, rng)
    b = random_channel(2, 2, 2, rng)
    with pytest.raises(Exception):
        b.compose(a)
    composed = a.compose(b)
    rho = random_state(2, 2, rng)
    assert np.allclose(composed.apply(rho), a.apply(b.apply(rho)), atol=1e-12)
