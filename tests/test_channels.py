import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qensembles import (
    KrausChannel,
    ValidationError,
    aoe,
    avg_passive_energy,
    coherent_state,
    erasure_channel,
    erasure_pair_diamond,
    fidelity,
    holevo_chi,
    identity_channel,
    mix_channels,
    mix_with_state,
    trace_norm,
    von_neumann_entropy,
)
from qensembles.channels import (
    FOCK_CAP,
    MIX_EIG_CUT,
    _LOG_FACTORIAL,
    _POISSON_BLOCK_CELLS,
    apply_ensembles,
    displacement_operator,
    holevo_chis,
    poisson_entropy,
)
from qensembles.energy import mean_energy
from qensembles.ensembles import Ensemble, average_singleton, pure_ensemble, singleton
from qensembles.errors import TruncationError
from qensembles.experiments import gaussian_grid_measure
from qensembles.linalg import check_density
from qensembles.randomgen import (
    random_channel,
    random_ensemble,
    random_pure,
    random_pure_ensemble,
    random_state,
)

from conftest import basis_ket, ketbra
from oracles import (
    holevo_relative_entropy_form,
    poisson_entropy_series,
    thermal_populations_oracle,
)


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
        for d in (2, 3):
            chan = random_channel(d, d, 2, rng)
            mu = random_ensemble(d, 3, rng)
            assert holevo_chi(chan, mu) == pytest.approx(
                holevo_relative_entropy_form(chan, mu), abs=1e-8
            )

    def test_aoe_below_energy_ceiling(self, rng):
        chan = random_channel(3, 3, 2, rng)
        mu = random_ensemble(3, 2, rng)
        out = chan.apply_ensemble(mu)
        # the Gibbs entropy of the same 3 levels at the average passive energy
        cap = thermal_populations_oracle(avg_passive_energy(out), 3)[1]
        assert aoe(chan, mu) <= cap + 1e-8

    def test_chi_batch_over_outputs_is_the_per_pair_chi(self, rng):
        # output pairs of three dimensions and two output sizes, one batch
        pairs = [(random_channel(d, d_out, 2, rng), random_ensemble(d, n, rng))
                 for d, d_out, n in ((2, 2, 3), (3, 4, 1), (2, 3, 2), (3, 3, 4))]
        pairs.append((identity_channel(3), pure_ensemble([basis_ket(3, k) for k in range(3)])))
        outputs = [apply_ensembles([(chan, mu), (chan, average_singleton(mu))])
                   for chan, mu in pairs]
        chis = holevo_chis(outputs)
        assert chis == [holevo_chi(chan, mu) for chan, mu in pairs]
        assert all(type(chi) is float and chi >= 0.0 for chi in chis)
        assert chis[-1] == pytest.approx(math.log(3))
        assert holevo_chis([]) == []


class TestTraceNormMonotonicity:
    def test_under_random_channel(self, rng):
        chan = random_channel(3, 3, 2, rng)
        for _ in range(10):
            rho = random_state(3, 3, rng)
            sigma = random_state(3, 2, rng)
            assert trace_norm(chan.apply(rho) - chan.apply(sigma)) <= trace_norm(
                rho - sigma
            ) + 1e-10


def _with_ancilla(chan, ancilla):
    """chan (x) id on an ancilla of the given dimension."""
    ops = [np.kron(k, np.eye(ancilla)) for k in chan.kraus]
    return KrausChannel(chan.dim_in * ancilla, chan.dim_out * ancilla, ops)


class TestNormSearch:
    """Sampled inputs searched against the closed-form channel distances that
    the bounds take as their closeness."""

    def test_erasure_pair_exact(self, rng):
        # every input, with or without an ancilla, attains the closed form
        p, q = 0.1, 0.25
        closed = erasure_pair_diamond(p, q)
        assert type(closed) is float and closed == pytest.approx(2 * abs(p - q))
        a, b = erasure_channel(2, p), erasure_channel(2, q)
        for ancilla in (1, 2):
            for _ in range(5):
                rho = ketbra(random_pure(2 * ancilla, rng))
                gap = trace_norm(_with_ancilla(a, ancilla).apply(rho)
                                 - _with_ancilla(b, ancilla).apply(rho))
                assert gap == pytest.approx(closed, abs=1e-9)

    def test_mix_with_state_capped(self, rng):
        # the closed-form half-diamond bounds t of the harness's channel pairs
        eps, t = 0.2, 0.15
        pairs = [(mix_with_state(2, eps, random_state(2, 2, rng)), identity_channel(2), eps)]
        for d in (2, 3):
            a = random_channel(d, d, 2, rng)
            pairs.append((a, mix_channels(t, a, random_channel(d, d, 2, rng)), t))
        for a, b, bound in pairs:
            for _ in range(20):
                rho = ketbra(random_pure(a.dim_in**2, rng))
                gap = trace_norm(_with_ancilla(a, a.dim_in).apply(rho)
                                 - _with_ancilla(b, a.dim_in).apply(rho))
                assert gap <= 2 * bound + 1e-9


class TestDifferenceMaps:
    """(Phi - Psi) (x) id applied as the difference of two extended Kraus
    channels, the map whose trace norms the distance checks sample."""

    @staticmethod
    def _pair(seed, dim_in, dim_out):
        rng = np.random.default_rng(seed)
        a = random_channel(dim_in, dim_out, 2, rng)
        b = random_channel(dim_in, dim_out, 3, rng)
        return rng, a, b

    @staticmethod
    def _adjoint(chan, x):
        # sum_i K_i^dagger X K_i, the Hilbert-Schmidt adjoint of the Kraus map
        ops = chan.kraus
        return np.sum(ops.conj().swapaxes(-1, -2) @ x @ ops, axis=0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_adjoint_duality(self, seed, dims):
        dim_in, dim_out = dims
        rng, a, b = self._pair(seed, dim_in, dim_out)
        for ancilla in (1, dim_in):
            ext_a, ext_b = _with_ancilla(a, ancilla), _with_ancilla(b, ancilla)
            rho = random_state(dim_in * ancilla, dim_in * ancilla, rng)
            g = rng.standard_normal((2, dim_out * ancilla, dim_out * ancilla))
            x = (g[0] + 1j * g[1]) + (g[0] + 1j * g[1]).conj().T
            lhs = np.trace(x @ (ext_a.apply(rho) - ext_b.apply(rho)))
            rhs = np.trace((self._adjoint(ext_a, x) - self._adjoint(ext_b, x)) @ rho)
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_ancilla_one_is_channel_difference(self, seed, dims):
        rng, a, b = self._pair(seed, *dims)
        rho = random_state(dims[0], dims[0], rng)
        delta = a.apply(rho) - b.apply(rho)
        ext = _with_ancilla(a, 1).apply(rho) - _with_ancilla(b, 1).apply(rho)
        assert np.max(np.abs(ext - delta)) < 1e-13
        # a mixture moves by t times the difference, so its closeness is t
        mixed = mix_channels(0.3, b, a).apply(rho) - b.apply(rho)
        assert np.max(np.abs(mixed - 0.3 * delta)) < 1e-13


class TestCatalog:
    def test_erasure_zero_is_isometric(self, rng):
        chan = erasure_channel(2, 0.0)
        rho = random_state(2, 2, rng)
        out = chan.apply(rho)
        assert np.allclose(out[:2, :2], rho, atol=1e-12)
        assert abs(out[2, 2]) < 1e-15

    def test_mix_with_state_stack_equals_the_loop_built_operators(self):
        # oracle: one np.zeros operator per kept eigenpair, then per column j,
        # with sqrt(eps lam) col in column j
        def loop_built(dim, eps, omega):
            ops = []
            if eps < 1.0:
                ops.append(math.sqrt(1.0 - eps) * np.eye(dim, dtype=complex))
            if eps > 0.0:
                w, v = np.linalg.eigh(check_density(omega, dim=dim))
                for lam, col in zip(w, v.T):
                    if lam > MIX_EIG_CUT:
                        for j in range(dim):
                            k = np.zeros((dim, dim), dtype=complex)
                            k[:, j] = math.sqrt(eps * lam) * col
                            ops.append(k)
            return np.array(ops)

        rng = np.random.default_rng(33)
        for dim in range(1, 6):
            for rank in range(1, dim + 1):
                for eps in (0.0, 1.0, *rng.uniform(0.0, 1.0, 3).tolist()):
                    omega = random_state(dim, rank, rng)
                    kraus = mix_with_state(dim, eps, omega).kraus
                    expected = loop_built(dim, eps, omega)
                    assert kraus.shape == expected.shape
                    assert kraus.tobytes() == expected.tobytes()
        with pytest.raises(ValidationError):
            mix_with_state(2, 0.5, np.diag([0.5, 0.6]))  # omega is still checked

    def test_mix_channels_validates(self, rng):
        a = random_channel(2, 2, 2, rng)
        b = random_channel(2, 2, 1, rng)
        mixed = mix_channels(0.3, a, b)
        rho = random_state(2, 2, rng)
        expected = 0.7 * a.apply(rho) + 0.3 * b.apply(rho)
        assert np.allclose(mixed.apply(rho), expected, atol=1e-12)

    def test_fock_dephasing_poisson_spectrum(self):
        # dephasing a coherent state in the number basis leaves |amplitudes|^2
        n_max = 40
        zeta = 1.3
        pops = np.abs(coherent_state(zeta, n_max)) ** 2
        n = np.arange(n_max + 1)
        expected = np.exp(-zeta**2 + n * math.log(zeta**2)
                          - np.array([math.lgamma(k + 1) for k in n]))
        assert np.allclose(pops, expected, atol=1e-8)

    def test_fock_dephasing_preserves_mean_photons(self):
        n_max = 60
        for zeta in (0.5, 1.5 + 0.5j):
            out = np.diag(np.abs(coherent_state(zeta, n_max)) ** 2)
            assert mean_energy(out) == pytest.approx(abs(zeta) ** 2, abs=1e-6)


class TestCoherent:
    def test_vacuum(self):
        vec = coherent_state(0.0, 10)
        assert vec[0] == 1.0 and np.all(vec[1:] == 0.0)

    def test_zero_amplitude_is_the_vacuum_at_every_cut(self):
        # zeta = 0 has no log |zeta|^2; the vacuum it returns is the limit of
        # small amplitudes, and holds at the smallest truncation too
        for zeta in (0.0, 0j, -0.0):
            for n_max in (0, 1, 7):
                vec = coherent_state(zeta, n_max)
                assert vec.dtype == complex and vec.shape == (n_max + 1,)
                assert vec.tolist() == [1.0] + [0.0] * n_max
        near = coherent_state(1e-9 * np.exp(0.3j), 7)
        assert np.allclose(near, coherent_state(0.0, 7), rtol=0.0, atol=2e-9)

    def test_overlap_closed_form(self):
        z1, z2 = 0.7 + 0.2j, -0.3 + 1.0j
        v1 = coherent_state(z1, 80)
        v2 = coherent_state(z2, 80)
        closed = np.exp(-0.5 * (abs(z1) ** 2 + abs(z2) ** 2) + np.conj(z1) * z2)
        assert np.vdot(v1, v2) == pytest.approx(closed, abs=1e-9)

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

    def test_truncation_past_fock_cap_raises(self):
        # the ln n! table ends at FOCK_CAP; a longer vector is a TruncationError
        assert coherent_state(0.5, FOCK_CAP).shape == (FOCK_CAP + 1,)
        with pytest.raises(TruncationError, match="FOCK_CAP"):
            coherent_state(0.5, FOCK_CAP + 1)

    def test_poisson_entropy_matches_dephased_state(self):
        n_max, zeta = 50, 1.2
        out = np.diag(np.abs(coherent_state(zeta, n_max)) ** 2)
        assert von_neumann_entropy(out) == pytest.approx(
            poisson_entropy(zeta**2), abs=1e-8
        )

    def test_displacement_unitarity(self):
        d_op = displacement_operator(0.8 + 0.3j, 50)
        assert np.allclose(d_op @ d_op.conj().T, np.eye(51), atol=1e-9)


def one_series(lam):
    # one lam's truncated series summed on its own, as a 1-D array
    if lam == 0.0:
        return 0.0
    top = int(lam + 12.0 * math.sqrt(lam) + 40.0)
    n = np.arange(top + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(top + 1)])
    log_lam = np.log(lam)
    log_pmf = -lam + n * log_lam - log_fact
    return lam * (1.0 - log_lam) + float(np.sum(np.exp(log_pmf) * log_fact))


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

    def test_poisson_entropy_array_equals_scalar_calls(self):
        # 274 is the largest integer lam whose series top stays within FOCK_CAP
        rng = np.random.default_rng(5)
        lams = np.concatenate([
            [0.0, 1e-12, 1e-300, 0.5, 100.0, 273.5, 274.0],
            rng.uniform(0.0, 45.0, 600), rng.uniform(0.0, 1e-3, 20),
            rng.uniform(45.0, 274.0, 30),
        ])
        rng.shuffle(lams)
        batched = poisson_entropy(lams.reshape(-1, 3))
        assert batched.shape == (lams.size // 3, 3)
        for lam, value in zip(lams.tolist(), batched.reshape(-1).tolist()):
            scalar = poisson_entropy(lam)
            assert type(scalar) is float
            assert value == scalar == one_series(lam)
        assert poisson_entropy(np.array([])).shape == (0,)

    def test_poisson_entropy_blocks_keep_the_scalar_bits(self):
        # more distinct lam than one block holds at width 513 (lam up to 274),
        # with runs of distinct lam sharing a top across block edges
        rng = np.random.default_rng(19)
        lams = np.concatenate([
            *(lam - 1e-9 * np.arange(45) for lam in (3.0, 60.0, 200.0, 274.0)),
            rng.uniform(0.0, 274.0, 400), rng.uniform(270.0, 274.0, 80), [0.0, 1e-300],
        ])
        rng.shuffle(lams)
        positive = lams[lams > 0.0]
        assert np.unique(positive).size == positive.size
        tops = np.sort((positive + 12.0 * np.sqrt(positive) + 40.0).astype(int))
        assert tops[-1] + 1 == FOCK_CAP + 1
        assert np.count_nonzero(tops == tops[-1]) >= 45
        rows = _POISSON_BLOCK_CELLS // (FOCK_CAP + 1)
        edges = np.arange(rows, tops.size, rows)
        assert edges.size >= 10
        assert np.any(tops[edges - 1] == tops[edges])  # a run straddles an edge
        batched = poisson_entropy(lams)
        for lam, value in zip(lams.tolist(), batched.tolist()):
            assert value == poisson_entropy(lam) == one_series(lam)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 274.0), min_size=1, max_size=30),
           st.lists(st.integers(0, 29), max_size=90), st.randoms(use_true_random=False))
    def test_poisson_entropy_of_repeated_lam_equals_scalar_calls(self, base, picks, rnd):
        # an array evaluates each distinct lam once and gathers the values
        # back to every place that lam fills
        lams = base + [base[i % len(base)] for i in picks]
        rnd.shuffle(lams)
        batched = poisson_entropy(np.array(lams))
        assert batched.tolist() == [poisson_entropy(lam) for lam in lams]

    @pytest.mark.parametrize("delta, half_cells", [(0.5, 9), (0.25, 17)])
    def test_poisson_entropy_of_symmetric_grid_radii_equals_scalar_calls(
            self, delta, half_cells):
        # the squared radii of `repro coherent`'s grids repeat up to 8 times
        pts, _ = gaussian_grid_measure(1.0, delta, half_cells)
        s_vals = np.sum(pts**2, axis=1)
        assert np.unique(s_vals).size < s_vals.size / 8 + 8
        assert poisson_entropy(s_vals).tolist() == [poisson_entropy(s) for s in s_vals]

    def test_poisson_entropy_raises_past_fock_cap(self):
        assert int(274.0 + 12.0 * math.sqrt(274.0) + 40.0) == FOCK_CAP
        rng = np.random.default_rng(6)
        for lam in (275.0, FOCK_CAP - 0.5, FOCK_CAP + 1.0, 3.0e3, float("inf")):
            with pytest.raises(TruncationError):
                poisson_entropy(lam)
        past = rng.uniform(400.0, 900.0, 30)
        for lams in (past, np.concatenate([rng.uniform(0.0, 45.0, 50), past[:1]]),
                     np.array([[1.0, 2.0], [274.0, 275.0]])):
            with pytest.raises(TruncationError):
                poisson_entropy(lams)

    def test_log_factorial_table_is_lgamma(self):
        # scipy.special.gammaln is an independent oracle for the stdlib lgamma
        from scipy.special import gammaln

        assert _LOG_FACTORIAL.tolist() == [math.lgamma(k + 1.0) for k in range(FOCK_CAP + 1)]
        ref = gammaln(np.arange(FOCK_CAP + 1) + 1.0)
        assert np.all(np.abs(_LOG_FACTORIAL - ref) <= 1e-15 * np.abs(ref))
        with pytest.raises(ValueError):
            _LOG_FACTORIAL[3] = 0.0

    @pytest.mark.parametrize("lam", [-1e-9, [0.5, -2.0], [float("nan")]])
    def test_poisson_entropy_rejects_negative(self, lam):
        with pytest.raises(ValidationError):
            poisson_entropy(lam)


def test_compose_dimension_guard(rng):
    a = random_channel(2, 3, 2, rng)
    b = random_channel(2, 2, 2, rng)
    with pytest.raises(Exception):
        b.compose(a)
    composed = a.compose(b)
    rho = random_state(2, 2, rng)
    assert np.allclose(composed.apply(rho), a.apply(b.apply(rho)), atol=1e-12)
