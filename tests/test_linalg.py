import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qensembles import (
    ValidationError,
    binary_entropy,
    eigvals_desc,
    fidelity,
    g_func,
    trace_norm,
    von_neumann_entropy,
)
from qensembles.linalg import (
    HERM_TOL,
    _eigvalsh,
    _positive_part,
    check_density,
    check_hermitian,
    hermitian_part,
    matrix_sqrt_psd,
    outer,
)
from qensembles.randomgen import random_pure, random_state, random_unitary

from conftest import basis_ket, ketbra
from oracles import (
    conditional_entropy,
    eigvals_by_charpoly,
    g_mpmath,
    partial_trace,
    relative_entropy,
)


def hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(a)


class TestEigvalsDesc:
    def test_identity(self):
        assert np.allclose(eigvals_desc(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(eigvals_desc(np.diag([0.2, 0.8])), [0.8, 0.2])

    def test_matches_charpoly_roots(self, rng):
        a = hermitian(4, rng)
        assert np.allclose(eigvals_desc(a), eigvals_by_charpoly(a), atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eigvals_desc(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_orthogonal_pures(self):
        diff = ketbra(basis_ket(2, 0)) - ketbra(basis_ket(2, 1))
        assert trace_norm(diff) == pytest.approx(2.0, abs=1e-12)

    def test_density_matrices_have_unit_norm(self, rng):
        for _ in range(5):
            assert trace_norm(random_state(4, 4, rng)) == pytest.approx(1.0, abs=1e-10)


def mirsky_gap(rho, sigma):
    """sum_i |lambda_i(rho) - lambda_i(sigma)| over descending spectra."""
    return float(np.sum(np.abs(eigvals_desc(rho) - eigvals_desc(sigma))))


def bures_distance(rho, sigma):
    """sqrt(2 - 2 sqrt(F))."""
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(fidelity(rho, sigma)), 0.0))


class TestMirsky:
    def test_same_state(self, rng):
        rho = random_state(3, 3, rng)
        assert mirsky_gap(rho, rho) == 0.0

    def test_diagonal_case(self):
        assert mirsky_gap(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])) == pytest.approx(1.0)

    def test_bounded_by_trace_norm(self, rng):
        for _ in range(20):
            rho = random_state(4, 3, rng)
            sigma = random_state(4, 4, rng)
            assert mirsky_gap(rho, sigma) <= trace_norm(rho - sigma) + 1e-10


class TestEntropy:
    def test_pure_state(self, rng):
        assert von_neumann_entropy(ketbra(random_pure(3, rng))) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(math.log(2))

    def test_diagonal_evaluates_shannon(self):
        expected = -0.9 * math.log(0.9) - 0.1 * math.log(0.1)
        assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(
            expected, abs=1e-12
        )

    def test_concavity(self, rng):
        for _ in range(5):
            rho = random_state(3, 3, rng)
            sigma = random_state(3, 2, rng)
            for t in np.linspace(0.1, 0.9, 9):
                mix = von_neumann_entropy(t * rho + (1 - t) * sigma)
                assert mix >= t * von_neumann_entropy(rho) + (
                    1 - t
                ) * von_neumann_entropy(sigma) - 1e-9


class TestBinaryEntropyAndG:
    def test_g_zero(self):
        assert g_func(0.0) == 0.0

    def test_h2_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_h2_endpoints_exact(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_g_one(self):
        assert g_func(1.0) == pytest.approx(2 * math.log(2), abs=1e-14)

    def test_g_matches_mpmath_across_the_float_range(self):
        for x in np.logspace(-300, 300, 1201):
            ref = g_mpmath(x)
            assert abs(g_func(x) - ref) <= 4e-16 * ref, x

    def test_g_finite_at_subnormal_arguments(self):
        # 1/x overflows below about 5.6e-309, so only the small-x form is safe there
        for x in (1e-309, 5e-324):
            value = g_func(x)
            assert math.isfinite(value) and value >= x

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            binary_entropy(1.5)
        with pytest.raises(ValidationError):
            g_func(-0.1)


class TestRelativeEntropy:
    """The oracle behind the Holevo relative-entropy form."""

    def test_self_is_zero(self, rng):
        rho = random_state(3, 3, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_supports(self):
        a = ketbra(basis_ket(2, 0))
        b = ketbra(basis_ket(2, 1))
        assert relative_entropy(a, b) == math.inf

    def test_commuting_case(self):
        rho = np.diag([0.5, 0.5])
        sigma = np.diag([0.9, 0.1])
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(10):
            rho = random_state(3, 3, rng)
            sigma = random_state(3, 3, rng)
            d = relative_entropy(rho, sigma)
            assert d >= 0.0
            if trace_norm(rho - sigma) > 1e-6:
                assert d > 0.0


class TestFidelityAndBures:
    def test_self(self, rng):
        rho = random_state(3, 2, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
        assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pures(self):
        a, b = ketbra(basis_ket(2, 0)), ketbra(basis_ket(2, 1))
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
        assert bures_distance(a, b) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_pure_vs_mixed_closed_form(self):
        assert fidelity(ketbra(basis_ket(2, 0)), np.eye(2) / 2) == pytest.approx(0.5)

    def test_fuchs_van_de_graaf(self, rng):
        for _ in range(25):
            rho = random_state(3, 3, rng)
            sigma = random_state(3, 2, rng)
            f = fidelity(rho, sigma)
            t = 0.5 * trace_norm(rho - sigma)
            assert 1 - math.sqrt(f) <= t + 1e-9
            assert t <= math.sqrt(1 - f) + 1e-9

    def test_bures_sandwich(self, rng):
        for _ in range(25):
            rho = random_state(4, 4, rng)
            sigma = random_state(4, 2, rng)
            beta = bures_distance(rho, sigma)
            tn = trace_norm(rho - sigma)
            assert 0.5 * tn <= beta + 1e-9
            assert beta <= math.sqrt(tn) + 1e-9


class TestPartialTrace:
    """The oracle behind the q-c conditional entropy."""

    def test_product(self, rng):
        rho = random_state(2, 2, rng)
        sigma = random_state(3, 3, rng)
        joint = np.kron(rho, sigma)
        assert np.allclose(partial_trace(joint, 2, 3, "A"), rho, atol=1e-12)
        assert np.allclose(partial_trace(joint, 2, 3, "B"), sigma, atol=1e-12)

    def test_maximally_entangled(self):
        v = (np.kron(basis_ket(2, 0), basis_ket(2, 0))
             + np.kron(basis_ket(2, 1), basis_ket(2, 1))) / math.sqrt(2)
        assert np.allclose(partial_trace(ketbra(v), 2, 2, "A"), np.eye(2) / 2)

    def test_duality_identity(self, rng):
        rho_ab = random_state(6, 6, rng)
        x = hermitian(2, rng)
        lhs = np.trace(x @ partial_trace(rho_ab, 2, 3, "A"))
        rhs = np.trace(np.kron(x, np.eye(3)) @ rho_ab)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestConditionalEntropy:
    """The oracle behind the q-c conditional entropy."""

    def test_product(self, rng):
        rho = random_state(2, 2, rng)
        sigma = random_state(2, 2, rng)
        assert conditional_entropy(np.kron(rho, sigma), 2, 2) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )

    def test_maximally_entangled_is_negative(self):
        v = (np.kron(basis_ket(2, 0), basis_ket(2, 0))
             + np.kron(basis_ket(2, 1), basis_ket(2, 1))) / math.sqrt(2)
        assert conditional_entropy(ketbra(v), 2, 2) == pytest.approx(
            -math.log(2), abs=1e-9
        )


class TestPositivePart:
    def test_psd_fixed_point(self, rng):
        rho = random_state(3, 3, rng)
        assert np.allclose(_positive_part(rho), rho, atol=1e-10)

    def test_diagonal(self):
        assert np.allclose(
            _positive_part(np.diag([0.3, -0.2])), np.diag([0.3, 0.0]), atol=1e-12
        )

    def test_decomposition_identity(self, rng):
        a = hermitian(4, rng)
        assert np.allclose(_positive_part(a) - _positive_part(-a), a, atol=1e-9)


class TestUnitaryInvariance:
    def test_functionals(self, rng):
        rho = random_state(3, 3, rng)
        sigma = random_state(3, 2, rng)
        u = random_unitary(3, rng)
        conj = lambda m: u @ m @ u.conj().T
        assert von_neumann_entropy(conj(rho)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )
        assert fidelity(conj(rho), conj(sigma)) == pytest.approx(
            fidelity(rho, sigma), abs=1e-9
        )
        assert trace_norm(conj(rho - sigma)) == pytest.approx(
            trace_norm(rho - sigma), abs=1e-9
        )
        assert bures_distance(conj(rho), conj(sigma)) == pytest.approx(
            bures_distance(rho, sigma), abs=1e-9
        )


class TestValidation:
    def test_check_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            check_density(np.eye(2))

    def test_check_density_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_density(np.diag([1.5, -0.5]))

    def test_check_hermitian_symmetrizes(self, rng):
        a = hermitian(3, rng)
        noisy = a + 1e-12 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
        out = check_hermitian(noisy)
        assert np.allclose(out, out.conj().T)

    def test_check_hermitian_stack_matches_per_matrix(self, rng):
        noise = 1e-12 * (rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3)))
        stack = np.stack([hermitian(3, rng) for _ in range(4)]).reshape(2, 2, 3, 3) + noise
        out = check_hermitian(stack)
        sym = hermitian_part(stack)
        for idx in np.ndindex(2, 2):
            assert np.array_equal(out[idx], check_hermitian(stack[idx]))
            assert np.array_equal(sym[idx], hermitian_part(stack[idx]))

    def test_check_hermitian_stack_names_the_deviation(self, rng):
        stack = np.stack([hermitian(2, rng), hermitian(2, rng)])
        stack[1, 0, 1] += 1e-3
        with pytest.raises(ValidationError, match=r"deviation 1\.000e-03"):
            check_hermitian(stack)

    def test_check_density_validates_a_stack(self):
        good = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])])
        assert np.array_equal(check_density(good), good)
        with pytest.raises(ValidationError, match="trace 1.5"):
            check_density(np.stack([np.eye(2) / 2, np.diag([1.0, 0.5])]))
        with pytest.raises(ValidationError, match="negative eigenvalue -0.5"):
            check_density(np.stack([np.eye(2) / 2, np.diag([1.5, -0.5])]))

    def test_outer_builds_projector(self, rng):
        v = random_pure(3, rng)
        p = outer(v)
        assert np.allclose(p @ p, p, atol=1e-12)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the LAPACK eigvalsh calls made while a test runs."""
    calls = []
    lapack = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return lapack(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestSpectrumPath:
    def test_diagonal_matches_lapack_bit_for_bit(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            d = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 3, n)
            d[rng.random(n) < 0.3] = 0.0
            d[rng.integers(0, n, n // 3)] = d[0]
            h = np.diag(d).astype(complex)
            assert np.array_equal(_eigvalsh(h), np.linalg.eigvalsh(h))

    def test_any_off_diagonal_entry_takes_lapack(self, eigvalsh_calls):
        # one entry of 1e-300 at each off-diagonal position in turn
        n = 4
        for i in range(n):
            for j in range(n):
                if i != j:
                    h = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
                    h[i, j] = 1e-300
                    _eigvalsh(h)
        assert len(eigvalsh_calls) == n * (n - 1)
        _eigvalsh(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert len(eigvalsh_calls) == n * (n - 1)

    def test_stack_goes_to_lapack(self, eigvalsh_calls):
        stack = np.stack([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])]).astype(complex)
        assert np.array_equal(_eigvalsh(stack), np.linalg.eigvalsh(stack))
        assert eigvalsh_calls == [(2, 2, 2), (2, 2, 2)]

    def test_entropy_decomposes_once(self, rng, eigvalsh_calls):
        von_neumann_entropy(random_state(3, 3, rng))
        assert eigvalsh_calls == [(3, 3)]
        von_neumann_entropy(np.diag([0.5, 0.3, 0.2]))
        assert eigvalsh_calls == [(3, 3)]

    def test_diagonal_states_still_validated(self):
        off = np.diag([0.5, 0.5]).astype(complex)
        off[0, 1] = 1e-9
        assert 1e-9 > HERM_TOL
        for bad in (np.diag([1.2, -0.2]), np.diag([0.6, 0.6]), off):
            with pytest.raises(ValidationError):
                check_density(bad)
            with pytest.raises(ValidationError):
                von_neumann_entropy(bad)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_entries_rejected(self):
        # LAPACK returns finite garbage for a NaN diagonal; neither path may see
        # one. diag(1e308, -1e308) is finite and Hermitian but overflows once
        # symmetrized; every case is rejected without a numpy warning
        dense = np.full((2, 2), 0.25, dtype=complex)
        dense[0, 1] = dense[1, 0] = np.nan
        for bad in (np.diag([np.nan, 0.5, 0.5]), np.diag([np.inf, 0.0, 0.0]), dense,
                    np.diag([1e308, -1e308])):
            for fn in (von_neumann_entropy, trace_norm, eigvals_desc, matrix_sqrt_psd):
                with pytest.raises(ValidationError):
                    fn(bad)


@st.composite
def _spectrum_and_unitary(draw, density):
    d = draw(st.integers(2, 6))
    lo = 0.0 if density else -1.0
    spec = np.array(draw(st.lists(st.floats(lo, 1.0), min_size=d, max_size=d)))
    if density:
        assume(spec.sum() > 0.0)
        spec = spec / spec.sum()
    u = random_unitary(d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return np.diag(spec).astype(complex), u


class TestSpectrumProperty:
    """The diagonal shortcut agrees with LAPACK on the rotated matrix."""

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_spectrum_and_unitary(density=True))
    def test_entropy_is_unitarily_invariant(self, case):
        diag, u = case
        rotated = u @ diag @ u.conj().T
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(diag)) <= 1e-12

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_spectrum_and_unitary(density=False))
    def test_trace_norm_is_unitarily_invariant(self, case):
        diag, u = case
        rotated = u @ diag @ u.conj().T
        assert abs(trace_norm(rotated) - trace_norm(diag)) <= 1e-12
