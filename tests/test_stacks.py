"""Ensembles and Kraus sets stored as stacks.

Every stacked kernel must equal, bit for bit, the per-matrix calls of the same
public functions; a total over the members must lie within a few eps of the
correctly rounded sum of the per-member terms (oracles.near_fsum). Degenerate
inputs (zero weights, rank-1 states, single members, ensembles of different
lengths, and 8 or more members, where np.sum adds pairwise) are drawn on
purpose.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qensembles import (
    DimensionMismatch,
    Ensemble,
    KrausChannel,
    PointMeasure,
    ValidationError,
    aoe,
    average_entropy,
    average_state,
    avg_passive_energy,
    d0,
    dk_upper,
    eigvals_desc,
    mix_channels,
    passive_energy,
    trace_norm,
    truncated_passive_energy,
    von_neumann_entropy,
)
from qensembles.ensembles import mix_members_toward
from qensembles.linalg import _positive_part, check_density, hermitian_part
from qensembles.randomgen import random_channel, random_state

from oracles import near_fsum

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def per_matrix(fn, stack):
    return np.stack([fn(a) for a in stack])


@st.composite
def ensembles(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(2, 5))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [random_state(d, draw(st.integers(1, d)), rng) for _ in range(n)]
    w = rng.dirichlet(np.ones(n))
    w[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    w[0] += 1.0 - w.sum()
    return Ensemble(d, w, states)


@st.composite
def ensemble_pairs(draw):
    mu = draw(ensembles())
    return mu, draw(ensembles(dim=mu.dim))


@st.composite
def channels_on(draw, dim):
    env = draw(st.integers(1, 6))
    dim_out = draw(st.integers(-(-dim // env), dim + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_channel(dim, dim_out, env, rng)


@st.composite
def ensemble_and_channel(draw):
    mu = draw(ensembles())
    return mu, draw(channels_on(mu.dim))


class TestStackedKernels:
    @SETTINGS
    @given(ensembles())
    def test_matrix_functions(self, mu):
        herm = mu.states - average_state(mu)
        assert np.array_equal(check_density(mu.states), per_matrix(check_density, mu.states))
        assert np.array_equal(von_neumann_entropy(mu.states),
                              per_matrix(von_neumann_entropy, mu.states))
        for fn in (trace_norm, eigvals_desc, _positive_part):
            assert np.array_equal(fn(herm), per_matrix(fn, herm))

    @SETTINGS
    @given(ensembles())
    def test_a_matrix_gives_a_float(self, mu):
        rho = mu.states[0]
        for value in (von_neumann_entropy(rho), trace_norm(rho),
                      passive_energy(rho)):
            assert type(value) is float

    @SETTINGS
    @given(ensemble_and_channel())
    def test_channel_apply(self, case):
        mu, chan = case
        out = per_matrix(chan.apply, mu.states)
        assert np.array_equal(chan.apply(mu.states), out)
        assert np.array_equal(chan.apply_ensemble(mu).states, out)
        assert np.array_equal(chan.apply(mu.states[None]), out[None])
        # a traceless input makes the operator terms cancel, where the order
        # of the additions shows in the last bits
        herm = mu.states - average_state(mu)
        assert near_fsum(chan.apply(herm)[-1],
                         [hermitian_part(k @ herm[-1] @ k.conj().T) for k in chan.kraus])

    @SETTINGS
    @given(ensemble_and_channel())
    def test_ensemble_functionals(self, case):
        mu, chan = case
        acc = np.zeros((mu.dim, mu.dim), dtype=complex)
        for w, rho in mu.members:
            acc += w * rho
        assert np.array_equal(average_state(mu), hermitian_part(acc))
        assert near_fsum(average_entropy(mu),
                         [w * von_neumann_entropy(rho) for w, rho in mu.members])
        assert near_fsum(aoe(chan, mu),
                         [w * von_neumann_entropy(chan.apply(rho)) for w, rho in mu.members])
        assert near_fsum(avg_passive_energy(mu),
                         [w * passive_energy(rho) for w, rho in mu.members])
        eps = 0.05
        assert near_fsum(truncated_passive_energy(mu, eps),
                         [passive_energy(_positive_part(w * rho - eps * np.eye(mu.dim)))
                          for w, rho in mu.members])

    @SETTINGS
    @given(ensemble_pairs())
    def test_padded_metrics(self, pair):
        mu, nu = pair
        filler = (0.0, np.eye(mu.dim) / mu.dim)
        n = max(len(mu), len(nu))
        a = mu.members + [filler] * (n - len(mu))
        b = nu.members + [filler] * (n - len(nu))
        assert near_fsum(d0(mu, nu), [
            0.5 * trace_norm(p * r - q * s) for (p, r), (q, s) in zip(a, b)])
        assert near_fsum(dk_upper(mu, nu), [
            0.5 * (min(p, q) * trace_norm(r - s) + abs(p - q))
            for (p, r), (q, s) in zip(a, b)])

    @SETTINGS
    @given(ensembles(), st.floats(0.0, 1.0))
    def test_mix_members_toward(self, mu, t):
        targets = mu.states[::-1]
        mixed = mix_members_toward(mu, targets, t)
        assert np.array_equal(mixed.states, np.stack([
            hermitian_part((1.0 - t) * rho + t * tgt)
            for rho, tgt in zip(mu.states, targets)]))

    @SETTINGS
    @given(ensemble_and_channel(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_channel_constructions(self, case, t, seed):
        mu, chan = case
        other = random_channel(chan.dim_in, chan.dim_out, 6, np.random.default_rng(seed))
        mixed = mix_channels(t, chan, other)
        assert np.array_equal(mixed.kraus, np.stack(
            [np.sqrt(1.0 - t) * k for k in chan.kraus]
            + [np.sqrt(t) * k for k in other.kraus]))
        outer_chan = random_channel(chan.dim_out, mu.dim, 2, np.random.default_rng(seed))
        both = outer_chan.compose(chan)
        assert np.array_equal(both.kraus, np.stack(
            [k @ l for k in outer_chan.kraus for l in chan.kraus]))
        assert np.array_equal(both.apply(mu.states), per_matrix(both.apply, mu.states))


class TestEnsembleValidation:
    """A stack is rejected with the exception types a per-member check raised."""

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="not Hermitian"):
            Ensemble(2, [0.5, 0.5], [np.eye(2) / 2, bad])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Ensemble(2, [0.5, 0.5], [np.eye(2) / 2, np.diag([np.nan, 0.5])])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="negative eigenvalue -0.5"):
            Ensemble(2, [0.5, 0.5], [np.eye(2) / 2, np.diag([1.5, -0.5])])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace 1.2"):
            Ensemble(2, [0.5, 0.5], [np.diag([0.6, 0.6]), np.eye(2) / 2])

    def test_rejects_wrong_dim(self):
        with pytest.raises(DimensionMismatch, match="dim 2, expected 3"):
            Ensemble(3, [1.0], [np.eye(2) / 2])

    def test_rejects_ragged_members(self):
        with pytest.raises(DimensionMismatch):
            Ensemble(2, [0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3])
        with pytest.raises(DimensionMismatch):
            Ensemble.from_members([(0.5, np.eye(2) / 2), (0.5, np.eye(3) / 3)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="different lengths"):
            Ensemble(2, [0.5, 0.5], [np.eye(2) / 2])

    @pytest.mark.filterwarnings("error")
    def test_point_measure_shares_the_weight_checks(self):
        pts = np.zeros((2, 2))
        with pytest.raises(ValidationError, match="nonnegative"):
            PointMeasure(pts, [1.5, -0.5])
        with pytest.raises(ValidationError, match="sum to"):
            PointMeasure(pts, [0.5, 0.6])
        # a sum beyond the float range fails as inf, without a warning
        with pytest.raises(ValidationError, match="sum to inf"):
            PointMeasure(pts, [1.7e308, 1.7e308])
        # one weight per point, in a vector
        with pytest.raises(ValidationError, match=r"weights \(n,\), got shapes \(2, 2\) and \(1, 2\)"):
            PointMeasure(pts, [[0.5, 0.5]])
        # within the shared 1e-10 tolerance, clipped at 0
        assert PointMeasure(pts, [1.0 + 5e-11, -5e-11]).weights[1] == 0.0


class TestReadOnly:
    def test_states_are_read_only(self):
        states = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(complex)
        mu = Ensemble(2, [0.5, 0.5], states)
        with pytest.raises(ValueError):
            mu.states[0, 0, 0] = 1.0
        states[0, 0, 0] = 0.25  # the caller's array is left writable and unshared
        assert mu.states[0, 0, 0] == 0.5

    def test_weights_are_read_only(self):
        # a validated, a trusted and a channel-output ensemble: writing a
        # weight raises instead of leaving a distribution that sums past 1
        weights = np.array([0.5, 0.5])
        states = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(complex)
        validated = Ensemble(2, weights, states)
        trusted = Ensemble._trusted(2, np.array([0.25, 0.75]), states.copy())
        output = KrausChannel(2, 2, np.eye(2, dtype=complex)[None]).apply_ensemble(trusted)
        for mu in (validated, trusted, output):
            with pytest.raises(ValueError):
                mu.weights[0] = 0.9
        assert trusted.weights.tolist() == output.weights.tolist() == [0.25, 0.75]
        weights[0] = 0.9  # the caller's array is left writable and unshared
        assert validated.weights.tolist() == [0.5, 0.5]

    def test_kraus_is_read_only(self):
        ops = np.eye(2, dtype=complex)[None]
        chan = KrausChannel(2, 2, ops)
        with pytest.raises(ValueError):
            chan.kraus[0, 0, 0] = 2.0
        ops[0, 0, 0] = 0.0
        assert chan.kraus[0, 0, 0] == 1.0

    def test_kraus_shape_errors(self):
        with pytest.raises(ValidationError, match="at least one"):
            KrausChannel(2, 2, ())
        with pytest.raises(ValidationError, match=r"shape \(2, 3\) != \(2, 2\)"):
            KrausChannel(2, 2, [np.zeros((2, 3))])
        with pytest.raises(ValidationError):
            KrausChannel(2, 2, [np.eye(2), np.zeros((2, 3))])
