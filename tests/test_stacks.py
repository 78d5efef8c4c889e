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
from hypothesis import example, given, settings, strategies as st

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
from qensembles.energy import (
    _passive,
    avg_mean_energies,
    avg_passive_energies,
    mean_energy,
    truncated_passive_energies,
)
from qensembles.ensembles import average_entropies, average_singleton, mix_members_toward
from qensembles.channels import apply_ensembles, apply_many, erasure_channel
from qensembles.linalg import (
    _per_shape,
    _positive_part,
    _trace_norm,
    check_density,
    hermitian_part,
    shannon_entropy,
)
from qensembles.randomgen import (
    gram_states,
    haar_unitaries,
    random_channel,
    random_ensemble,
    random_pure_ensemble,
    random_state,
)

from oracles import gram_state, near_fsum, phase_fixed_unitary

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


def _entropies_and_passives(states):
    # what average_entropies and avg_passive_energies compute per dimension
    # from the spectra they keep
    lam = np.linalg.eigvalsh(states)
    return np.stack([shannon_entropy(lam), _passive(lam[:, ::-1])], axis=-1)


# the computations the batch forms make per dimension, each with the exactly
# Hermitian stacks it gets made from a stack of states: the states themselves
# (the kept spectra and what is read from them), traceless differences (the d0
# terms) and truncation cuts; TestBatchForms holds the batch forms themselves
# to their per-item functions
PER_DIM_KERNELS = {
    "eigvalsh": (np.linalg.eigvalsh, lambda a: a),
    "entropies": (lambda a: shannon_entropy(np.linalg.eigvalsh(a)), lambda a: a),
    "entropies-and-passives": (_entropies_and_passives, lambda a: a),
    "trace-norms": (_trace_norm, lambda a: a - np.eye(a.shape[-1]) / a.shape[-1]),
    "truncated-passives": (lambda cut: passive_energy(_positive_part(cut)),
                           lambda a: 0.4 * a - 0.05 * np.eye(a.shape[-1])),
}


class TestPerDimension:
    @pytest.mark.parametrize("kernel", sorted(PER_DIM_KERNELS))
    @SETTINGS
    @given(shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(2, 7)),
                           min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(shapes=[(4, 3)], seed=0)  # a single stack
    @example(shapes=[(1, 2), (1, 3), (1, 2), (1, 6)], seed=1)  # 1-matrix stacks
    def test_each_slice_is_the_kernel_on_its_own_stack(self, kernel, shapes, seed):
        fn, make = PER_DIM_KERNELS[kernel]
        rng = np.random.default_rng(seed)
        stacks = [make(np.stack([random_state(d, int(rng.integers(1, d + 1)), rng)
                                 for _ in range(k)])) for k, d in shapes]
        calls = []

        def counted(a):
            calls.append(a.shape)
            return fn(a)

        got = _per_shape(counted, stacks)
        # one call per dimension, over every matrix of that dimension
        assert sorted(calls) == sorted(
            (sum(k for k, e in shapes if e == d), d, d) for d in {d for _, d in shapes})
        assert len(got) == len(stacks)
        for part, stack in zip(got, stacks):
            alone = fn(stack)
            assert part.dtype == alone.dtype
            assert np.array_equal(part, alone)


@st.composite
def ensemble_batches(draw):
    """A seed and the (dim, members, rank, validated, eps) of 1-6 ensembles:
    dimensions 2-9 and 1-9 members (np.sum adds 8 or more terms pairwise),
    trusted ones whose spectra are not yet kept and validated ones whose
    spectra are, and one truncation eps each."""
    specs = draw(st.lists(st.tuples(
        st.integers(2, 9), st.integers(1, 9), st.integers(1, 9), st.booleans(),
        st.floats(1e-3, 0.5)), min_size=1, max_size=6))
    return draw(st.integers(0, 2**32 - 1)), specs


def build_batch(seed, specs):
    # the same ensembles on every call, none sharing a spectra array
    rng = np.random.default_rng(seed)
    batch = []
    for d, n, rank, validated, _ in specs:
        mu = random_ensemble(d, n, rng, rank=min(rank, d))
        batch.append(Ensemble(d, mu.weights, mu.states) if validated else mu)
    return batch


class TestBatchForms:
    """Each batch form is its per-item function bit for bit, and the per-item
    functions are the one-ensemble formulas they replaced."""

    @SETTINGS
    @given(ensemble_batches())
    @example(case=(0, [(3, 2, 3, False, 0.1), (5, 1, 2, False, 0.2), (3, 9, 1, True, 0.3),
                       (5, 8, 5, False, 0.05)]))  # two shared dimensions, both kinds
    def test_each_batch_form_is_its_per_item_function(self, case):
        seed, specs = case
        eps = [spec[-1] for spec in specs]
        batch = build_batch(seed, specs)
        got = {"entropies": average_entropies(batch),
               "passives": avg_passive_energies(batch),
               "truncated": truncated_passive_energies(list(zip(batch, eps))),
               "energies": avg_mean_energies(batch)}
        fresh = build_batch(seed, specs)
        want = {"entropies": [average_entropy(mu) for mu in fresh],
                "passives": [avg_passive_energy(mu) for mu in fresh],
                "truncated": [truncated_passive_energy(mu, e) for mu, e in zip(fresh, eps)],
                "energies": [float(np.sum(mu.weights * [mean_energy(r) for r in mu.states]))
                             for mu in fresh]}
        assert got == want
        for mu, e, s, p, t in zip(fresh, eps, want["entropies"], want["passives"],
                                  want["truncated"]):
            lam = np.linalg.eigvalsh(mu.states)
            assert s == float(np.sum(mu.weights * shannon_entropy(lam)))
            assert p == float(np.sum(mu.weights * passive_energy(mu.states)))
            cut = mu.weights[:, None, None] * mu.states - e * np.eye(mu.dim)
            assert t == float(np.sum(passive_energy(_positive_part(cut))))

    @SETTINGS
    @given(ensemble_batches())
    def test_kept_spectra_are_eigvalsh_read_only(self, case):
        batch = build_batch(*case)
        average_entropies(batch)
        for mu in batch:
            assert np.array_equal(mu.spectra, np.linalg.eigvalsh(mu.states))
            assert not mu.spectra.flags.writeable

    @SETTINGS
    @given(ensemble_batches())
    def test_one_eigvalsh_call_per_dimension(self, case):
        seed, specs = case
        batch = build_batch(seed, specs)
        real, calls = np.linalg.eigvalsh, []
        try:
            np.linalg.eigvalsh = lambda a: calls.append(a.shape) or real(a)
            average_entropies(batch)
            avg_passive_energies(batch)  # reads the spectra now kept
        finally:
            np.linalg.eigvalsh = real
        todo = [(d, n) for d, n, _, validated, _ in specs if not validated]
        assert sorted(calls) == sorted(
            (sum(n for e, n in todo if e == d), d, d) for d in {d for d, _ in todo})

    def test_a_nonpositive_eps_in_a_batch_raises(self, rng):
        batch = [random_ensemble(d, 2, rng) for d in (2, 3, 2)]
        for at in range(len(batch)):
            for bad in (0.0, -0.1):
                eps = [0.1] * len(batch)
                eps[at] = bad
                with pytest.raises(ValidationError, match="eps must be positive"):
                    truncated_passive_energies(list(zip(batch, eps)))

    @SETTINGS
    @given(ensemble_and_channel())
    def test_output_ensembles_and_the_average_singleton(self, case):
        mu, chan = case
        out, out_avg = apply_ensembles([(chan, mu), (chan, average_singleton(mu))])
        assert np.array_equal(out.weights, mu.weights)
        assert np.array_equal(out.states, chan.apply_ensemble(mu).states)
        assert out_avg.weights.tolist() == [1.0]
        assert np.array_equal(out_avg.states[0], chan.apply(average_state(mu)))
        # Tr H Phi(avg), not checked again, is the validating mean_energy
        assert avg_mean_energies([out_avg]) == [mean_energy(chan.apply(average_state(mu)))]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTrialKernels:
    """The trial draws' stack kernels act on every matrix alone, bit for bit
    the per-matrix calls, and a stack's normals drawn in one call are the
    per-matrix draws in stream order."""

    @SETTINGS
    @given(size=st.integers(1, 12), k=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
    @example(size=12, k=17, seed=0)
    def test_haar_unitaries_are_the_per_matrix_unitaries(self, size, k, seed):
        z = np.random.default_rng(seed).standard_normal((k, 2, size, size))
        got = haar_unitaries(z)
        for j in range(k):
            assert same_bits(got[j], phase_fixed_unitary(z[j, 0] + 1j * z[j, 1]))
            assert same_bits(got[j], haar_unitaries(z[j:j + 1])[0])

    @SETTINGS
    @given(size=st.integers(1, 12), rank=st.integers(1, 12), k=st.integers(1, 17),
           seed=st.integers(0, 2**32 - 1))
    @example(size=12, rank=12, k=17, seed=0)
    @example(size=12, rank=1, k=17, seed=0)
    def test_gram_states_are_the_per_matrix_states(self, size, rank, k, seed):
        rank = min(rank, size)
        z = np.random.default_rng(seed).standard_normal((k, 2, size, rank))
        got = gram_states(z)
        for j in range(k):
            assert same_bits(got[j], gram_state(z[j, 0] + 1j * z[j, 1]))
            assert same_bits(got[j], gram_states(z[j:j + 1])[0])

    @SETTINGS
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12), k=st.integers(1, 17),
           seed=st.integers(0, 2**32 - 1))
    def test_one_normal_call_is_the_per_matrix_draws(self, rows, cols, k, seed):
        one, per = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = one.standard_normal((k, 2, rows, cols))
        for j in range(k):
            assert same_bits(stack[j, 0], per.standard_normal((rows, cols)))
            assert same_bits(stack[j, 1], per.standard_normal((rows, cols)))
        # both generators end in one state, so whatever follows is drawn alike
        assert one.bit_generator.state == per.bit_generator.state

    @SETTINGS
    @given(dim=st.integers(1, 12), members=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
    def test_pure_ensembles_are_the_per_vector_projectors(self, dim, members, seed):
        rng, per = np.random.default_rng(seed), np.random.default_rng(seed)
        mu = random_pure_ensemble(dim, members, rng)
        assert same_bits(mu.weights, per.dirichlet(np.ones(members)))
        for state in mu.states:
            v = per.standard_normal((dim, 1)) + 1j * per.standard_normal((dim, 1))
            v = v.reshape(-1) / np.linalg.norm(v)
            assert same_bits(state, hermitian_part(np.outer(v, v.conj())))
        assert rng.bit_generator.state == per.bit_generator.state


@st.composite
def channel_batches(draw):
    """(channel, stack) pairs: input dimensions 2-5, 1-4 Kraus operators, some
    composed with an erasure (d -> d + 1), 1-4 members, and the members'
    mean as a stack of one, as verify applies Phi(avg)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        d, env = draw(st.integers(2, 5)), draw(st.integers(1, 4))
        dim_out = draw(st.integers(-(-d // env), d + 1))
        chan = random_channel(d, dim_out, env, rng)
        if draw(st.booleans()):
            chan = erasure_channel(dim_out, draw(st.floats(0.0, 1.0))).compose(chan)
        states = np.stack([random_state(d, int(rng.integers(1, d + 1)), rng)
                           for _ in range(draw(st.integers(1, 4)))])
        pairs += [(chan, states), (chan, np.mean(states, axis=0)[None])]
    return pairs


class TestApplyMany:
    @SETTINGS
    @given(channel_batches())
    @example(pairs=[(KrausChannel(2, 2, np.eye(2)[None]), np.eye(2)[None] / 2)])
    def test_each_output_is_its_own_apply(self, pairs):
        outs = apply_many(pairs)
        assert len(outs) == len(pairs)
        for (chan, states), out in zip(pairs, outs):
            alone = chan.apply(states)
            assert out.dtype == alone.dtype
            assert np.array_equal(out, alone)
            # a stack of one is the matrix's own apply, as holevo_chi reads Phi(avg)
            if len(states) == 1:
                assert np.array_equal(out[0], chan.apply(states[0]))

    def test_one_operator_sum_per_kraus_shape(self, rng, monkeypatch):
        from qensembles import channels

        shapes = []
        real = channels._kraus_sum
        monkeypatch.setattr(channels, "_kraus_sum",
                            lambda ops, rho: shapes.append(ops.shape) or real(ops, rho))
        a, b = random_channel(2, 2, 2, rng), random_channel(3, 3, 2, rng)
        mu, nu = random_state(2, 2, rng), random_state(3, 3, rng)
        apply_many([(a, np.stack([mu, mu])), (b, nu[None]), (a, mu[None]),
                    (random_channel(2, 2, 2, rng), mu[None])])
        assert sorted(shapes) == [(1, 2, 3, 3), (4, 2, 2, 2)]

    def test_an_output_beyond_the_trace_tolerance_fails_inside_a_batch(self, rng):
        # a channel and a state that each pass, at 0.9e-10 from trace
        # preservation and from unit trace, give an output of trace 1 + 1.8e-10
        bad = KrausChannel(2, 2, (np.sqrt(1.0 + 0.9e-10) * np.eye(2),))
        state = np.diag([0.5 + 0.9e-10, 0.5]).astype(complex)[None]
        good = [(random_channel(2, 2, 2, rng), random_state(2, 2, rng)[None]) for _ in range(3)]
        for at in range(len(good) + 1):
            pairs = good[:at] + [(bad, state)] + good[at:]
            with pytest.raises(ValidationError, match=r"state trace 1\.00000000018 deviates"):
                apply_many(pairs)
        assert len(apply_many(good)) == 3

    def test_rejects_a_stack_of_another_dimension(self, rng):
        with pytest.raises(DimensionMismatch):
            apply_many([(random_channel(2, 2, 1, rng), random_state(3, 3, rng)[None])])
        with pytest.raises(DimensionMismatch):
            apply_many([(random_channel(2, 2, 1, rng), random_state(2, 2, rng))])


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
