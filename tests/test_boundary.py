"""One boundary: inputs are validated where they enter the package, once.

The public constructors, the public functions that take raw matrices and the
JSON decoders reject bad input with a ValidationError (the CLI exits 2 on it,
see test_cli.py). The package's own producers of ensembles and channels that are valid by
construction skip the checks; the property test below keeps those checks as
oracles over every such producer.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qensembles
from qensembles import (
    Ensemble,
    KrausChannel,
    ValidationError,
    aoe,
    fidelity,
    mix_channels,
    passive_energy,
    singleton,
    trace_norm,
    von_neumann_entropy,
)
from qensembles import serialize as ser
from qensembles.ensembles import (
    _check_weights,
    average_singleton,
    mix_members_toward,
    perturb_weights,
)
from qensembles.channels import apply_ensembles, coherent_state
from qensembles.energy import mean_energy
from qensembles.experiments import ExperimentConfig, _channel_trials, _coherent_ensemble
from qensembles.linalg import check_density, hermitian_part, outer
from qensembles.randomgen import (
    random_channel,
    random_ensemble,
    random_pure_ensemble,
)

# 2 x 2 inputs of unit trace but not Hermitian, Hermitian but not PSD, PSD
# but not of unit trace, and Hermitian but overflowing once symmetrized, so
# that its trace and spectrum are NaN
BAD = {
    "non-hermitian": np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),
    "negative": np.diag([1.2, -0.2]).astype(complex),
    "trace-off": np.diag([0.6, 0.6]).astype(complex),
    "overflow": np.diag([1e308, -1e308]).astype(complex),
}
GOOD = np.eye(2, dtype=complex) / 2

# entry point -> (call on one bad matrix, the kinds of BAD it rejects):
# trace_norm and mean_energy take any Hermitian operator, passive_energy any
# PSD one, so they accept the negative or the trace-off matrix by contract
ENTRY_POINTS = {
    "Ensemble": (lambda m: Ensemble(2, [1.0], [m]), BAD),
    "from_members": (lambda m: Ensemble.from_members([(1.0, m)]), BAD),
    "mix_members_toward": (lambda m: mix_members_toward(singleton(GOOD), [m], 0.5), BAD),
    "von_neumann_entropy": (von_neumann_entropy, BAD),
    "trace_norm": (trace_norm, ("non-hermitian",)),
    "passive_energy": (passive_energy, ("non-hermitian", "negative")),
    "mean_energy": (mean_energy, ("non-hermitian",)),
    "fidelity": (lambda m: fidelity(GOOD, m), BAD),
    "ensemble_from_json": (lambda m: ser.ensemble_from_json(
        {"dim": 2, "members": [{"weight": 1.0, "matrix": ser.matrix_to_json(m)}]}), BAD),
}


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry, (_, kinds) in ENTRY_POINTS.items() for kind in kinds])
def test_entry_point_rejects_bad_state(entry, kind):
    call = ENTRY_POINTS[entry][0]
    with pytest.raises(ValidationError):
        call(BAD[kind])


@pytest.mark.parametrize("kraus", [
    (math.sqrt(0.6) * np.eye(2),),
    (np.array([[1.0, 0.0], [0.0, np.nan]]),),
], ids=["trace-off", "nan"])
def test_kraus_channel_rejects_bad_operators(kraus):
    with pytest.raises(ValidationError):
        KrausChannel(2, 2, kraus)


@pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
def test_mixing_weights_outside_the_unit_interval_are_rejected(t, rng):
    chan = random_channel(2, 2, 2, rng)
    with pytest.raises(ValidationError):
        mix_channels(t, chan, chan)
    with pytest.raises(ValidationError):
        mix_members_toward(singleton(GOOD), [GOOD], t)


def test_kraus_tolerance_is_the_state_trace_tolerance(rng):
    # a channel the constructor accepts maps states to states that pass the
    # state boundary, since its outputs are not checked again
    with pytest.raises(ValidationError, match="not trace preserving"):
        KrausChannel(3, 3, (math.sqrt(1.0 + 6e-10) * np.eye(3),))
    chan = KrausChannel(3, 3, (math.sqrt(1.0 + 5e-11) * np.eye(3),))
    mu = random_ensemble(3, 3, rng)
    check_density(chan.apply_ensemble(mu).states)
    assert math.isfinite(aoe(chan, mu))


def test_kraus_check_bounds_the_trace_error_of_every_output():
    # sum K^dag K = I + E with every off-diagonal entry of E at 0.9e-10: the
    # uniform superposition would come out with trace 1 + 1.8e-10
    e = 0.9e-10 * (np.ones((3, 3)) - np.eye(3))
    w, v = np.linalg.eigh(np.eye(3) + e)
    with pytest.raises(ValidationError, match="not trace preserving"):
        KrausChannel(3, 3, ((v * np.sqrt(w)) @ v.T,))


def test_channel_output_beyond_the_trace_tolerance_is_rejected():
    # a channel and a state that each pass, at 0.9e-10 from trace
    # preservation and from unit trace, give an output of trace 1 + 1.8e-10,
    # which the state boundary (and the JSON round trip) would reject
    chan = KrausChannel(2, 2, (math.sqrt(1.0 + 0.9e-10) * np.eye(2),))
    mu = singleton(np.diag([0.5 + 0.9e-10, 0.5]))
    with pytest.raises(ValidationError, match=r"state trace 1\.00000000018 deviates from 1 "
                                              r"by 1\.800e-10, beyond 1e-10"):
        chan.apply_ensemble(mu)
    with pytest.raises(ValidationError, match="deviates from 1"):
        aoe(chan, mu)
    # inside the tolerance the output is kept and passes the state boundary
    out = chan.apply_ensemble(singleton(np.diag([0.5 + 0.05e-10, 0.5])))
    check_density(out.states)
    ser.ensemble_from_json(ser.ensemble_to_json(out))


# ---------------------------------------------------------------------------
# The validators are called only at the boundary
# ---------------------------------------------------------------------------

VALIDATORS = {"check_hermitian", "check_density", "_density_spectrum", "_check_weights",
              "_check_traces"}

# every function of the package that calls a validator (calls inside the
# validators themselves aside); an internal kernel added here needs a reason
BOUNDARY = {
    # a trusted output: the input's and the channel's trace errors add, so
    # an output can leave TRACE_TOL although both inputs passed (O(n d))
    "channels.apply_many",
    "channels.mix_with_state",
    "energy.mean_energy",
    "ensembles.Ensemble.__post_init__",
    "ensembles.mix_members_toward",
    "ensembles.steer_to_average",
    "linalg.eigvals_desc",
    "linalg.fidelity",
    "linalg.matrix_sqrt_psd",
    "linalg.trace_norm",
    "linalg.von_neumann_entropy",
    "metrics.PointMeasure.__post_init__",
}


def _validator_callers():
    callers = set()
    for path in sorted(Path(qensembles.__file__).parent.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + (child.name,))
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in VALIDATORS and not (scope and scope[-1] in VALIDATORS):
                        callers.add(".".join((path.stem,) + scope))
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return callers


def test_validators_are_called_only_at_the_boundary():
    assert _validator_callers() == BOUNDARY


# ---------------------------------------------------------------------------
# The checks the trusted producers skip still hold on what they build
# ---------------------------------------------------------------------------

def _assert_valid_ensemble(mu):
    # exactly Hermitian, PSD and of unit trace, weights a distribution
    assert np.array_equal(check_density(mu.states, dim=mu.dim), mu.states)
    assert np.array_equal(hermitian_part(mu.states), mu.states)
    assert np.array_equal(_check_weights(mu.weights, "weights"), mu.weights)
    assert not mu.states.flags.writeable
    assert not mu.weights.flags.writeable
    # spectra computed on first use equal those a validating constructor keeps
    assert np.array_equal(mu.spectra, np.linalg.eigvalsh(mu.states))
    assert not mu.spectra.flags.writeable
    validated = Ensemble(mu.dim, mu.weights, mu.states)
    assert np.array_equal(validated.spectra, np.linalg.eigvalsh(validated.states))
    assert np.array_equal(validated.spectra, mu.spectra)


def _assert_valid_channel(chan):
    KrausChannel(chan.dim_in, chan.dim_out, chan.kraus)
    assert not chan.kraus.flags.writeable


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(2, 5), n=st.integers(1, 6), env=st.integers(1, 3),
       t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_trusted_producers_build_valid_objects(d, n, env, t, seed):
    rng = np.random.default_rng(seed)
    mu = random_ensemble(d, n, rng, rank=int(rng.integers(1, d + 1)))
    pure = random_pure_ensemble(d, n, rng)
    phi = random_channel(d, d, env, rng)
    psi = random_channel(d, d + 1, env, rng)
    for chan in (phi, psi, mix_channels(t, phi, random_channel(d, d, 2, rng)),
                 psi.compose(phi)):
        _assert_valid_channel(chan)
    for ens in (mu, pure, phi.apply_ensemble(mu), psi.compose(phi).apply_ensemble(pure),
                perturb_weights(mu, rng.normal(size=n), t),
                mix_members_toward(mu, pure.states, t),
                average_singleton(mu), average_singleton(pure),
                *apply_ensembles([(psi, mu), (phi, pure), (psi, average_singleton(mu)),
                                  (phi, average_singleton(pure))])):
        _assert_valid_ensemble(ens)
    # the channel verifications' trials, built from per-shape stacks; trials
    # 0-5 draw every mix of extras
    for _, _, phi_t, mu_t, nu_t, mixed, _ in _channel_trials(
            ExperimentConfig(seed=seed, trials=6, dims=(d,)), max_dim=5):
        for chan in (phi_t,) if mixed is None else (phi_t, mixed[0]):
            _assert_valid_channel(chan)
        _assert_valid_ensemble(mu_t)
        _assert_valid_ensemble(nu_t)
    # repro coherent's Lemma 9 ensembles, bit for bit what the validating
    # constructor stores
    weights, points = rng.dirichlet(np.ones(n)), rng.uniform(-1.5, 1.5, size=(n, 2))
    coherent = _coherent_ensemble(weights.copy(), points, 40)
    _assert_valid_ensemble(coherent)
    validated = Ensemble.from_members(
        [(w, outer(coherent_state(complex(x, y), 40))) for w, (x, y) in zip(weights, points)])
    assert coherent.dim == validated.dim == 41
    assert np.array_equal(coherent.weights, validated.weights)
    assert np.array_equal(coherent.states, validated.states)
