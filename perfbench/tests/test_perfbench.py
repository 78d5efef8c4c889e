"""Tests of the benchmark's own checks: reference comparison, gap check, and
that tracing changes no output and leaves no wrapper behind.

    python3 -m pytest perfbench/tests -q
"""

import copy
import statistics

import numpy as np
import pytest

import calibrate
import run
from checks import compare_rows, load_reference
from tracer import EXACT_COUNTERS, Tracer, leftover_wrappers
from workloads import DEFAULT_SEED, WORKLOADS, Workload, pass_seed

import qensembles.cli as cli
import qensembles.experiments as experiments
import qensembles.metrics as metrics
from qensembles.energy import HamiltonianSpec
from qensembles.ensembles import Ensemble

SMALL = Workload("small", (("verify", "scb-rank"), ("verify", "steering")), trials=3)


@pytest.fixture(scope="module")
def reference_rows():
    return load_reference("verify-random")["commands"][0]["records"]


@pytest.fixture(autouse=True)
def out_dir():
    run.OUT_DIR.mkdir(exist_ok=True)


def _numeric_row(rows):
    return next(i for i, r in enumerate(rows) if r["lhs"] not in (None, 0.0))


def test_reference_matches_itself(reference_rows):
    assert compare_rows(copy.deepcopy(reference_rows), reference_rows) == {}


@pytest.mark.parametrize("field,change", [
    ("lhs", lambda v: v + 1e-4),
    ("rhs", lambda v: v + 1e-5),
    ("holds", lambda v: not v),
    ("tag", lambda v: v + "x"),
    ("trial", lambda v: v + 1),
])
def test_perturbed_reference_is_caught(reference_rows, field, change):
    perturbed = copy.deepcopy(reference_rows)
    i = _numeric_row(perturbed)
    perturbed[i][field] = change(perturbed[i][field])
    assert list(compare_rows(reference_rows, perturbed)) == [i]


def test_perturbed_param_and_missing_record_are_caught(reference_rows):
    perturbed = copy.deepcopy(reference_rows)
    key = next(k for k, v in perturbed[0]["params"].items()
               if isinstance(v, (int, float)) and not isinstance(v, bool))
    perturbed[0]["params"][key] += 1
    assert list(compare_rows(reference_rows, perturbed)) == [0]
    assert list(compare_rows(reference_rows[:-1], reference_rows)) == [len(reference_rows) - 1]


def test_change_within_tolerance_passes(reference_rows):
    perturbed = copy.deepcopy(reference_rows)
    i = _numeric_row(perturbed)
    perturbed[i]["lhs"] += 1e-9
    assert compare_rows(reference_rows, perturbed) == {}


def test_pass_zero_matches_reference_at_default_seed():
    tally = run.Tally()
    workload = WORKLOADS["verify-random"]
    probe = Tracer(groups={"metrics.d_ehs"})
    with probe:
        _, reports = run.run_pass(cli, workload, pass_seed(DEFAULT_SEED, 0), tally)
    run.check_gaps(probe, tally)
    identical = run.check_pass(workload, reports, tally,
                               reference=load_reference(workload.name))
    assert tally.failed == 0, tally.notes
    assert tally.attempted > len(probe.dehs) > 0
    assert identical == len(workload.commands)


def test_gap_above_tol_counts_as_failure():
    tracer, tally = Tracer(), run.Tally()
    tracer.dehs[:] = [(3, 5e-8, 1e-7), (200, 2e-7, 1e-7)]
    run.check_gaps(tracer, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.kernel_seconds() > 0.0


def test_pass_scaled_by_adjacent_kernel_times():
    scaled = calibrate.scale([2.0, 3.0], [0.1, 0.3, 0.2])
    assert scaled == pytest.approx([calibrate.REFERENCE_S * 2.0 / 0.2,
                                    calibrate.REFERENCE_S * 3.0 / 0.25])
    with pytest.raises(AssertionError):
        calibrate.scale([2.0, 3.0], [0.1, 0.3])


def test_end_to_end_reports_median_scaled_pass():
    tally = run.Tally()
    values, passes = run.end_to_end(cli, SMALL, 11, 0.0, tally, (1.5, [1.5]))
    assert tally.failed == 0, tally.notes
    assert len(passes["wall_s"]) == run.MIN_TIMED_PASSES
    assert passes["scaled_s"] == calibrate.scale(passes["wall_s"], passes["kernel_s"])
    assert values["run_s"] == statistics.median(passes["scaled_s"]) > 0.0
    assert values["setup_s"] == 1.5


def test_traced_pass_keeps_records_and_restores_bindings():
    originals = {
        "experiments.d_ehs": experiments.d_ehs,
        "metrics.linprog": metrics.linprog,
        "eigh": np.linalg.eigh,
        "Ensemble.__init__": Ensemble.__init__,
        "oscillator": HamiltonianSpec.__dict__["oscillator"],
        "EXPERIMENTS": dict(experiments.EXPERIMENTS),
    }
    tally = run.Tally()
    _, plain = run.run_pass(cli, SMALL, 11, tally)
    tracer = Tracer()
    summaries = []
    for _ in range(2):
        tracer.reset()
        with tracer:
            assert experiments.d_ehs is not originals["experiments.d_ehs"]
            assert experiments.EXPERIMENTS["steering"] is not originals["EXPERIMENTS"]["steering"]
            _, traced = run.run_pass(cli, SMALL, 11, tally)
        summaries.append(tracer.summarize())
        run.check_pass(SMALL, traced, tally, same_as=plain)
    assert tally.failed == 0, tally.notes
    assert leftover_wrappers() == []
    assert experiments.d_ehs is originals["experiments.d_ehs"]
    assert metrics.linprog is originals["metrics.linprog"]
    assert np.linalg.eigh is originals["eigh"]
    assert Ensemble.__init__ is originals["Ensemble.__init__"]
    assert HamiltonianSpec.__dict__["oscillator"] is originals["oscillator"]
    assert experiments.EXPERIMENTS == originals["EXPERIMENTS"]
    for name in EXACT_COUNTERS:
        assert summaries[0][name] == summaries[1][name], name
    assert summaries[0]["metrics.d_ehs.calls"] == 3
    assert tracer.command + 1 == len(SMALL.commands)
