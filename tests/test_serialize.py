import json

import numpy as np
import pytest

from qensembles import PointMeasure, ValidationError
from qensembles.bounds import BoundReport
from qensembles.experiments import TrialRecord
from qensembles.randomgen import random_ensemble, random_state
from qensembles import serialize as ser


def test_matrix_round_trip(rng):
    m = random_state(3, 3, rng)
    data = ser.matrix_to_json(m)
    assert np.allclose(ser.matrix_from_json(data), m)
    json.dumps(data)  # plain JSON types only


def test_matrix_malformed():
    with pytest.raises(ValidationError):
        ser.matrix_from_json([[1.0, 2.0]])


def test_ensemble_round_trip(rng):
    mu = random_ensemble(2, 3, rng)
    back = ser.ensemble_from_json(ser.ensemble_to_json(mu))
    assert back.dim == mu.dim
    assert np.allclose(back.weights, mu.weights)
    for a, b in zip(back.states, mu.states):
        assert np.allclose(a, b)


def test_point_measure_round_trip(rng):
    pm = PointMeasure(points=rng.uniform(-1, 1, (4, 2)),
                      weights=rng.dirichlet(np.ones(4)))
    back = ser.point_measure_from_json(ser.point_measure_to_json(pm))
    assert np.allclose(back.points, pm.points)
    assert np.allclose(back.weights, pm.weights)


def _records():
    return [
        TrialRecord(0, BoundReport(tag="a", rhs=1.0, epsilon=0.1, lhs=0.5,
                                   params={"dim": np.int64(3), "p": np.float64(0.2)}),
                    seconds=0.123),
        TrialRecord(1, BoundReport(tag="b", rhs=2.0, epsilon=0.2,
                                   params={"flag": True})),
    ]


def test_report_serialization_excludes_timing_and_is_deterministic():
    a = ser.reports_to_json(_records())
    b = ser.reports_to_json(_records())
    assert a == b
    assert "seconds" not in a and "0.123" not in a
    rows = json.loads(a)
    assert rows[0]["holds"] is True and rows[1]["holds"] is None
    assert rows[0]["params"] == {"dim": 3, "p": 0.2}

    csv_a = ser.reports_to_csv(_records())
    csv_b = ser.reports_to_csv(_records())
    assert csv_a == csv_b
    assert csv_a.splitlines()[0] == "trial,tag,lhs,rhs,epsilon,holds,params"


@pytest.mark.parametrize("data, key", [
    ({"dim": 2}, "members"),
    ({"members": []}, "dim"),
    ({"dim": 2, "members": [{"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]}, "weight"),
    ({"dim": 2, "members": [{"weight": 1.0}]}, "matrix"),
    ([], "dim"),
])
def test_ensemble_missing_key_is_named(data, key):
    with pytest.raises(ValidationError, match=f"missing the key '{key}'"):
        ser.ensemble_from_json(data)


@pytest.mark.parametrize("data, key", [
    ({"weights": [1.0]}, "points"),
    ({"points": [[0.0, 0.0]]}, "weights"),
])
def test_point_measure_missing_key_is_named(data, key):
    with pytest.raises(ValidationError, match=f"missing the key '{key}'"):
        ser.point_measure_from_json(data)
