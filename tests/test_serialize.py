import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qensembles import PointMeasure, ValidationError
from qensembles.bounds import BoundReport
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


def _reports():
    return [
        BoundReport(tag="a", rhs=1.0, epsilon=0.1, lhs=0.5,
                    params={"dim": np.int64(3), "p": np.float64(0.2)}),
        BoundReport(tag="b", rhs=2.0, epsilon=0.2, params={"flag": True}),
    ]


def test_report_serialization_excludes_timing_and_is_deterministic():
    a = ser.reports_to_json(_reports())
    b = ser.reports_to_json(_reports())
    assert a == b
    rows = json.loads(a)
    assert [row["trial"] for row in rows] == [0, 1]  # numbered by position
    assert rows[0]["holds"] is True and rows[1]["holds"] is None
    assert rows[0]["params"] == {"dim": 3, "p": 0.2}

    csv_a = ser.reports_to_csv(_reports())
    csv_b = ser.reports_to_csv(_reports())
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


# report fields: finite and non-finite floats, and numpy scalars of each
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
                   st.floats(allow_nan=True, allow_infinity=True))
PARAM_VALUES = st.one_of(
    st.booleans(), st.integers(-2**70, 2**70), FLOATS, st.text(), st.none(),
    FLOATS.map(np.float64), st.integers(-2**40, 2**40).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.one_of(st.integers(), st.floats(), st.text()), max_size=3),
)
REPORTS = st.lists(st.builds(
    BoundReport,
    tag=st.text(),  # any code point: non-ASCII tags are escaped
    rhs=FLOATS,
    epsilon=FLOATS,
    lhs=st.one_of(st.none(), FLOATS),
    params=st.dictionaries(st.text(), PARAM_VALUES, max_size=4),  # {} included
), max_size=4)


def json_module_rows(reports):
    # the report rows as plain JSON values, written independently of serialize
    return [{
        "trial": index,
        "tag": rep.tag,
        "lhs": None if rep.lhs is None else float(rep.lhs),
        "rhs": float(rep.rhs),
        "epsilon": float(rep.epsilon),
        "holds": rep.holds,
        "params": {k: v.item() if isinstance(v, np.generic) else v
                   for k, v in rep.params.items()},
    } for index, rep in enumerate(reports)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(reports=REPORTS)
def test_report_json_is_what_the_json_module_writes(reports):
    want = json.dumps(json_module_rows(reports), sort_keys=True, indent=2) + "\n"
    assert ser.reports_to_json(reports) == want


def test_report_json_of_the_example_rows():
    reports = _reports() + [
        BoundReport(tag="café/ε", rhs=math.inf, epsilon=-math.inf,
                    lhs=math.nan, params={}),
    ]
    text = ser.reports_to_json(reports)
    assert text == json.dumps(json_module_rows(reports), sort_keys=True, indent=2) + "\n"
    assert '"params": {},' in text and '"tag": "caf\\u00e9/\\u03b5",' in text
    assert '"lhs": NaN,' in text and '"rhs": Infinity,' in text
