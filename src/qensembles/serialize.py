"""JSON encodings shared repo-wide.

Complex matrices are nested arrays of [re, im] pairs, row major:
    [[[re, im], ...], ...]
Ensembles:      {"dim": d, "members": [{"weight": p, "matrix": ...}, ...]}
Point measures: {"points": [[x, y], ...], "weights": [...]}
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .ensembles import Ensemble
from .errors import ValidationError
from .metrics import PointMeasure


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _is_number(value):
    # a JSON number decodes to int or float; bool is a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_array(value, depth, what):
    """value, a JSON array `depth` deep of numbers (int or float, not bool or
    str), as a float ndarray; else ValidationError('malformed <what>...')."""
    # ragged rows and leaves that are not numbers leave an object array of
    # another depth, or with a list, dict, str, bool or None among its cells
    cells = np.array(value, dtype=object)
    if cells.ndim != depth or not all(map(_is_number, cells.flat)):
        raise ValidationError(f"malformed {what}: numbers nested {depth} deep expected")
    try:
        return cells.astype(float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValidationError(f"malformed {what}: {exc}") from None


def matrix_from_json(data):
    what = "complex-matrix JSON (rows of [re, im] pairs expected)"
    cells = _number_array(data, 3, what)
    if cells.shape[-1] != 2:
        raise ValidationError(f"malformed {what}: a cell of {cells.shape[-1]} numbers")
    return cells.view(complex)[..., 0]


def ensemble_to_json(mu):
    return {
        "dim": mu.dim,
        "members": [
            {"weight": float(w), "matrix": matrix_to_json(s)} for w, s in mu.members
        ],
    }


def _field(data, key):
    """data[key] of a decoded JSON object; ValidationError naming a missing key."""
    if not isinstance(data, dict) or key not in data:
        raise ValidationError(f"JSON input is missing the key {key!r}")
    return data[key]


def ensemble_from_json(data):
    dim = _field(data, "dim")
    members = _field(data, "members")
    if isinstance(dim, bool) or not isinstance(dim, int) or not isinstance(members, list):
        raise ValidationError("ensemble JSON needs an integer 'dim' and a list 'members'")
    return Ensemble(
        dim=dim,
        weights=_number_array([_field(m, "weight") for m in members], 1,
                              "'weight' in JSON input"),
        states=[matrix_from_json(_field(m, "matrix")) for m in members],
    )


def point_measure_to_json(pm):
    return {
        "points": [[float(x) for x in p] for p in pm.points],
        "weights": [float(w) for w in pm.weights],
    }


def point_measure_from_json(data):
    return PointMeasure(
        points=_number_array(_field(data, "points"), 2, "'points' in JSON input"),
        weights=_number_array(_field(data, "weights"), 1, "'weights' in JSON input"),
    )


# ---------------------------------------------------------------------------
# Report serialization (deterministic: identical configs give identical bytes)
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("trial", "tag", "lhs", "rhs", "epsilon", "holds", "params")


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


def _report_row(index, report):
    return {
        "trial": index,
        "tag": report.tag,
        "lhs": None if report.lhs is None else float(report.lhs),
        "rhs": float(report.rhs),
        "epsilon": float(report.epsilon),
        "holds": report.holds,
        "params": {k: _plain(report.params[k]) for k in sorted(report.params)},
    }


def reports_to_json(reports):
    rows = [_report_row(index, rep) for index, rep in enumerate(reports)]
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for index, rep in enumerate(reports):
        row = _report_row(index, rep)
        row["params"] = json.dumps(row["params"], sort_keys=True)
        writer.writerow(row)
    return buf.getvalue()
