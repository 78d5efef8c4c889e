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


def matrix_from_json(data):
    try:
        return np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in data],
            dtype=complex,
        )
    # ragged rows raise ValueError, an object cell KeyError and an integer
    # beyond the float range OverflowError
    except (TypeError, LookupError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"malformed complex-matrix JSON (rows of [re, im] pairs expected): {exc}"
        ) from exc


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


def _as_array(value, dtype, key):
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {key!r} in JSON input: {exc}") from None


def ensemble_from_json(data):
    dim = _field(data, "dim")
    members = _field(data, "members")
    if not isinstance(dim, int) or not isinstance(members, list):
        raise ValidationError("ensemble JSON needs an integer 'dim' and a list 'members'")
    return Ensemble(
        dim=dim,
        weights=_as_array([_field(m, "weight") for m in members], float, "weight"),
        states=[matrix_from_json(_field(m, "matrix")) for m in members],
    )


def point_measure_to_json(pm):
    return {
        "points": [[float(x) for x in p] for p in pm.points],
        "weights": [float(w) for w in pm.weights],
    }


def point_measure_from_json(data):
    return PointMeasure(
        points=_as_array(_field(data, "points"), float, "points"),
        weights=_as_array(_field(data, "weights"), float, "weights"),
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


def reports_to_json(records):
    rows = [_report_row(rec.index, rec.report) for rec in records]
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"


def reports_to_csv(records):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        row = _report_row(rec.index, rec.report)
        row["params"] = json.dumps(row["params"], sort_keys=True)
        writer.writerow(row)
    return buf.getvalue()
