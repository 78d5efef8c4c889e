"""JSON encodings shared repo-wide.

Complex matrices are nested arrays of [re, im] pairs, row major:
    [[[re, im], ...], ...]
Ensembles:      {"dim": d, "members": [{"weight": p, "matrix": ...}, ...]}
Channels:       {"dim_in": a, "dim_out": b, "kraus": [matrix, ...]}
Hamiltonians:   {"eigenvalues": [...], "closed_form": "oscillator" | null}
Point measures: {"points": [[x, y], ...], "weights": [...]}
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .channels import KrausChannel
from .energy import HamiltonianSpec
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
    except (TypeError, IndexError) as exc:
        raise ValidationError(f"malformed complex-matrix JSON: {exc}") from exc


def ensemble_to_json(mu):
    return {
        "dim": mu.dim,
        "members": [
            {"weight": float(w), "matrix": matrix_to_json(s)} for w, s in mu.members
        ],
    }


def ensemble_from_json(data):
    return Ensemble(
        dim=int(data["dim"]),
        weights=np.array([float(m["weight"]) for m in data["members"]]),
        states=[matrix_from_json(m["matrix"]) for m in data["members"]],
    )


def channel_to_json(chan):
    return {
        "dim_in": chan.dim_in,
        "dim_out": chan.dim_out,
        "kraus": [matrix_to_json(k) for k in chan.kraus],
    }


def channel_from_json(data):
    if "catalog" in data:
        return _catalog_channel(data)
    return KrausChannel(
        dim_in=int(data["dim_in"]),
        dim_out=int(data["dim_out"]),
        kraus=tuple(matrix_from_json(k) for k in data["kraus"]),
    )


def _catalog_channel(data):
    """Catalog channels addressable by name + parameters:
    {"catalog": "erasure", "dim": 2, "p": 0.1} and friends."""
    from . import channels as ch

    name = data["catalog"]
    if name == "identity":
        return ch.identity_channel(int(data["dim"]))
    if name == "erasure":
        return ch.erasure_channel(int(data["dim"]), float(data["p"]))
    if name == "mix_with_state":
        return ch.mix_with_state(
            int(data["dim"]), float(data["eps"]), matrix_from_json(data["omega"])
        )
    if name == "fock_dephasing":
        return ch.fock_dephasing(int(data["n_max"]))
    raise ValidationError(f"unknown catalog channel {name!r}")


def hamiltonian_to_json(ham):
    return {
        "eigenvalues": [float(e) for e in ham.eigenvalues],
        "closed_form": ham.closed_form,
    }


def hamiltonian_from_json(data):
    return HamiltonianSpec(
        np.array(data["eigenvalues"], dtype=float),
        closed_form=data.get("closed_form"),
    )


def point_measure_to_json(pm):
    return {
        "points": [[float(x) for x in p] for p in pm.points],
        "weights": [float(w) for w in pm.weights],
    }


def point_measure_from_json(data):
    return PointMeasure(
        points=np.array(data["points"], dtype=float),
        weights=np.array(data["weights"], dtype=float),
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
