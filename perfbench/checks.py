"""Output checks: report parsing and comparison against a committed reference.

A record matches its reference when the trial index, tag and ``holds`` flag
are equal, and every numeric field (lhs, rhs, epsilon and numeric params)
agrees within ``|a - b| <= ATOL + RTOL * |b|``. The tolerance allows for
last-digit differences of other BLAS/LAPACK/HiGHS builds; the d_ehs values
inside the records are only certified to a gap of 1e-7. Byte identity of the
whole report is checked and reported separately.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_report(path):
    """(rows, sha256 of the bytes) of a JSON report written by the CLI."""
    raw = Path(path).read_bytes()
    return json.loads(raw), hashlib.sha256(raw).hexdigest()


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b or a == b and type(a) is type(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= ATOL + RTOL * abs(b)
    return a == b


def row_mismatch(got, ref):
    """Name of the first field where a record differs from its reference, or None."""
    for key in ("trial", "tag", "holds"):
        if got.get(key) != ref.get(key) or type(got.get(key)) is not type(ref.get(key)):
            return key
    for key in ("lhs", "rhs", "epsilon"):
        if not _close(got.get(key), ref.get(key)):
            return key
    gp, rp = got.get("params", {}), ref.get("params", {})
    if sorted(gp) != sorted(rp):
        return "params"
    for key in rp:
        if not _close(gp[key], rp[key]):
            return f"params.{key}"
    return None


def compare_rows(got_rows, ref_rows):
    """{record index: message} for records missing, extra or differing from the reference."""
    bad = {}
    for i, (got, ref) in enumerate(zip(got_rows, ref_rows)):
        field = row_mismatch(got, ref)
        if field is not None:
            bad[i] = f"{ref.get('tag')}: {field} differs"
    for i in range(min(len(got_rows), len(ref_rows)), max(len(got_rows), len(ref_rows))):
        bad[i] = "missing or extra record"
    return bad


def reference_path(workload_name):
    return REFERENCE_DIR / f"{workload_name}.json"


def load_reference(workload_name):
    with open(reference_path(workload_name), encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(workload_name, seed, cli_seed, commands):
    """commands: [{"command": [...], "exit_code": int, "sha256": str, "records": [...]}]"""
    header = {"workload": workload_name, "seed": seed, "cli_seed": cli_seed,
              "rtol": RTOL, "atol": ATOL}
    # one record per line keeps the file diffable
    parts = []
    for cmd in commands:
        meta = json.dumps({k: v for k, v in cmd.items() if k != "records"}, sort_keys=True)
        rows = ",\n".join(json.dumps(r, sort_keys=True) for r in cmd["records"])
        parts.append(f'{meta[:-1]}, "records": [\n{rows}\n]}}')
    text = (json.dumps(header, sort_keys=True)[:-1] + ', "commands": [\n'
            + ",\n".join(parts) + "\n]}\n")
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload_name).write_text(text, encoding="utf-8")
