"""Write the verify/repro reports of a checkout, and compare two sets of them.

    python tools/report_diff.py run DIR
    python tools/report_diff.py compare A B
    python tools/report_diff.py golden

``run`` writes the JSON report of every ``verify`` and ``repro`` command at
seeds 7000-7002 with ``--trials 30`` (33 reports) to
DIR/<verify|repro>-<name>-s<seed>.json. It runs the package under the
``src/`` next to this script, in process, with BLAS pinned to one thread,
every command of one seed before the next seed.
To get a second tree's reports, run the script from a copy placed in that
tree.

``compare`` prints one line per report: "identical" when the files are
byte-identical, otherwise each field that moved (grouped by tag) with its
max |delta| and the number of rows it moved in, and every ``holds`` flag
that flipped. It exits 0 when every report is identical, 1 otherwise.

``golden`` rewrites the golden reports: it writes ``run``'s 33 reports to
tests/golden/ and records in tests/golden_reports.json the numpy, scipy and
BLAS versions that made them. The Tier-1 test
``test_reports_match_the_golden_manifest`` regenerates them and compares
them byte for byte with the golden files.
Rewrite them only in a change that means to move report bits, and give that
change's ``compare`` table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = ROOT / "tests" / "golden_reports.json"
SEEDS = (7000, 7001, 7002)
TRIALS = 30
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def commands():
    """Every (kind, name) the CLI runs as ``qensembles <kind> <name>``."""
    from qensembles.experiments import EXPERIMENTS, REPROS

    return ([("verify", name) for name in sorted(EXPERIMENTS)]
            + [("repro", name) for name in sorted(REPROS)])


def run(out_dir, seeds=SEEDS, trials=TRIALS, only=None):
    """Write one report per command and seed; return the paths written."""
    from qensembles.cli import main

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    # seeds outside, commands inside: verify scb-rank, scb-energy and holevo of
    # one seed run in turn, so the last two reuse the channel trials and the
    # d_ehs batch that the first drew and solved
    for seed in seeds:
        for kind, name in only or commands():
            path = out_dir / f"{kind}-{name}-s{seed}.json"
            argv = [kind, name, "--seed", str(seed), "--trials", str(trials),
                    "--out", str(path)]
            # verify eof, repro crossover and repro eof-witness exit 1 by design
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            written.append(path)
    return written


def stack():
    """The numpy, scipy and BLAS versions this process computes with."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def write_golden():
    """Replace the golden reports and record the stack that made them."""
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    paths = run(GOLDEN)
    MANIFEST.write_text(json.dumps({"stack": stack()}, indent=2, sort_keys=True) + "\n")
    return paths


def _fields(row):
    # every report field but holds, with the (flat) params as params.<key>
    fields = {k: v for k, v in row.items() if k not in ("holds", "params")}
    fields.update({f"params.{k}": v for k, v in row.get("params", {}).items()})
    return fields


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def report_changes(rows_a, rows_b):
    """Lines describing how rows_b moved from rows_a (empty if they agree)."""
    if [r.get("tag") for r in rows_a] != [r.get("tag") for r in rows_b]:
        return [f"rows differ: {len(rows_a)} -> {len(rows_b)} records, "
                "or their tags changed"]
    moved = defaultdict(lambda: [0.0, 0])  # (tag, field) -> [max |delta|, rows]
    flips = []
    for row_a, row_b in zip(rows_a, rows_b):
        tag = row_a.get("tag")
        if row_a.get("holds") != row_b.get("holds"):
            flips.append(f"holds flipped: {tag} trial {row_a.get('trial')}: "
                         f"{row_a.get('holds')} -> {row_b.get('holds')}")
        fields_a, fields_b = _fields(row_a), _fields(row_b)
        for key in sorted(fields_a.keys() | fields_b.keys()):
            a, b = fields_a.get(key), fields_b.get(key)
            if a == b and type(a) is type(b):
                continue
            if _is_number(a) and _is_number(b):
                delta = abs(b - a)
                if math.isnan(delta):
                    delta = math.inf
            else:
                delta = math.inf
            entry = moved[tag, key]
            entry[0] = max(entry[0], delta)
            entry[1] += 1
    lines = [f"{tag} {key}: max |delta| {delta:.3g} ({count} row{'s' * (count > 1)})"
             for (tag, key), (delta, count) in moved.items()]
    return lines + flips


def compare(dir_a, dir_b, out=sys.stdout):
    """Print what moved from dir_a to dir_b, report by report; True if nothing."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for p in dir_a.glob("*.json")}
                   | {p.name for p in dir_b.glob("*.json")})
    same = True
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not path_a.exists() or not path_b.exists():
            print(f"{name}: only in {dir_a if path_a.exists() else dir_b}", file=out)
            same = False
            continue
        bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
        if bytes_a == bytes_b:
            print(f"{name}: identical", file=out)
            continue
        same = False
        lines = report_changes(json.loads(bytes_a), json.loads(bytes_b))
        print(f"{name}: differs", file=out)
        for line in lines or ["same values, different bytes"]:
            print(f"  {line}", file=out)
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="write this checkout's reports to DIR")
    p_run.add_argument("dir")
    p_cmp = sub.add_parser("compare", help="print what moved from A to B")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    sub.add_parser("golden", help="rewrite tests/golden/ and its manifest")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return 0 if compare(args.a, args.b) else 1
    # before numpy loads, so BLAS starts with one thread
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.command == "run":
        paths = run(args.dir)
        print(f"wrote {len(paths)} reports to {args.dir}")
    else:
        paths = write_golden()
        print(f"wrote {len(paths)} reports to {GOLDEN} and their stack to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
