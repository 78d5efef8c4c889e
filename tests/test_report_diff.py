import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_a_perturbed_rhs(tmp_path):
    tool = load_tool()
    (path,) = tool.run(tmp_path / "a", seeds=(7000,), trials=3,
                       only=[("verify", "lemmas")])
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    out = io.StringIO()
    assert tool.compare(tmp_path / "a", tmp_path / "b", out=out)
    assert out.getvalue() == f"{path.name}: identical\n"

    rows = json.loads(path.read_text())
    row = next(r for r in rows if r["holds"])
    row["rhs"] = row["rhs"] + 0.25
    (tmp_path / "b" / path.name).write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    out = io.StringIO()
    assert not tool.compare(tmp_path / "a", tmp_path / "b", out=out)
    lines = out.getvalue().splitlines()
    assert lines[0] == f"{path.name}: differs"
    assert lines[1:] == [f"  {row['tag']} rhs: max |delta| 0.25 (1 row)"]


def test_compare_reports_a_holds_flip(tmp_path):
    tool = load_tool()
    rows = [{"trial": 0, "tag": "t", "lhs": 1.0, "rhs": 2.0, "epsilon": 0.1,
             "holds": True, "params": {"k": 1.0}}]
    flipped = [dict(rows[0], lhs=3.0, holds=False, params={"k": 1.5})]
    assert tool.report_changes(rows, flipped) == [
        "t lhs: max |delta| 2 (1 row)",
        "t params.k: max |delta| 0.5 (1 row)",
        "holds flipped: t trial 0: True -> False",
    ]


def test_compare_reports_a_one_ulp_move(tmp_path):
    # byte identity is what the tool certifies, so the smallest possible move
    # of one field must show
    tool = load_tool()
    (path,) = tool.run(tmp_path / "a", seeds=(7000,), trials=3,
                       only=[("repro", "coherent")])
    rows = json.loads(path.read_text())
    row = next(r for r in rows if r["lhs"] not in (None, 0.0))
    moved = math.nextafter(row["lhs"], math.inf)
    delta = moved - row["lhs"]
    assert delta == math.ulp(row["lhs"])
    row["lhs"] = moved
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / path.name).write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    out = io.StringIO()
    assert tool.compare(tmp_path / "a", tmp_path / "b", out=out) is False
    assert out.getvalue().splitlines() == [
        f"{path.name}: differs",
        f"  {row['tag']} lhs: max |delta| {delta:.3g} (1 row)",
    ]


def test_golden_prints_the_table_of_its_rewrite(tmp_path):
    # the rewrite prints what moved from the old golden reports to the new
    # ones, then leaves the new ones in their place
    tool = load_tool()
    args = dict(seeds=(7000,), trials=3, only=[("verify", "lemmas")])
    golden, manifest = tmp_path / "golden", tmp_path / "manifest.json"
    (path,) = tool.run(golden, **args)
    fresh = path.read_bytes()
    rows = json.loads(fresh)
    row = next(r for r in rows if r["holds"])
    row["rhs"] = row["rhs"] + 0.25
    path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    out = io.StringIO()
    assert tool.write_golden(golden, manifest, out=out, **args) == [path]
    assert out.getvalue().splitlines() == [
        f"{path.name}: differs",
        f"  {row['tag']} rhs: max |delta| 0.25 (1 row)",
    ]
    assert [p.name for p in golden.iterdir()] == [path.name]
    assert path.read_bytes() == fresh
    assert json.loads(manifest.read_text()) == {"stack": tool.stack()}


def test_reports_match_the_golden_manifest(tmp_path):
    # every verify and repro report, regenerated in this process, has the
    # bytes of its file in tests/golden/; `report_diff.py golden` rewrites
    # them, in a change that means to move report bits
    tool = load_tool()
    tool.run(tmp_path)
    out = io.StringIO()
    if not tool.compare(tool.GOLDEN, tmp_path, out=out):
        manifest = json.loads(tool.MANIFEST.read_text())
        table = [line for line in out.getvalue().splitlines()
                 if not line.endswith(": identical")]
        pytest.fail("reports differ from the golden ones, made with "
                    f"{stack_text(manifest['stack'])}; this run uses "
                    f"{stack_text(tool.stack())}\n" + "\n".join(table))


def stack_text(stack):
    return f"numpy {stack['numpy']}, scipy {stack['scipy']}, BLAS {stack['blas']}"
