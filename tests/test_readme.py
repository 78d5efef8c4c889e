"""The README against the package: the "Tolerances" table against the
constants it names, every `qensembles` command line and python block run as
shown, every module-qualified name it quotes resolved, and its lists of
experiments and bound tags against the registries."""

import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qensembles import bounds, cli, serialize
from qensembles.cli import build_parser
from qensembles.experiments import EXPERIMENTS, REPROS
from qensembles.metrics import PointMeasure, d_ehs, d_ehs_many
from qensembles.randomgen import random_ensemble

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# a number in scientific notation; the README writes a minus sign as U+2212
NUMBER = re.compile(r"[+−-]?\d+(?:\.\d+)?e[+−-]?\d+")


def tolerance_rows():
    """(names, numbers, module) of each row of the Tolerances table: the
    backquoted names of its first cell, the numbers of its value cell in
    order, and the module of its third cell."""
    table = README.read_text(encoding="utf-8").split("### Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        name, value, module, _ = (cell.strip() for cell in line.strip().strip("|").split("|"))
        numbers = [float(x.replace("−", "-")) for x in NUMBER.findall(value)]
        rows.append((re.findall(r"`([^`]+)`", name), numbers, module.strip("`")))
    return rows


ROWS = tolerance_rows()


def test_the_table_names_the_tolerances():
    names = {name for row_names, _, _ in ROWS for name in row_names}
    assert {"HERM_TOL", "LP_OPTIONS", "PASSIVE_FLOOR", "metric dehs --tol"} <= names
    assert all(numbers for _, numbers, _ in ROWS)


@pytest.mark.parametrize("names, numbers, module", ROWS, ids=[", ".join(r[0]) for r in ROWS])
def test_each_row_gives_its_constants_values(names, numbers, module):
    if module == "cli":
        # the one literal: the --tol default of metric dehs, d_ehs and d_ehs_many
        assert names == ["metric dehs --tol"]
        args = build_parser().parse_args(["metric", "dehs", "--a", "a.json", "--b", "b.json"])
        tols = [inspect.signature(f).parameters["tol"].default for f in (d_ehs, d_ehs_many)]
        assert [args.tol, *tols] == numbers * 3
        return
    module = importlib.import_module(f"qensembles.{module}")
    assert len(names) == len(numbers)
    for name, number in zip(names, numbers):
        value = getattr(module, name)
        if name == "LP_OPTIONS":
            # "primal and dual feasibility": both entries
            assert sorted(value) == ["dual_feasibility_tolerance", "primal_feasibility_tolerance"]
            assert list(value.values()) == [number, number]
        else:
            assert value == number, name


def fenced_blocks(lang):
    """The bodies of the README's ```<lang> blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", TEXT, flags=re.S | re.M)


def table_rows(heading):
    """The cells of each table row between `heading` and the next heading
    whose first cell is backquoted."""
    section = TEXT.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]


CLI_LINES = [line for block in fenced_blocks("bash") for line in block.splitlines()
             if line.startswith("qensembles ")]


def test_the_cli_block_covers_every_subcommand():
    assert {line.split()[1] for line in CLI_LINES} == {"metric", "bound", "verify", "repro"}


@pytest.fixture
def cli_inputs(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding the files the CLI lines
    name: two ensembles, two point measures and the README's config."""
    rng = np.random.default_rng(7)
    files = {
        "mu.json": serialize.ensemble_to_json(random_ensemble(3, 3, rng)),
        "nu.json": serialize.ensemble_to_json(random_ensemble(3, 2, rng)),
        "pm1.json": serialize.point_measure_to_json(
            PointMeasure(points=np.array([[0.0, 0.0], [1.0, 0.0]]), weights=np.array([0.5, 0.5]))),
        "pm2.json": serialize.point_measure_to_json(
            PointMeasure(points=np.array([[0.0, 1.0], [2.0, 0.0]]), weights=np.array([0.3, 0.7]))),
        "cfg.json": json.loads(*fenced_blocks("json")),
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("line", CLI_LINES)
def test_each_cli_line_exits_as_documented(line, cli_inputs, capsys):
    # a nonzero exit is documented by a trailing "# exits N: why" comment
    command, _, comment = line.partition("#")
    expected = 0
    if comment:
        documented = re.fullmatch(r" exits (\d): \S.*", comment)
        assert documented, f"a comment must read '# exits N: why': {line!r}"
        expected = int(documented[1])
    argv = shlex.split(command)[1:]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == expected, capsys.readouterr()
    if "--out" in argv and code != 2:
        assert (cli_inputs / argv[argv.index("--out") + 1]).is_file()


@pytest.mark.parametrize("block", fenced_blocks("python"), ids=lambda block: block.split("\n", 1)[0])
def test_each_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})


MODULES = ("linalg", "metrics", "channels", "energy", "ensembles", "bounds",
           "experiments", "serialize", "randomgen", "cli", "qensembles")
NAMES = sorted(set(re.findall(rf"`((?:{'|'.join(MODULES)})\.[A-Za-z_][\w.]*)[`(]", TEXT)))


def test_the_readme_quotes_module_qualified_names():
    assert "energy.thermal_populations" in NAMES and "bounds.BOUNDS" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_each_module_qualified_name_exists(name):
    parts = name.split(".")
    path = "qensembles" if parts[0] == "qensembles" else f"qensembles.{parts[0]}"
    obj = importlib.import_module(path)
    for part in parts[1:]:
        path += f".{part}"
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)


def test_the_command_table_lists_the_registries():
    rows = table_rows("## CLI")
    listed = {kind: sorted(name.strip("`") for k, name, _ in rows if k == f"`{kind}`")
              for kind in ("verify", "repro")}
    assert listed == {"verify": sorted(EXPERIMENTS), "repro": sorted(REPROS)}


def test_the_bound_tag_table_lists_the_registry():
    tags = [tag for row in table_rows("### Bound tags") for tag in re.findall(r"`([^`]+)`", row[0])]
    assert sorted(tags) == sorted(bounds.BOUNDS)
