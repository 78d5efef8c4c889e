"""The README's "Tolerances" table against the constants it names."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

from qensembles.cli import build_parser
from qensembles.metrics import d_ehs, d_ehs_many

README = Path(__file__).resolve().parents[1] / "README.md"
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
