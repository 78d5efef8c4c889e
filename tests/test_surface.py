"""Every exported name must be reached from the package itself.

A name in qensembles.__all__ that no module other than __init__ refers to has
no caller in the CLI, the experiments or the reproductions; it is dead surface
and should be deleted rather than exported.
"""

import ast
import inspect
from pathlib import Path

import qensembles


def _referenced_identifiers():
    names = set()
    for path in Path(qensembles.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_reached_inside_the_package():
    exported = {name for name in qensembles.__all__
                if not inspect.ismodule(getattr(qensembles, name))}
    assert sorted(exported - _referenced_identifiers()) == []


def test_only_metrics_imports_scipy():
    # scipy is there for the HiGHS binding alone; special functions come
    # from the stdlib math module
    importers = set()
    for path in Path(qensembles.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == {"metrics.py"}


# the private names experiments may import from a sibling module, each with
# its reason
EXPERIMENTS_PRIVATE_IMPORTS = {
    # groups the trial draws by shape, one QR and one Gram product per shape
    ("linalg", "_per_shape"),
    # mixes the drawn members toward drawn targets that are valid already
    ("ensembles", "_mixed_toward"),
    # solves repro coherent's Lemma 9 D_K from closed-form pure-state costs
    ("metrics", "_solve_transports"),
    # the eigendecomposition behind displacement_operator, which turns the
    # displaced-Gibbs radial sum into one entrywise product
    ("channels", "_displacement_eigh"),
}


def test_experiments_imports_no_private_sibling_name():
    path = Path(qensembles.__file__).parent / "experiments.py"
    private = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            private |= {(node.module, alias.name) for alias in node.names
                        if alias.name.startswith("_")}
    assert private == EXPERIMENTS_PRIVATE_IMPORTS
