import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qensembles import Ensemble, PointMeasure
from qensembles import serialize as ser
from qensembles.cli import build_parser, main
from qensembles.ensembles import singleton
from qensembles.experiments import EXPERIMENTS, REPROS

from conftest import basis_ket, fresh_python, ketbra


@pytest.fixture
def example1_files(tmp_path):
    z0, z1 = ketbra(basis_ket(2, 0)), ketbra(basis_ket(2, 1))
    sigma = np.eye(2, dtype=complex) / 2
    rho2 = np.diag([0.3, 0.7]).astype(complex)
    mu = Ensemble.from_members([(0.5, np.kron(z0, z0)), (0.5, np.kron(rho2, z1))])
    nu = singleton(np.kron(sigma, z0))
    a = tmp_path / "mu.json"
    b = tmp_path / "nu.json"
    a.write_text(json.dumps(ser.ensemble_to_json(mu)))
    b.write_text(json.dumps(ser.ensemble_to_json(nu)))
    return str(a), str(b)


def test_metric_d0(example1_files, capsys):
    a, b = example1_files
    assert main(["metric", "d0", "--a", a, "--b", b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.5, abs=1e-10)


def test_metric_dk_and_dehs(example1_files, capsys):
    a, b = example1_files
    assert main(["metric", "dk", "--a", a, "--b", b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.75, abs=1e-10)
    assert out["upper_bound"] >= out["value"] - 1e-12

    assert main(["metric", "dehs", "--a", a, "--b", b, "--tol", "1e-7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gap"] <= 1e-7


def test_metric_kr(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    pm1 = PointMeasure(points=np.array([[0.0, 0.0]]), weights=np.array([1.0]))
    pm2 = PointMeasure(points=np.array([[0.5, 0.0]]), weights=np.array([1.0]))
    a.write_text(json.dumps(ser.point_measure_to_json(pm1)))
    b.write_text(json.dumps(ser.point_measure_to_json(pm2)))
    assert main(["metric", "kr", "--a", str(a), "--b", str(b)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.5, abs=1e-9)


def test_bound_subcommand(capsys):
    assert main(["bound", "prop2", "--param", "eps=0.1", "--param", "rank=4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.1 * np.log(3) + 0.3250829733914482)


@pytest.mark.parametrize("argv, message", [
    (["bound", "prop2", "--param", "eps=0.1"], "bound 'prop2' needs parameter 'rank'"),
    (["bound", "prop2", "--param", "eps=-0.1", "--param", "rank=4"],
     "eps must be nonnegative"),
    (["bound", "prop3", "--param", "eps=0.1", "--param", "energy=-1"],
     "outside achievable interval"),
    # a negative energy is named as given, not as the scaled E/eps
    (["bound", "chi-cb-2", "--param", "eps=0.1", "--param", "energy=-1"],
     "mean energy -1.0 outside achievable interval"),
    (["bound", "prop6", "--param", "delta=0.1", "--param", "energy=-1"],
     "mean energy -1.0 outside achievable interval"),
    (["bound", "prop7", "--param", "rank=3", "--param", "delta=0.1",
      "--param", "energy=-1"], "mean energy -1.0 outside achievable interval"),
    (["bound", "cor2b", "--param", "eps=0.1", "--param", "energy_mu=1",
      "--param", "energy_nu=-1"], "mean energy -1.0 outside achievable interval"),
    (["bound", "prop2", "--param", "eps=nan", "--param", "rank=4"],
     "parameter 'eps' must be a finite number, got nan"),
    (["bound", "prop3", "--param", "eps=0.1", "--param", "energy=inf"],
     "parameter 'energy' must be a finite number, got inf"),
    (["bound", "prop2", "--param", "eps=0.1", "--param", "rank=abc"],
     "parameter 'rank' must be a finite integer, got 'abc'"),
    (["bound", "prop2", "--param", "eps=0.1", "--param", "rank=3.5"],
     "parameter 'rank' must be a finite integer, got 3.5"),
    (["bound", "crossover", "--param", "dim=5.9"],
     "parameter 'dim' must be a finite integer, got 5.9"),
    # energy 0 is accepted, so the interval printed is closed at 0 and open
    # at inf
    (["bound", "prop3", "--param", "eps=0.1", "--param", "energy=-1"],
     "error: mean energy -1.0 outside achievable interval [0.0, inf)\n"),
    (["bound", "cor2b", "--param", "eps=0.1", "--param", "energy_mu=-0.5",
      "--param", "energy_nu=1"],
     "error: mean energy -0.5 outside achievable interval [0.0, inf)\n"),
])
def test_bound_usage_error_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_bound_energy_tag_is_finite_at_subnormal_closeness(capsys):
    # E/eps overflows at eps = 5e-324; the printed value must not be NaN
    assert main(["bound", "prop3", "--param", "eps=5e-324", "--param", "energy=1"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert math.isfinite(value) and value > 0.0


def test_verify_exits_clean(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main([
        "verify", "steering", "--seed", "3", "--trials", "4",
        "--out", str(out_path), "--format", "json",
    ])
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert rows and all(r["holds"] for r in rows)


def test_verify_csv_output(tmp_path):
    out_path = tmp_path / "report.csv"
    code = main([
        "verify", "lemmas", "--seed", "3", "--trials", "4",
        "--out", str(out_path), "--format", "csv",
    ])
    assert code == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "trial,tag,lhs,rhs,epsilon,holds,params"


def test_repro_crossover_surfaces_known_red(tmp_path, capsys):
    out_path = tmp_path / "cross.csv"
    code = main(["repro", "crossover", "--out", str(out_path), "--format", "csv"])
    assert code == 1  # the two reported bands that contradict the u/v equation
    text = out_path.read_text()
    assert "# table: crossover" in text
    err = capsys.readouterr().err
    assert "crossover/band-hi" in err and "crossover/band-lo" in err


def test_config_file_merging(tmp_path):
    # the file gives trials, dims and the report path; --seed is merged in and
    # the run matches one configured by flags alone
    out = tmp_path / "r.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "dims": [2], "output_path": str(out)}))
    code = main(["verify", "scb-rank", "--config", str(cfg), "--seed", "9"])
    assert code == 0
    assert out.exists() and json.loads(out.read_text())

    flags = tmp_path / "flags.json"
    dims_only = tmp_path / "dims.json"
    dims_only.write_text(json.dumps({"dims": [2]}))
    assert main(["verify", "scb-rank", "--config", str(dims_only), "--seed", "9",
                 "--trials", "3", "--out", str(flags)]) == 0
    assert flags.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("config, flags, message", [
    (None, ["--trials", "0"], "trials must be an integer >= 1, got 0"),
    ({"dims": [1]}, [], "dims must be a non-empty list of integers >= 2, got [1]"),
    ({"dims": []}, [], "got []"),
    ({"trials": "x"}, [], "trials must be an integer >= 1, got 'x'"),
    ({"seed": True}, [], "seed must be an integer, got True"),
    ({"trails": 5}, [], "unknown config key 'trails'"),
    ({"dehs_tol": 1e-6}, [], "unknown config key 'dehs_tol'"),
    ([2, 3], [], "config file must hold a JSON object"),
    ({"output_path": 3}, [], "output_path must be a string, got 3"),
    ("{not json", [], "cannot read JSON from"),
    (None, ["--seed=-1"], "seed must lie in [0, 2^63), got -1"),
    ({"seed": 2**63}, [], f"seed must lie in [0, 2^63), got {2**63}"),
])
@pytest.mark.parametrize("command", [["verify", "steering"], ["repro", "erasure"]])
def test_bad_config_exits_2(tmp_path, capsys, command, config, flags, message):
    out = tmp_path / "report.json"
    argv = command + flags + ["--out", str(out)]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_largest_seed_runs(tmp_path):
    # derive_rng keeps the low 63 bits, so 2^63 - 1 is the last seed that
    # aliases none other; -1 and 2^63 exit 2 (test_bad_config_exits_2)
    out = tmp_path / "report.json"
    assert main(["verify", "lemmas", "--trials", "2", f"--seed={2**63 - 1}",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())


def test_missing_config_file_exits_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "steering", "--config", str(tmp_path / "absent.json"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read JSON from") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command", [["verify", "lemmas"], ["repro", "erasure"]])
def test_unwritable_report_path_exits_2(tmp_path, capsys, command, via_config):
    out = tmp_path / "missing" / "report.json"
    argv = [*command, "--trials", "2"]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_path": str(out)}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    # one error line that names the path, and no summary line
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write the report to {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command", [["verify", "lemmas"], ["repro", "erasure"]])
def test_unwritable_report_path_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                     command, via_config):
    # a report path in a missing directory exits 2 without running anything
    runs = EXPERIMENTS if command[0] == "verify" else REPROS
    calls = []
    monkeypatch.setitem(runs, command[1], lambda cfg: calls.append(cfg))
    out = tmp_path / "missing" / "report.json"
    argv = [*command, "--trials", "2"]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_path": str(out)}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        f"error: cannot write the report to {out}: no writable directory\n")


def test_report_path_that_fails_only_at_write_exits_2_after_the_run(tmp_path, capsys):
    # a directory passes the early check (its parent is writable) and fails
    # at open: the late OSError path still gives one error line and exit 2
    assert main(["verify", "lemmas", "--trials", "2", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write the report to {tmp_path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name, replace_a, message", [
    # a member whose matrix is not a density matrix
    ("d0", lambda d: {"dim": 2, "members": [{"weight": 1.0, "matrix": [[[1, 0], [0, 0]],
                                                                        [[0, 0], [1, 0]]]}]},
     "state trace 2.0 deviates from 1"),
    ("dk", lambda d: {"dim": d["dim"]}, "missing the key 'members'"),
    ("dehs", lambda d: {**d, "members": [{"matrix": m["matrix"]} for m in d["members"]]},
     "missing the key 'weight'"),
    ("d0", lambda d: [d], "missing the key 'dim'"),
    ("dk", lambda d: {**d, "members": [{**m, "weight": float("nan")} for m in d["members"]]},
     "ensemble weights must be nonnegative numbers"),
    ("kr", lambda d: {**d, "points": [[float("nan"), 0.0]]}, "points must be finite"),
    ("d0", lambda d: {**d, "dim": "2"}, "integer 'dim'"),
    ("kr", lambda d: {"points": [[0.0, 0.0]]}, "missing the key 'weights'"),
    ("krmod", lambda d: {"points": [["a", 0.0]], "weights": [1.0]},
     "malformed 'points'"),
    ("kr", lambda d: {"points": [[10**400, 0.0]], "weights": [1.0]},
     "malformed 'points' in JSON input: int too large to convert to float"),
    # members that are not Hermitian, or not PSD
    ("d0", lambda d: {"dim": 2, "members": [{"weight": 1.0, "matrix": [[[0.5, 0], [0.1, 0]],
                                                                        [[0, 0], [0.5, 0]]]}]},
     "state is not Hermitian"),
    ("dk", lambda d: {"dim": 2, "members": [{"weight": 1.0, "matrix": [[[1.2, 0], [0, 0]],
                                                                        [[0, 0], [-0.2, 0]]]}]},
     "state has negative eigenvalue"),
    # a Hermitian member whose symmetrized diagonal overflows to inf+nanj,
    # which check_hermitian rejects before any trace or spectrum is taken
    ("d0", lambda d: {"dim": 2, "members": [{"weight": 1.0, "matrix": [[[1e308, 0], [0, 0]],
                                                                        [[0, 0], [-1e308, 0]]]}]},
     "state entries overflow once symmetrized"),
    ("dk", lambda d: {"dim": 2, "members": [{"weight": 1.0, "matrix": [[[1e308, 0], [0, 0]],
                                                                        [[0, 0], [-1e308, 0]]]}]},
     "state entries overflow once symmetrized"),
    # a ragged row, a cell that is an object, and an entry beyond the float range
    ("d0", lambda d: {"dim": 2, "members": [{"weight": 1.0, "matrix": [[[1, 0]],
                                                                        [[0, 0], [0, 0]]]}]},
     "malformed complex-matrix JSON"),
    ("d0", lambda d: {"dim": 2, "members": [{"weight": 1.0, "matrix": [[{"re": 1}, [0, 0]],
                                                                        [[0, 0], [0, 0]]]}]},
     "malformed complex-matrix JSON"),
    ("d0", lambda d: {"dim": 2, "members": [{"weight": 1.0, "matrix": [[[10**400, 0], [0, 0]],
                                                                        [[0, 0], [0, 0]]]}]},
     "int too large to convert to float"),
    # weights given as a 2-D list
    ("kr", lambda d: {**d, "weights": [[1.0]]}, "malformed 'weights' in JSON input"),
    ("krmod", lambda d: {**d, "weights": [[1.0]]}, "malformed 'weights' in JSON input"),
    # a Euclidean cost beyond what the transport LP solves (kr caps it at 2)
    ("krmod", lambda d: {**d, "points": [[1e308, 0.0]]}, "Euclidean cost inf exceeds 1e+15"),
    ("krmod", lambda d: {**d, "points": [[1e16, 0.0]]}, "Euclidean cost 1e+16 exceeds 1e+15"),
    # JSON numbers are int or float, not str or bool, and cells are pairs
    ("dk", lambda d: {**d, "members": [{**m, "weight": str(m["weight"])}
                                       for m in d["members"]]},
     "malformed 'weight' in JSON input"),
    ("d0", lambda d: {**d, "members": [{**m, "matrix": [[cell + [5] for cell in row]
                                                        for row in m["matrix"]]}
                                       for m in d["members"]]},
     "a cell of 3 numbers"),
    ("d0", lambda d: {**d, "dim": True}, "ensemble JSON needs an integer 'dim'"),
    ("kr", lambda d: {**d, "weights": [True]},
     "malformed 'weights' in JSON input: numbers nested 1 deep expected"),
])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning either
def test_bad_metric_input_exits_2(example1_files, tmp_path, capsys, name, replace_a,
                                  message):
    a, b = example1_files
    if name in ("kr", "krmod"):
        pm = PointMeasure(points=np.array([[0.0, 0.0]]), weights=np.array([1.0]))
        b = tmp_path / "pm.json"
        b.write_text(json.dumps(ser.point_measure_to_json(pm)))
        data = ser.point_measure_to_json(pm)
    else:
        data = json.loads(Path(a).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(replace_a(data)))
    assert main(["metric", name, "--a", str(bad), "--b", str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_kr_caps_a_distance_beyond_the_float_range(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"points": [[1e308, 0.0]], "weights": [1.0]}))
    b.write_text(json.dumps({"points": [[-1e308, 0.0]], "weights": [1.0]}))
    assert main(["metric", "kr", "--a", str(a), "--b", str(b)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["value"] == pytest.approx(2.0, abs=1e-9)
    assert captured.err == ""


def test_overflowing_member_prints_one_error_line(tmp_path):
    # in process, pytest would take numpy's warnings apart from stderr, so
    # this runs the CLI in a fresh interpreter and reads its whole stderr
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "members": [
        {"weight": 1.0, "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [-1e308, 0]]]}]}))
    argv = ["metric", "d0", "--a", str(bad), "--b", str(bad)]
    res = fresh_python(f"import sys\nfrom qensembles.cli import main\nsys.exit(main({argv!r}))")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: state entries overflow") and res.stderr.count("\n") == 1


# JSON values of every kind, with numbers at and beyond the float range
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
_VALID_INPUTS = {
    "ensemble": {"dim": 2, "members": [
        {"weight": 0.5, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
        {"weight": 0.5, "matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]},
    ]},
    "points": {"points": [[0.0, 0.0], [1.0, 0.5]], "weights": [0.25, 0.75]},
}


def _mutated(data, tree):
    """tree with the node at a drawn path kept or replaced by drawn JSON; a
    number is more often replaced by another number."""
    if isinstance(tree, (dict, list)) and tree and data.draw(st.integers(0, 7)):
        key = data.draw(st.sampled_from(list(tree) if isinstance(tree, dict)
                                        else range(len(tree))))
        tree = dict(tree) if isinstance(tree, dict) else list(tree)
        tree[key] = _mutated(data, tree[key])
        return tree
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return data.draw(st.just(tree) | st.floats() | _JSON)
    return data.draw(st.just(tree) | _JSON)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(["d0", "dk", "dehs", "kr", "krmod"]))
def test_mutated_metric_input_exits_2_or_prints_finite_values(data, name):
    valid = _VALID_INPUTS["points" if name in ("kr", "krmod") else "ensemble"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
        a.write_text(json.dumps(_mutated(data, valid)))
        b.write_text(json.dumps(valid))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["metric", name, "--a", str(a), "--b", str(b)])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code == 0 and err.getvalue() == ""
        values = json.loads(out.getvalue())
        assert all(math.isfinite(v) for key, v in values.items() if key != "metric")


@pytest.mark.parametrize("tol", ["0", "-1e-7", "nan"])
def test_metric_bad_tol_exits_2(example1_files, capsys, tol):
    a, b = example1_files
    assert main(["metric", "dehs", "--a", a, "--b", b, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tol must be positive, got {float(tol)}\n"


@pytest.mark.parametrize("content", ["{not json", None, b"\xff\xfe"])
def test_unreadable_metric_input_exits_2(example1_files, tmp_path, capsys, content):
    a, b = example1_files
    bad = tmp_path / "bad.json"
    if isinstance(content, str):
        bad.write_text(content)
    elif content is not None:
        bad.write_bytes(content)
    assert main(["metric", "d0", "--a", str(bad), "--b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read JSON from")


# scipy loads on first use: importing the package or its CLI loads none of these
SCIPY_LAZY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.special",
              "scipy.linalg", "scipy.fft")


# bound with and without --param (prop2 needs eps and rank, so a --param list
# kept from an earlier call would let the bare one pass), verify, repro, and a
# bad argument that argparse rejects
_REPEATED_ARGV = [
    ["bound", "prop2", "--param", "eps=0.1", "--param", "rank=4"],
    ["bound", "prop2"],
    ["bound", "prop3", "--param", "eps=0.2", "--param", "energy=1.5"],
    ["verify", "lemmas", "--seed", "5", "--trials", "3"],
    ["repro", "erasure"],
    ["bound", "no-such-tag"],
]


def _run_main(argv, out_path, capsys):
    """(exit code, stdout, stderr, report bytes) of one main call."""
    if argv[0] in ("verify", "repro"):
        argv = argv + ["--out", str(out_path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    report = out_path.read_bytes() if out_path.exists() else None
    return code, captured.out, captured.err, report


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    fresh = []
    for k, argv in enumerate(_REPEATED_ARGV):
        build_parser.cache_clear()
        fresh.append(_run_main(argv, tmp_path / f"fresh{k}.json", capsys))
    assert [out[0] for out in fresh] == [0, 2, 0, 0, 0, 2]
    assert "needs parameter 'eps'" in fresh[1][2]

    build_parser.cache_clear()
    for rep in range(2):
        for k, argv in enumerate(_REPEATED_ARGV):
            again = _run_main(argv, tmp_path / f"again{rep}-{k}.json", capsys)
            assert again == fresh[k], argv
    assert build_parser.cache_info().misses == 1
    assert json.loads(fresh[2][1])["params"] == {"eps": 0.2, "energy": 1.5}


def test_cli_import_leaves_out_scipy_stats():
    code = f"""
import sys
import qensembles
after_package = [m for m in {SCIPY_LAZY!r} if m in sys.modules]
import qensembles.cli
after_cli = [m for m in {SCIPY_LAZY!r} if m in sys.modules]
print(after_package, after_cli)
"""
    res = fresh_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["[]", "[]"]


def test_cli_import_loads_numpy_and_the_package_alone():
    # what `import qensembles.cli` adds beyond the standard library; setup
    # time is this import, so a new top-level dependency shows here first
    code = """
import sys
before = set(sys.modules)
import qensembles.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(added - set(sys.stdlib_module_names)))
"""
    res = fresh_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['numpy', 'qensembles']"


@pytest.mark.parametrize("argv", [
    ["bound", "prop2", "--param", "eps=0.1", "--param", "rank=4"],
    ["verify", "lemmas", "--trials", "3"],
])
def test_closed_form_commands_leave_out_scipy_optimize(tmp_path, argv):
    # neither command solves an LP, so neither loads scipy's LP layer
    if argv[0] == "verify":
        argv = argv + ["--out", str(tmp_path / "report.json")]
    code = f"""
import sys
from qensembles.cli import main
code = main({argv!r})
print(code, "scipy.optimize" in sys.modules)
"""
    res = fresh_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-2:] == ["0", "False"]


@pytest.mark.parametrize("argv", [
    ["verify", "scb-rank", "--trials", "3"],
    ["repro", "coherent"],
])
def test_lp_commands_leave_out_scipy_optimize(tmp_path, argv):
    # the LPs run in scipy's HiGHS binding, loaded by file: neither command
    # loads scipy.optimize's package, nor any other scipy subpackage
    code = f"""
import sys
from qensembles.cli import main
code = main({[*argv, "--out", str(tmp_path / "report.json")]!r})
print(code, [m for m in {SCIPY_LAZY!r} if m in sys.modules],
      "scipy.optimize._highspy._core" in sys.modules)
"""
    res = fresh_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-3:] == ["0", "[]", "True"]
