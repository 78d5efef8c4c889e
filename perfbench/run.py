"""Benchmark of the qensembles verification harness, driven through its CLI.

    python3 perfbench/run.py --workload verify-random --seed 7 --seconds 50 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` the run measures end-to-end metrics (set-up
time, seconds per pass at a reference host speed, peak memory). With ``--trace 1`` it wraps every
layer of the package and reports per-layer metrics. Every line but the last
is for people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory.
"""

import os

# BLAS/OpenMP pools are pinned to one thread before numpy loads: on a small
# shared machine default pools time the scheduler, not the program (README.md).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
from checks import compare_rows, load_reference, read_report  # noqa: E402
from tracer import EXACT_COUNTERS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, command_argv, pass_seed  # noqa: E402

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Checked items (records and d_ehs calls) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, count, note):
        self.failed += count
        if len(self.notes) < 50:
            self.notes.append(note)


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy
    import scipy

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def measure_setup():
    """Median wall seconds for a fresh interpreter to import qensembles.cli.

    Called after the in-process import, which has filled ``__pycache__``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import qensembles.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def run_pass(cli, workload, cli_seed, tally):
    """Run every command of the workload once; return (seconds, reports).

    reports[i] is (rows, sha256, exit code), or None when the command raised.
    Only the CLI calls are timed; reading the reports back is not.
    """
    seconds, reports = 0.0, []
    for i, command in enumerate(workload.commands):
        out_path = OUT_DIR / f"{workload.name}-{i}.json"
        argv = command_argv(workload, command, cli_seed, out_path)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:  # a failed command is counted, the run goes on
            tally.attempted += 1
            tally.fail(1, f"{' '.join(argv)} raised:\n{traceback.format_exc()}")
            reports.append(None)
            continue
        seconds += time.perf_counter() - t0
        rows, sha = read_report(out_path)
        reports.append((rows, sha, code))
    return seconds, reports


def check_pass(workload, reports, tally, same_as=None, reference=None):
    """Count each pass's records and the ones that failed a check.

    A record fails when it is violated, when it differs from the same record
    of an earlier pass on the same inputs (``same_as``; exact equality), or
    when it differs from the committed reference beyond its tolerance.
    Returns the number of commands whose report bytes equal the reference's.
    """
    identical = 0
    for i, rep in enumerate(reports):
        if rep is None:
            continue
        rows, sha, code = rep
        name = " ".join(workload.commands[i])
        tally.attempted += len(rows)
        bad = {j: "violated" for j, row in enumerate(rows) if row["holds"] is False}
        if code != (1 if bad else 0):
            tally.fail(1, f"{name}: exit code {code}")
        if same_as is not None and same_as[i] is not None and sha != same_as[i][1]:
            earlier = same_as[i][0]
            bad.update({j: "differs from an earlier pass on the same inputs"
                        for j in range(max(len(rows), len(earlier)))
                        if j >= min(len(rows), len(earlier)) or rows[j] != earlier[j]})
        if reference is not None:
            ref = reference["commands"][i]
            bad.update(compare_rows(rows, ref["records"]))
            if code != ref["exit_code"]:
                tally.fail(1, f"{name}: exit code {code}, reference {ref['exit_code']}")
            identical += sha == ref["sha256"]
        if bad:
            first = min(bad)
            tally.fail(len(bad), f"{name}: {len(bad)} failed records, first #{first}: "
                                 f"{bad[first]}")
    return identical


def check_gaps(tracer, tally):
    tally.attempted += len(tracer.dehs)
    for rounds, gap, tol in tracer.gap_failures():
        tally.fail(1, f"d_ehs gap {gap:.3e} above its tol {tol:.1e} after {rounds} rounds")


def _reference_for(workload, seed, tally):
    if seed != DEFAULT_SEED:
        return None
    try:
        return load_reference(workload.name)
    except OSError as exc:
        tally.attempted += 1
        tally.fail(1, f"reference for the default seed is unreadable: {exc}")
        return None


def check_pass_zero(cli, workload, seed, tally, tracer):
    """Untimed warm-up pass on the run's first inputs, with the full output check."""
    with tracer:
        _, reports = run_pass(cli, workload, pass_seed(seed, 0), tally)
    check_gaps(tracer, tally)
    reference = _reference_for(workload, seed, tally)
    identical = check_pass(workload, reports, tally, reference=reference)
    if reference is not None:
        print(f"reference: {identical} of {len(reports)} reports byte-identical "
              f"to perfbench/reference/{workload.name}.json")
    return reports


def end_to_end(cli, workload, seed, seconds, tally, setup):
    """Timed passes, each between two runs of the calibration kernel.

    run_s is the median pass's seconds at the reference host speed
    (calibrate.scale); the wall seconds are printed and kept in the result file.
    """
    check_pass_zero(cli, workload, seed, tally, Tracer(groups={"metrics.d_ehs"}))
    calibrate.kernel()  # warm-up
    kernel_times = [calibrate.kernel_seconds()]
    times = []
    start = time.perf_counter()
    k = 1
    while len(times) < MIN_TIMED_PASSES or time.perf_counter() - start < seconds:
        secs, reports = run_pass(cli, workload, pass_seed(seed, k), tally)
        kernel_times.append(calibrate.kernel_seconds())
        check_pass(workload, reports, tally)
        times.append(secs)
        k += 1
    scaled = calibrate.scale(times, kernel_times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = {"wall_s": times, "kernel_s": kernel_times, "scaled_s": scaled}
    for label, values in passes.items():
        q = statistics.quantiles(values, n=4)
        print(f"{label}: min {min(values):.4f} q1 {q[0]:.4f} median {q[1]:.4f} "
              f"q3 {q[2]:.4f} max {max(values):.4f}")
    print(f"passes: {len(times)} timed, each on distinct inputs")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup[1])}")
    return {"run_s": statistics.median(scaled), "setup_s": setup[0],
            "peak_rss_mb": peak_mb}, passes


def per_layer(cli, workload, seed, seconds, tally):
    """Alternate untraced and traced passes on one input set; return layer metrics."""
    tracer = Tracer()
    base = check_pass_zero(cli, workload, seed, tally, Tracer(groups={"metrics.d_ehs"}))
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PASSES
           or time.perf_counter() - start < seconds):
        secs, reports = run_pass(cli, workload, pass_seed(seed, 0), tally)
        check_pass(workload, reports, tally, same_as=base)
        plain.append(secs)

        tracer.reset()
        tracer.install()
        try:
            secs, reports = run_pass(cli, workload, pass_seed(seed, 0), tally)
        finally:
            left = tracer.uninstall()
        if left:
            tally.attempted += 1
            tally.fail(1, f"bindings still wrapped after the traced pass: {left[:5]}")
        check_pass(workload, reports, tally, same_as=base)
        check_gaps(tracer, tally)
        traced.append(secs)
        summaries.append(tracer.summarize())

    for name in EXACT_COUNTERS:
        values = {s[name] for s in summaries}
        tally.attempted += 1
        if len(values) != 1:
            tally.fail(1, f"{name} differs between traced passes of one seed: {sorted(values)}")

    metrics = {}
    for name in summaries[0]:
        timed = name.endswith("_s") or "_ms_" in name
        metrics[name] = (statistics.median(s[name] for s in summaries) if timed
                         else summaries[0][name])
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    tracer.save(OUT_DIR / f"spans-{workload.name}-s{seed}.npz")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced, all on CLI seed "
          f"{pass_seed(seed, 0)}; spans of the last traced pass in "
          f".perfbench_out/spans-{workload.name}-s{seed}.npz")
    return metrics, {"untraced": plain, "traced": traced}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("overhead", "per_kernel")):
        return "ratio"
    if name.endswith("gap_max"):
        return "dist"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qensembles" / "cli.py").is_file():
        print(f"error: no qensembles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    tally = Tally()

    t0 = time.perf_counter()
    import qensembles.cli as cli
    import_s = time.perf_counter() - t0
    setup = measure_setup() if not args.trace else None

    env = environment()
    print(f"workload {workload.name}: {', '.join(' '.join(c) for c in workload.commands)}"
          + (f" (--trials {workload.trials})" if workload.trials else ""))
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"in-process import of qensembles.cli: {import_s:.4f} s")

    if args.trace:
        values, passes = per_layer(cli, workload, args.seed, args.seconds, tally)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values, passes = end_to_end(cli, workload, args.seed, args.seconds, tally, setup)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_ratio {ratio:.6g} ({tally.failed} of {tally.attempted} checked items)")
    for note in tally.notes:
        print(f"FAILED {note}")

    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  environment=env, pass_seconds=passes, notes=tally.notes)
    out = OUT_DIR / f"result-{workload.name}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
