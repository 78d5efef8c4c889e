"""Command-line surface.

Subcommands:
  metric  d0|dk|dehs|kr|krmod   distances between JSON ensembles / measures
  bound   <tag>                 evaluate a tagged bound with --param k=v
  verify  <experiment>          run a randomized verification experiment
  repro   <name>                reproduce a worked table or example

Exit code is 0 iff no bound record was violated, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import bounds as B
from . import serialize as ser
from .errors import EnergyRangeError, ValidationError
from .experiments import EXPERIMENTS, REPROS, ExperimentConfig
from .metrics import d0, d_ehs, d_kantorovich, dk_upper, kr_distance, kr_modified


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from None


def _usage_error(exc):
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _parse_param(text):
    key, _, raw = text.partition("=")
    if not key or raw == "":
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _cmd_metric(args):
    try:
        out = _metric(args)
    except ValidationError as exc:
        return _usage_error(exc)
    print(json.dumps(out, sort_keys=True))
    return 0


def _metric(args):
    if args.name in ("kr", "krmod"):
        a = ser.point_measure_from_json(_load_json(args.a))
        b = ser.point_measure_from_json(_load_json(args.b))
        value = kr_distance(a, b) if args.name == "kr" else kr_modified(a, b)
        return {"metric": args.name, "value": value}
    mu = ser.ensemble_from_json(_load_json(args.a))
    nu = ser.ensemble_from_json(_load_json(args.b))
    if args.name == "d0":
        return {"metric": "d0", "value": d0(mu, nu)}
    if args.name == "dk":
        return {"metric": "dk", "value": d_kantorovich(mu, nu).value,
                "upper_bound": dk_upper(mu, nu)}
    if not args.tol > 0.0:  # also rejects NaN
        raise ValidationError(f"--tol must be positive, got {args.tol}")
    sol = d_ehs(mu, nu, tol=args.tol)
    return {"metric": "dehs", "value": sol.value, "gap": sol.gap,
            "iterations": sol.iterations}


def _cmd_bound(args):
    params = dict(args.param or [])
    try:
        value = B.evaluate_tag(args.tag, params)
    except (ValidationError, EnergyRangeError) as exc:
        return _usage_error(exc)
    print(json.dumps({"tag": args.tag, "value": value, "params": params},
                     sort_keys=True))
    return 0


CONFIG_KEYS = ("seed", "trials", "dims", "output_path")


def _config_from_args(args):
    """(ExperimentConfig, report path or None) from --config, then --seed,
    --trials and --out, which override the file's values."""
    data = _load_json(args.config) if args.config else {}
    if not isinstance(data, dict):
        raise ValidationError(f"config file must hold a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"unknown config key {unknown[0]!r}; "
                              f"expected one of {', '.join(CONFIG_KEYS)}")
    out_path = data.pop("output_path", None)
    if out_path is not None and not isinstance(out_path, str):
        raise ValidationError(f"output_path must be a string, got {out_path!r}")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    out_path = args.out or out_path
    if out_path and not os.access(os.path.dirname(os.path.abspath(out_path)), os.W_OK):
        raise ValidationError(f"cannot write the report to {out_path}: no writable directory")
    return ExperimentConfig(**data), out_path


def _table_csv(rows):
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(result, args, out_path):
    if args.format == "csv":
        payload = ser.reports_to_csv(result.records)
        for name, rows in result.tables.items():
            payload += f"# table: {name}\n" + _table_csv(rows)
    else:
        payload = ser.reports_to_json(result.records)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            return _usage_error(f"cannot write the report to {out_path}: {exc}")
    summary = {
        "experiment": result.name,
        "records": len(result.records),
        "violations": len(result.violations),
    }
    print(json.dumps(summary, sort_keys=True))
    for rep in result.violations[:10]:
        print(f"VIOLATED {rep.tag}: lhs={rep.lhs} rhs={rep.rhs} eps={rep.epsilon}",
              file=sys.stderr)
    return 0 if result.passed else 1


def _cmd_run(args):
    try:
        cfg, out_path = _config_from_args(args)
    except ValidationError as exc:
        return _usage_error(exc)
    return _emit(args.runs[args.name](cfg), args, out_path)


@functools.cache
def build_parser():
    """The CLI parser, built once per process: parsing leaves it unchanged,
    and every parse starts from fresh defaults (--param's list included)."""
    parser = argparse.ArgumentParser(
        prog="qensembles",
        description="Ensemble metrics, entropy bounds, and their verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_metric = sub.add_parser("metric", help="compute a distance between two inputs")
    p_metric.add_argument("name", choices=("d0", "dk", "dehs", "kr", "krmod"))
    p_metric.add_argument("--a", required=True, help="path to first JSON input")
    p_metric.add_argument("--b", required=True, help="path to second JSON input")
    p_metric.add_argument("--tol", type=float, default=1e-6,
                          help="certified gap for dehs")
    p_metric.set_defaults(fn=_cmd_metric)

    p_bound = sub.add_parser("bound", help="evaluate a tagged bound")
    p_bound.add_argument("tag", choices=sorted(B.BOUNDS))
    p_bound.add_argument("--param", action="append", type=_parse_param,
                         metavar="KEY=VALUE")
    p_bound.set_defaults(fn=_cmd_bound)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--trials", type=int)
    common.add_argument("--out", help="write the full report here")
    common.add_argument("--format", choices=("csv", "json"), default="json")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification experiment")
    p_verify.add_argument("name", choices=sorted(EXPERIMENTS))
    p_verify.set_defaults(fn=_cmd_run, runs=EXPERIMENTS)

    p_repro = sub.add_parser("repro", parents=[common],
                             help="reproduce a worked example")
    p_repro.add_argument("name", choices=sorted(REPROS))
    p_repro.set_defaults(fn=_cmd_run, runs=REPROS)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
