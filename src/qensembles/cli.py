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
import io
import json
import sys

from . import bounds as B
from . import serialize as ser
from .errors import EnergyRangeError, ValidationError
from .experiments import EXPERIMENTS, REPROS, ExperimentConfig
from .metrics import d0, d_ehs, d_kantorovich, dk_upper, kr_distance, kr_modified


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
    if args.name in ("kr", "krmod"):
        a = ser.point_measure_from_json(_load_json(args.a))
        b = ser.point_measure_from_json(_load_json(args.b))
        value = kr_distance(a, b) if args.name == "kr" else kr_modified(a, b)
        out = {"metric": args.name, "value": value}
    else:
        mu = ser.ensemble_from_json(_load_json(args.a))
        nu = ser.ensemble_from_json(_load_json(args.b))
        if args.name == "d0":
            out = {"metric": "d0", "value": d0(mu, nu)}
        elif args.name == "dk":
            sol = d_kantorovich(mu, nu)
            out = {"metric": "dk", "value": sol.value,
                   "upper_bound": dk_upper(mu, nu)}
        else:
            sol = d_ehs(mu, nu, tol=args.tol)
            out = {"metric": "dehs", "value": sol.value, "gap": sol.gap,
                   "iterations": sol.iterations}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_bound(args):
    params = dict(args.param or [])
    try:
        value = B.evaluate_tag(args.tag, params)
    except (ValidationError, EnergyRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"tag": args.tag, "value": value, "params": params},
                     sort_keys=True))
    return 0


def _config_from_args(args, name):
    cfg_data = {}
    if args.config:
        cfg_data = _load_json(args.config)
    if args.seed is not None:
        cfg_data["seed"] = args.seed
    if args.trials is not None:
        cfg_data["trials"] = args.trials
    cfg_data.setdefault("experiment", name)
    out_path = args.out or cfg_data.pop("output_path", None)
    known = {"seed", "trials", "dims", "tolerance", "experiment"}
    extra = cfg_data.pop("extra", {})
    extra.update({k: cfg_data.pop(k) for k in list(cfg_data) if k not in known})
    if "dims" in cfg_data:
        cfg_data["dims"] = tuple(cfg_data["dims"])
    return ExperimentConfig(output_path=out_path, extra=extra, **cfg_data)


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
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    summary = {
        "experiment": result.name,
        "records": len(result.records),
        "violations": len(result.violations),
    }
    print(json.dumps(summary, sort_keys=True))
    for rec in result.violations[:10]:
        print(f"VIOLATED {rec.report.tag}: lhs={rec.report.lhs} "
              f"rhs={rec.report.rhs} eps={rec.report.epsilon}", file=sys.stderr)
    return 0 if result.passed else 1


def _cmd_verify(args):
    fn = EXPERIMENTS[args.experiment]
    cfg = _config_from_args(args, args.experiment)
    return _emit(fn(cfg), args, cfg.output_path)


def _cmd_repro(args):
    fn = REPROS[args.name]
    cfg = _config_from_args(args, args.name)
    return _emit(fn(cfg), args, cfg.output_path)


def build_parser():
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
    p_verify.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_verify.set_defaults(fn=_cmd_verify)

    p_repro = sub.add_parser("repro", parents=[common],
                             help="reproduce a worked example")
    p_repro.add_argument("name", choices=sorted(REPROS))
    p_repro.set_defaults(fn=_cmd_repro)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
