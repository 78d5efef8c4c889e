"""Write perfbench/reference/<workload>.json from the current sources.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs pass 0 of each workload at the default seed, the pass that
``run.py --seed 7`` compares against the reference. Regenerate only when a
change to the program is meant to change its reports, and say so.
"""

import argparse
import sys

import run  # pins the BLAS/OpenMP threads before numpy loads
from checks import write_reference
from workloads import DEFAULT_SEED, WORKLOADS, pass_seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    import qensembles.cli as cli

    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        tally = run.Tally()
        cli_seed = pass_seed(DEFAULT_SEED, 0)
        _, reports = run.run_pass(cli, workload, cli_seed, tally)
        if tally.failed:
            print("\n".join(tally.notes), file=sys.stderr)
            return 1
        commands = [{"command": list(c), "trials": workload.trials, "exit_code": code,
                     "sha256": sha, "records": rows}
                    for c, (rows, sha, code) in zip(workload.commands, reports)]
        write_reference(name, DEFAULT_SEED, cli_seed, commands)
        print(f"{name}: {sum(len(c['records']) for c in commands)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
