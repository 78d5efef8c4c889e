"""The benchmark's workloads: which ``qensembles`` CLI commands one pass runs.

A pass runs every command of its workload once, in order, in-process through
``qensembles.cli.main``. Pass ``k`` of a run with seed ``s`` hands the CLI the
seed ``s * 1000 + k``, so the timed passes of one run cover distinct inputs
and the run's median averages over many of them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # CLI argv prefixes; --seed/--out/--format are appended
    trials: int | None = None


# Why each workload exists, and what it should and should not move: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-random",
            (("verify", "scb-rank"), ("verify", "scb-energy"), ("verify", "holevo")),
            trials=30,
        ),
        Workload(
            "repro-continuous",
            (("repro", "coherent"), ("repro", "gibbs-displaced")),
        ),
        Workload(
            "verify-light",
            (("verify", "steering"), ("verify", "lemmas")),
            trials=300,
        ),
    )
}

# Differs from every seed the acceptance and unit tests use.
DEFAULT_SEED = 7


def pass_seed(seed, k):
    """CLI seed of pass k in a run with the given benchmark seed."""
    return seed * 1000 + k


def command_argv(workload, command, seed, out_path):
    argv = list(command) + ["--seed", str(seed), "--out", str(out_path),
                            "--format", "json"]
    if workload.trials is not None:
        argv += ["--trials", str(workload.trials)]
    return argv
