"""Seeded job specs for the benchmark workloads (stdlib only).

Every spec is a copy of one of the repository's golden job files in
``examples/jobs/`` with a few *values* redrawn from the workload seed:
bit pattern, characteristic impedance and load.  Sizes never change —
pattern length, duration, ``delay``, ``dt``, cell counts and Monte Carlo
sample counts stay fixed — so runs with different seeds do the same
amount of work and their timings are comparable.
"""

from __future__ import annotations

import copy
import json
import os
import random

#: the four golden single-run jobs one ``cli_jobs`` pass covers, in order
CLI_JOBS = ("rbf_link", "fdtd1d_link", "sparse_ladder", "validation_line_3d")

#: the job a ``cli_jobs`` pass requests again, and how many times
CLI_REPEAT = "rbf_link"
CLI_REPEATS = 2

#: Monte Carlo sizes of ``mc_sweep``: the golden spec's distributions,
#: duration and eye settings with 8 + 4 scenarios in 4 corner groups
#: (the golden 64 + 2 x 8 takes ~9 s a job, too few jobs per run), run
#: single-process as the golden ``workers=2`` is the sharded diagnostic.
MC_SIZES = {"samples": 8, "corner_groups": 4, "refine_rounds": 1, "refine_samples": 4}


def golden(root: str, name: str) -> dict:
    with open(os.path.join(root, "examples", "jobs", f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *key)))


def link_variant(base: dict, seed: int, *key) -> dict:
    """A golden single-run spec with seed-drawn pattern, ``z0`` and load."""
    rng = _rng(seed, *key)
    spec = copy.deepcopy(base)
    # The pattern starts low, as in every golden job, and switches at least
    # once.  A pattern that starts high fails to converge at the first
    # step on the RBF circuit link (NonConvergenceError, a program defect
    # described in README.md), and a job that always fails measures nothing.
    bits = len(spec["stimulus"]["bit_pattern"])
    pattern = "0" * bits
    while "1" not in pattern:
        pattern = "0" + "".join(rng.choice("01") for _ in range(bits - 1))
    spec["stimulus"]["bit_pattern"] = pattern
    spec["link"]["z0"] = round(rng.uniform(118.0, 144.0), 3)
    spec["link"]["load_resistance"] = round(rng.uniform(400.0, 600.0), 3)
    spec["link"]["load_capacitance"] = round(rng.uniform(0.8, 1.2), 4) * 1e-12
    return spec


def cli_pass(goldens: dict, seed: int, index: int) -> list:
    """``[(job name, spec)]`` of pass ``index``: four cold jobs, then the
    repeats of its ``CLI_REPEAT`` job."""
    jobs = [(name, link_variant(goldens[name], seed, "cli", index, name)) for name in CLI_JOBS]
    repeat = jobs[CLI_JOBS.index(CLI_REPEAT)][1]
    return jobs + [(f"{CLI_REPEAT}:repeat", repeat)] * CLI_REPEATS


def mc_spec(base: dict, seed: int, index: int) -> dict:
    """The ``mc_sweep`` spec of job ``index``: a seed-drawn ``stats.seed``."""
    spec = copy.deepcopy(base)
    spec["engine"]["workers"] = 1
    spec["stats"].update(MC_SIZES)
    spec["stats"]["seed"] = _rng(seed, "mc", index).randrange(2**31)
    return spec


def service_cold(base: dict, seed: int, index: int) -> dict:
    """Cold ``service_mix`` job ``index``: a seed-drawn ``rbf_link`` variant."""
    return link_variant(base, seed, "service", index)


def plan_order(seed: int, kind: str, count: int, repeats_per_cold: int) -> list:
    """``[(is_repeat, cold index)]``: cold jobs in order, each followed by
    ``repeats_per_cold`` repeats of seed-chosen cold jobs already done."""
    rng = _rng(seed, kind, "order")
    order = []
    for cold in range(count):
        order.append((False, cold))
        order.extend((True, rng.randrange(cold + 1)) for _ in range(repeats_per_cold))
    return order
