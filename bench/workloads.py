"""Workloads: the problem configurations each one feeds the program.

Both workloads run both synthesis routes, the correctness gate and the
closed loop, because every end-to-end metric is measured on every workload.
The timed problems are the paper's, at a coarser input quantization, so
that one run can repeat the whole pipeline several times and report
medians: on a shared 2-core machine, a single 15 s route time spreads by
20-50% between runs.  The published linear example #1 is still synthesized
and checked against the paper's table, once per traced run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

# mu = 0.01: 201 inputs on linear #1 instead of 2,001 (one 256-row scan tile
# per cell instead of eight), 101 inputs on the nonlinear problem instead
# of 1,001
COARSE_MU = 0.01
# the nonlinear problem at 15 points per axis (3,375 cells) instead of 31
# (29,791); the published instance takes 92 s integrated and 138 s (1.39 GB)
# baseline on 2 cores
NONLINEAR_ETA = 1.0 / 15.0

# closed-loop runs per controller per round, sampling periods per run
LOOP_STARTS = 6
LOOP_STEPS = 20


@dataclass(frozen=True)
class Problem:
    key: str          # names the entry of expected.json
    config: str       # path of the configuration the program loads


@dataclass(frozen=True)
class Workload:
    timed: Problem
    # the published instance checked against the paper's table, if any
    published: Optional[Problem]


def _derived(root: str, out_dir: str, source: str, key: str,
             params: dict) -> Problem:
    with open(os.path.join(root, "configs", source), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["params"].update(params)
    path = os.path.join(out_dir, f"{key}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return Problem(key, path)


def workload(root: str, name: str, out_dir: str) -> Workload:
    """The problems of a workload; the seed only picks closed-loop start
    cells and probe inputs, so it does not enter here."""
    if name == "linear-pair":
        # linear example #1, the one the roadmap quotes; the examples differ
        # in cost (0.82M to 1.19M integrated steps), so a seed-picked example
        # would make the timings depend on the seed
        return Workload(
            _derived(root, out_dir, "linear_example_1.json",
                     "linear_example_1_mu010", {"mu": COARSE_MU}),
            Problem("linear_example_1",
                    os.path.join(root, "configs", "linear_example_1.json")))
    if name == "nonlinear-pair":
        return Workload(
            _derived(root, out_dir, "nonlinear_tracking.json",
                     "nonlinear_tracking_eta15_mu010",
                     {"eta": NONLINEAR_ETA, "mu": COARSE_MU}),
            None)
    raise KeyError(name)
