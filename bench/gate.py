"""Correctness gate: every check is one attempted operation, and every
mismatch or exception is one failure.  Nothing is skipped silently.

Reference values come from two places.  PUBLISHED is the paper's table
for linear example #1 (the same numbers as LINEAR_EXPECTED in the test
suite, copied so that the benchmark does not import tests).
expected.json holds what the reference commit computed for the problem of
each workload: all counters and a digest of each controller's transition
rows, so a later change passes only if its controllers stay bit for bit
the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import List

import numpy as np

# the paper's table for the published instances the benchmark synthesizes:
# (integrated states, bad states, integrated memory, Nb states,
#  Nb transitions)
PUBLISHED = {
    "linear_example_1": (239, 490, 1207, 403, 5719),
}

COUNTERS = ("states", "transitions", "bad", "memory_units", "steps")


def digest(rows) -> str:
    """sha256 of a controller's transition rows as little-endian int64."""
    data = np.ascontiguousarray(np.asarray(rows, dtype="<i8").reshape(-1, 3))
    return hashlib.sha256(data.tobytes()).hexdigest()


def load_expected() -> dict:
    """Reference counters and digests, keyed by problem and route."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
            print(f"gate FAIL {name} {detail}", file=sys.stderr)

    def fail(self, name: str, exc: BaseException) -> None:
        self.check(name, False, f"{type(exc).__name__}: {exc}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    def counters(self, key: str, route: str, got: dict, expected: dict) -> None:
        """Reference counters and digest of one route, and the paper's table
        where the problem is a published instance."""
        ref = expected[key][route]
        for name in COUNTERS:
            self.check(f"{key}.{route}.{name}", got["metrics"][name] == ref[name],
                       f"got {got['metrics'][name]}, reference {ref[name]}")
        self.check(f"{key}.{route}.digest", got["digest"] == ref["digest"],
                   "controller rows differ from the reference")
        if key in PUBLISHED:
            pub = PUBLISHED[key]
            m = got["metrics"]
            if route == "integrated":
                pairs = (("states", m["states"], pub[0]),
                         ("bad", m["bad"], pub[1]),
                         ("memory_units", m["memory_units"], pub[2]))
            else:
                pairs = (("states", m["states"], pub[3]),
                         ("transitions", m["transitions"], pub[4]))
            for name, value, want in pairs:
                self.check(f"{key}.{route}.published.{name}", value == want,
                           f"got {value}, paper {want}")

    def independent(self, label: str, ctrl, plant, spec, params,
                    substeps: int, flow_many) -> None:
        """Check a controller without the other route: re-flow every row
        (x, u, y), require both the plant and the specification endpoints
        to quantize to y, and require every target and every initial to be
        a source."""
        t = ctrl.transitions
        lattice = ctrl.state_lattice
        X = lattice.points()[t[:, 0]]
        Zp = flow_many(plant, X, ctrl.input_values()[t[:, 1]], params.tau,
                       substeps, check_finite=False)
        Zq = flow_many(spec, X, np.zeros((t.shape[0], spec.m)), params.tau,
                       substeps, check_finite=False)
        bad_p = int(np.count_nonzero(lattice.quantize_many(Zp) != t[:, 2]))
        bad_q = int(np.count_nonzero(lattice.quantize_many(Zq) != t[:, 2]))
        self.check(f"{label}.reflow.plant", bad_p == 0,
                   f"{bad_p} of {t.shape[0]} rows land elsewhere")
        self.check(f"{label}.reflow.spec", bad_q == 0,
                   f"{bad_q} of {t.shape[0]} rows land elsewhere")
        sources = np.unique(t[:, 0])
        self.check(f"{label}.targets_are_sources",
                   bool(np.all(np.isin(t[:, 2], sources))))
        self.check(f"{label}.initials_are_sources",
                   ctrl.initials.size > 0
                   and bool(np.all(np.isin(ctrl.initials, sources))))

