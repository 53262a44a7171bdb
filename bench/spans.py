"""In-memory span recorder and the wrappers the benchmark installs around
symctrl's module-level names.

A span is (id, parent id, name, thread id, start, end, rows).  Spans are
kept in a list and written out once, when the process is done.  A span
opened on a thread with no open span of its own (a worker of the
abstraction's thread pool) takes as parent the innermost open span of the
main thread, which is the call waiting on that pool.

Times come from time.perf_counter, which on Linux reads CLOCK_MONOTONIC, so
spans written by different processes of one run share a time base.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

FIELDS = ("id", "parent", "name", "thread", "start", "end", "rows")


class Tracer:
    def __init__(self, process: str):
        self.process = process
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main_ident = threading.get_ident()
        # installed wrappers record spans only while enabled
        self.enabled = True

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rows: int = 0):
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": f"{self.process}:{sid}",
                               "parent": (f"{self.process}:{parent}"
                                          if parent is not None else None),
                               "name": name, "thread": threading.get_ident(),
                               "start": start, "end": end, "rows": rows})

    def wrap(self, owner, attr: str, name: str, rows_arg: Optional[int] = None):
        """Replace owner.attr by a wrapper recording one span per call;
        rows_arg names the positional argument whose length is the row
        count of the call."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            rows = len(args[rows_arg]) if rows_arg is not None else 0
            with self.span(name, rows):
                return inner(*args, **kwargs)

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the names the synthesis routes, the closed loop and the CLI file
    functions call, at the module where the caller looks them up."""
    from symctrl import abstraction, cli, loop, quantize, synthesis, tsys

    tracer.wrap(synthesis, "build_abstraction", "abstraction.build")
    tracer.wrap(synthesis, "compose", "tsys.compose")
    tracer.wrap(synthesis, "nonblocking_part", "tsys.nonblocking")
    tracer.wrap(synthesis, "controller_to_system", "tsys.controller_to_system")
    tracer.wrap(tsys, "check_bisimulation", "tsys.bisim")
    tracer.wrap(quantize.Lattice, "quantize_many", "quantize.quantize_many",
                rows_arg=1)
    # _flow_tile is private, but it is the only dynamics boundary the
    # integrated route crosses; each route imports its own reference
    tracer.wrap(synthesis, "_flow_tile", "dynamics.integrated", rows_arg=1)
    tracer.wrap(abstraction, "_flow_tile", "dynamics.baseline", rows_arg=1)
    tracer.wrap(loop, "flow_many", "dynamics.loop", rows_arg=1)
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "write_controller_file", "cli.write_controller")
    tracer.wrap(cli, "read_controller_file", "cli.read_controller")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans: List[dict]):
        self.spans = spans
        self.by_id: Dict[str, dict] = {s["id"]: s for s in spans}
        self.children: Dict[str, List[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def under(self, name: str, ancestor: str) -> List[dict]:
        """Spans called `name` with some ancestor called `ancestor`."""
        out = []
        for s in self.named(name):
            p = self.by_id.get(s["parent"])
            while p is not None and p["name"] != ancestor:
                p = self.by_id.get(p["parent"])
            if p is not None:
                out.append(s)
        return out

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in self.children.get(span["id"], ())]
        return (span["end"] - span["start"]) - union_length(
            [k for k in kids if k[1] > k[0]])


def busy(spans: List[dict]) -> float:
    """Summed span durations; exceeds wall time when spans overlap on
    several threads."""
    return sum(s["end"] - s["start"] for s in spans)
