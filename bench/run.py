"""symctrl benchmark: synthesis routes, correctness gate and closed loop.

    python3 bench/run.py --workload linear-pair --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  A run repeats rounds of the workload's pipeline for
--seconds (at least MIN_ROUNDS) and reports the median of each metric over
its rounds.  One round is:

  routes     the integrated route, then the baseline route, each in a
             process of its own, which writes its controller file the way
             `symctrl synthesize --out` does
  gate       counters and digests against the reference, both controller
             files read back as `symctrl simulate` does, exact bisimulation
             of the two controllers, and a re-flow check of the integrated one
  loop       simulate_closed_loop for 20 sampling periods from seed-sampled
             initial cells of each controller, judged at epsilon

followed by three set-up samples: a fresh interpreter that imports
symctrl, loads the config and compiles both fields.  Every stage time but
set-up is calibrated by samples of a reference kernel taken around it
(speed.py); the wall-time medians are printed on the line before the result.

--trace 1 runs an untraced and a traced round, probes per-layer rates,
synthesizes the published linear example #1 and checks it against the
paper's table, and prints the per-layer metrics.  The spans go to
.bench_out/trace-<workload>-seed<seed>.json.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# a run must end within 180 s; child processes are killed past this point
DEADLINE_S = 170.0
MIN_ROUNDS = 3
MAX_ROUNDS = 12
INITIAL_SETUP_SAMPLES = 3
SETUP_SAMPLES_PER_ROUND = 3
# route calls per process: one, except in the untraced rounds, where the
# integrated route, the noisiest stage and the cheaper route, is timed twice
ONE_CALL = {"integrated": 1, "baseline": 1}
TIMED_CALLS = {"integrated": 2, "baseline": 1}
# probe tile sizes: one closed-loop row, one integrated scan tile, an
# L2-sized tile, and a tile near the abstraction's 2M-row chunk
PROBE_TILES = (1, 256, 32768, 262144)
PROBE_MIN_S = 0.5


class RunError(RuntimeError):
    """The run cannot produce its metrics (a child failed or timed out)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int) -> dict:
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=5).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            out = ""
        caches[name.lower()] = int(out) if out.isdigit() else None
    return {"seed": seed, "nproc": nproc(),
            "symctrl_threads": os.environ.get("SYMCTRL_THREADS"),
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "caches_bytes": caches}


class Run:
    """State of one benchmark run: the workload's problems, the scratch
    directory, the gate, the seeded generator and the clock."""

    def __init__(self, workload: str, seed: int, tmp: str):
        from symctrl import cli
        self.t0 = time.perf_counter()
        self.seed = seed
        self.tmp = tmp
        self.workload = workloads.workload(ROOT, workload, tmp)
        self.problem = self.workload.timed
        self.cfg = cli.load_config(self.problem.config)
        self.expected = gate.load_expected()
        self.gate = gate.Gate()
        self.rng = np.random.default_rng(seed)
        self.setup_samples = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def child(self, args, result: str) -> dict:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py")] + args,
                stdout=subprocess.DEVNULL,
                timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise RunError(f"worker {args[0]} exceeded the run deadline")
        if proc.returncode != 0:
            raise RunError(f"worker {args[0]} exited with {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        out["started"] = start
        out["process_s"] = time.perf_counter() - start
        return out

    def setup_sample(self) -> None:
        result = os.path.join(self.tmp, "setup.json")
        out = self.child(["setup", self.problem.config, result], result)
        self.setup_samples.append((out["ready_at"] - out["started"],
                                   out["load_config_s"]))

    def route(self, problem, name: str, traced: bool, calls: int) -> dict:
        result = os.path.join(self.tmp, f"{name}.json")
        ctrl_file = os.path.join(self.tmp, f"{name}.ctrl")
        out = self.child([name, problem.config, result, ctrl_file,
                          "1" if traced else "0", str(calls)], result)
        out["controller_file"] = ctrl_file
        return out


def closed_loop(run: Run, ctrls: dict, tracer) -> dict:
    """Closed-loop runs from seed-sampled initial cells: single-option cells
    of the integrated controller, relational (several-option) cells of the
    baseline controller where it has any.  Each run (simulation and
    conformance report) is timed, and `row` reference samples are taken
    between the runs, so that every run is bracketed by two."""
    from symctrl import loop
    cfg = run.cfg
    deviations, walls, samples = [], [], [speed.sample("row")]
    for label in ("integrated", "baseline"):
        ctrl = ctrls[label]
        src, count = np.unique(ctrl.transitions[:, 0], return_counts=True)
        pool = np.intersect1d(src[count == 1] if label == "integrated"
                              else src[count > 1], ctrl.initials)
        if pool.size == 0:
            pool = ctrl.initials
        picks = run.rng.choice(pool, replace=False,
                               size=min(workloads.LOOP_STARTS, pool.size))
        for q in picks:
            x0 = ctrl.state_lattice.point(int(q))
            name = f"{run.problem.key}.loop.{label}.{int(q)}"
            t0 = time.perf_counter()
            try:
                with (tracer.span("loop.run") if tracer is not None
                      else contextlib.nullcontext()):
                    trace = loop.simulate_closed_loop(
                        cfg.plant, cfg.specification, ctrl, x0,
                        workloads.LOOP_STEPS, cfg.params, cfg.substeps)
                report = loop.conformance_report(trace, cfg.params.epsilon)
            except Exception as exc:  # any exception is a failed run
                run.gate.fail(name, exc)
                continue
            finally:
                walls.append(time.perf_counter() - t0)
                samples.append(speed.sample("row"))
            deviations.append(report.max_deviation)
            run.gate.check(name, report.passed, report.describe())
    return {"deviations": deviations, "walls": walls, "samples": samples}


def synthesize(run: Run, problem, traced: bool, calls=ONE_CALL) -> dict:
    """Both routes on one problem, each in its own process."""
    routes = {}
    for name in ("integrated", "baseline"):
        routes[name] = run.route(problem, name, traced, calls[name])
        run.gate.check(f"{problem.key}.{name}.synthesis", True)
    return routes


def check(run: Run, problem, routes: dict) -> dict:
    """The reference counters and digests, both controller files read back,
    and exact bisimulation; returns the controllers read back."""
    from symctrl import cli, synthesis, tsys
    for name, out in routes.items():
        run.gate.counters(problem.key, name, out, run.expected)
    ctrls = {}
    for name, out in routes.items():
        ctrls[name] = cli.read_controller_file(out["controller_file"])
        run.gate.check(f"{problem.key}.{name}.file_round_trip",
                       gate.digest(ctrls[name].transitions) == out["digest"],
                       "rows read back differ")
    try:
        relation = tsys.check_bisimulation(
            synthesis.controller_to_system(ctrls["integrated"]),
            synthesis.controller_to_system(ctrls["baseline"]), 0.0)
        run.gate.check(f"{problem.key}.bisimilar", relation is not None,
                       "controllers are not exactly bisimilar")
    except Exception as exc:  # any exception is a failed check
        run.gate.fail(f"{problem.key}.bisimilar", exc)
    return ctrls


def run_round(run: Run, tracer=None) -> dict:
    """One round of the pipeline on the timed problem; stage times are
    wall times (see stage_times())."""
    from symctrl import dynamics
    cfg = run.cfg
    routes = synthesize(run, run.problem, tracer is not None,
                        ONE_CALL if tracer is not None else TIMED_CALLS)
    t_gate = time.perf_counter()
    ctrls = check(run, run.problem, routes)
    try:
        run.gate.independent(f"{run.problem.key}.integrated",
                             ctrls["integrated"], cfg.plant, cfg.specification,
                             cfg.params, cfg.substeps, dynamics.flow_many)
    except Exception as exc:  # any exception is a failed check
        run.gate.fail(f"{run.problem.key}.integrated.independent", exc)
    checks_s = time.perf_counter() - t_gate
    loop_runs = closed_loop(run, ctrls, tracer)
    out = {"routes": routes, "checks_s": checks_s, "loop": loop_runs,
           "deviations": loop_runs["deviations"],
           "controller_bytes": sum(os.path.getsize(r["controller_file"])
                                   for r in routes.values())}
    if tracer is not None:
        out["spans"] = (tracer.spans + routes["integrated"]["spans"]
                        + routes["baseline"]["spans"])
        tracer.spans = []
    for _ in range(SETUP_SAMPLES_PER_ROUND):
        run.setup_sample()
    return out


def stage_times(rnd: dict, cal: bool) -> dict:
    """A round's stage times, as lists (a route called twice gives two):
    wall times, or, with cal, each calibrated by the reference samples that
    bracket it (speed.py)."""
    def time_of(wall, before, after, shape):
        return speed.calibrate(wall, before, after, shape) if cal else wall
    out = {}
    # the whole round: both route processes (start-up, set-up, the first
    # call, controller-file write; not the reference samples or the extra
    # calls), the checks, which the first loop sample follows, and the
    # closed loop
    total = 0.0
    for name, r in rnd["routes"].items():
        shape, smp = speed.ROUTE_SHAPE[name], r["speed"]
        out[f"{name}_s"] = [time_of(w, smp[i], smp[i + 1], shape)
                            for i, w in enumerate(r["route_s"])]
        total += time_of(r["process_s"] - sum(smp) - sum(r["route_s"][1:]),
                         smp[0], smp[1], shape)
    loop_runs = rnd["loop"]
    smp = loop_runs["samples"]
    out["closed_loop_s"] = [sum(time_of(w, smp[i], smp[i + 1], "row")
                                for i, w in enumerate(loop_runs["walls"]))]
    total += (time_of(rnd["checks_s"], smp[0], smp[0], "row")
              + out["closed_loop_s"][0])
    out["total_s"] = [total]
    return out


def end_to_end(run: Run, rounds: list, cal: bool = True) -> dict:
    """Medians over the rounds, of calibrated or of wall times."""
    times = [stage_times(r, cal) for r in rounds]
    out = {t: statistics.median(v for c in times for v in c[t])
           for t in times[0]}
    # set-up is a fresh interpreter importing and compiling: no reference
    # shape tracked it better than its own median over many samples
    out["setup_s"] = statistics.median(s for s, _ in run.setup_samples)

    def med(get):
        return statistics.median(get(r) for r in rounds)
    out.update({
        "integrated_peak_rss_mb":
            med(lambda r: r["routes"]["integrated"]["peak_rss_mb"]),
        "baseline_peak_rss_mb":
            med(lambda r: r["routes"]["baseline"]["peak_rss_mb"])})
    return out


def rate(fn, rows: int) -> float:
    """Rows per second of fn over at least PROBE_MIN_S seconds."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= PROBE_MIN_S:
            return rows * reps / elapsed


def layer_probes(run: Run) -> dict:
    """Per-layer rates on the workload's own plant, single-threaded."""
    from symctrl import dynamics
    from symctrl.quantize import Lattice
    cfg = run.cfg
    plant, params = cfg.plant, cfg.params
    n_rows = max(max(PROBE_TILES), 4096)
    box = plant.state_box
    X = box[:, 0] + (box[:, 1] - box[:, 0]) * run.rng.random((n_rows, plant.n))
    u_pts = Lattice(plant.input_box, 2.0 * params.mu).points()
    U = u_pts[run.rng.integers(0, u_pts.shape[0], n_rows)]
    out = {}
    funcs = plant.compiled_field
    xcols = [np.ascontiguousarray(X[:4096, i]) for i in range(plant.n)]
    ucols = [np.ascontiguousarray(U[:4096, i]) for i in range(plant.m)]
    out["expr.field_evals_per_s"] = rate(
        lambda: [f(xcols, ucols) for f in funcs], 4096)
    for tile in PROBE_TILES:
        Xt, Ut = X[:tile], U[:tile]
        out[f"dynamics.rows_per_s.tile-{tile}"] = rate(
            lambda: dynamics.flow_many(plant, Xt, Ut, params.tau,
                                       cfg.substeps, threads=1,
                                       check_finite=False), tile)
    lattice = Lattice(plant.state_box, 2.0 * params.eta)
    Z = X[:256]
    out["quantize.rows_per_s.tile-256"] = rate(
        lambda: lattice.quantize_many(Z), 256)
    return out


def round_layers(run: Run, rnd: dict) -> dict:
    """Per-layer metrics of one traced round."""
    idx = spans.SpanIndex(rnd["spans"])
    r = rnd["routes"]
    sysc = r["baseline"]["systems"]
    mi, mb = r["integrated"]["metrics"], r["baseline"]["metrics"]
    (s_int,) = idx.named("synthesis.integrated")
    (s_base,) = idx.named("synthesis.baseline")
    dyn_i = idx.named("dynamics.integrated")
    dyn_b = idx.named("dynamics.baseline")
    dyn_l = idx.named("dynamics.loop")
    quant_i = idx.under("quantize.quantize_many", "synthesis.integrated")
    build_s = spans.busy(idx.named("abstraction.build"))
    loop_runs = idx.named("loop.run")
    loop_ms = [(s["end"] - s["start"]) * 1e3 for s in loop_runs]
    periods = len(loop_runs) * workloads.LOOP_STEPS
    visited = mi["states"] + mi["bad"]
    return {
        "dynamics.loop.calls": len(dyn_l),
        "dynamics.loop.busy_s": spans.busy(dyn_l),
        "dynamics.integrated.calls": len(dyn_i),
        "dynamics.integrated.rows": sum(s["rows"] for s in dyn_i),
        "dynamics.integrated.busy_s": spans.busy(dyn_i),
        "dynamics.baseline.calls": len(dyn_b),
        "dynamics.baseline.rows": sum(s["rows"] for s in dyn_b),
        "dynamics.baseline.busy_s": spans.busy(dyn_b),
        "quantize.integrated.calls": len(quant_i),
        "quantize.integrated.busy_s": spans.busy(quant_i),
        "quantize.baseline.busy_s": spans.busy(
            idx.under("quantize.quantize_many", "synthesis.baseline")),
        "abstraction.build_s": build_s,
        "abstraction.pairs_per_s": (sysc["plant_states"] * sysc["plant_inputs"]
                                    + sysc["spec_states"]) / build_s,
        "abstraction.plant_transitions": sysc["plant_transitions"],
        # int32 (source, input, target) rows of both models, from counts
        "abstraction.transitions_mb_computed":
            (sysc["plant_transitions"] + sysc["spec_transitions"]) * 12 / 2**20,
        "tsys.compose_s": spans.busy(idx.named("tsys.compose")),
        "tsys.compose_transitions": sysc["composed_transitions"],
        "tsys.nonblocking_s": spans.busy(idx.named("tsys.nonblocking")),
        "tsys.nonblocking_removed_states":
            sysc["composed_states"] - sysc["nonblocking_states"],
        "tsys.bisim_s": spans.busy(idx.named("tsys.bisim")),
        "tsys.controller_to_system_s":
            spans.busy(idx.named("tsys.controller_to_system")),
        "synthesis.integrated.self_s": idx.self_time(s_int),
        "synthesis.integrated.cells_visited": visited,
        "synthesis.integrated.controlled_ratio": mi["states"] / visited,
        "synthesis.integrated.us_per_step":
            spans.busy([s_int]) / mi["steps"] * 1e6,
        "synthesis.integrated.steps": mi["steps"],
        "synthesis.integrated.memory_units": mi["memory_units"],
        "synthesis.baseline.self_s": idx.self_time(s_base),
        "synthesis.baseline.us_per_step":
            spans.busy([s_base]) / mb["steps"] * 1e6,
        "synthesis.baseline.steps": mb["steps"],
        "synthesis.baseline.memory_units": mb["memory_units"],
        "loop.runs": len(loop_runs),
        "loop.steps_per_s": periods / spans.busy(loop_runs),
        "loop.run_ms_p50": float(np.percentile(loop_ms, 50)),
        "loop.run_ms_p90": float(np.percentile(loop_ms, 90)),
        "loop.flow_calls_per_step": len(dyn_l) / periods,
        "loop.worst_deviation_ratio":
            max(rnd["deviations"]) / run.cfg.params.epsilon,
        "cli.controller_write_s":
            spans.busy(idx.named("cli.write_controller")),
        "cli.controller_read_s": spans.busy(idx.named("cli.read_controller")),
        "cli.controller_kb": rnd["controller_bytes"] / 1024.0,
    }


def coverage(rnd: dict) -> dict:
    """How each route span of a traced round splits into child spans and
    self time."""
    idx = spans.SpanIndex(rnd["spans"])
    out = {}
    for name in ("synthesis.integrated", "synthesis.baseline"):
        (s,) = idx.named(name)
        kids = idx.children.get(s["id"], [])
        out[name] = {
            "span_s": s["end"] - s["start"],
            "self_s": idx.self_time(s),
            "children_busy_s": {k: spans.busy([c for c in kids
                                               if c["name"] == k])
                                for k in sorted({c["name"] for c in kids})},
        }
    return out


def traced_run(run: Run, env: dict, out_dir: str, workload: str) -> dict:
    """One untraced and one traced round, the per-layer probes, and the
    published instance; returns the per-layer metrics."""
    tracer = spans.Tracer("main")
    spans.install(tracer)
    tracer.enabled = False
    untraced = run_round(run)
    tracer.enabled = True
    traced = run_round(run, tracer)
    tracer.enabled = False
    values = round_layers(run, traced)
    values["trace.overhead_ratio"] = (
        stage_times(traced, True)["total_s"][0]
        / stage_times(untraced, True)["total_s"][0] - 1.0)
    values["cli.load_config_s"] = statistics.median(
        ld for _, ld in run.setup_samples)
    values.update(layer_probes(run))
    # the published instance, held to the paper's table, the reference
    # counters and digests, and exact bisimulation
    if run.workload.published is not None:
        published = run.workload.published
        check(run, published, synthesize(run, published, traced=False))
    path = os.path.join(out_dir, f"trace-{workload}-seed{run.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": workload,
                   "problem": run.problem.key,
                   "coverage": coverage(traced),
                   "fields": spans.FIELDS, "spans": traced["spans"]}, fh)
    return values


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "symctrl")):
        print(f"no symctrl sources under {ROOT}/src: run from the root of a "
              f"symctrl checkout", file=sys.stderr)
        return 2
    manifest = load_manifest()
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # the program's pool sizes itself from os.cpu_count(); never exceed the
    # cores this process may run on
    os.environ["SYMCTRL_THREADS"] = str(nproc())
    sys.path.insert(0, os.path.join(ROOT, "src"))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir)
    try:
        run = Run(args.workload, args.seed, tmp)
        env = environment(args.seed)
        print("env " + json.dumps(env), flush=True)
        for _ in range(INITIAL_SETUP_SAMPLES):
            run.setup_sample()
        if args.trace:
            values = traced_run(run, env, out_dir, args.workload)
            metric_list = manifest["per_layer"]
        else:
            rounds, lengths = [], []
            # start a round only if a typical round still ends in time
            while len(rounds) < MIN_ROUNDS or (
                    len(rounds) < MAX_ROUNDS and run.elapsed()
                    + statistics.median(lengths) <= args.seconds):
                start = time.perf_counter()
                rounds.append(run_round(run))
                lengths.append(time.perf_counter() - start)
            values = end_to_end(run, rounds)
            # the uncalibrated medians, for reference
            print("wall " + json.dumps({"rounds": len(rounds),
                                        **end_to_end(run, rounds, cal=False)}))
            metric_list = manifest["end_to_end"]
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in metric_list if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.gate.failed == 0,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_list},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
