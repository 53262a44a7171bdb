"""Child process of the benchmark: one set-up, or one synthesis route.

    python3 bench/worker.py setup CONFIG RESULT
    python3 bench/worker.py ROUTE CONFIG RESULT CONTROLLER_FILE TRACE CALLS

ROUTE is integrated or baseline, called CALLS times in a row.  Each route
runs in a process of its own so that the process's high-water RSS is the
peak of that route alone (plus the interpreter and its imports).  Samples
of the reference kernel (speed.py) bracket every call, in the process that
runs it; they add no measurable RSS.  The result is a JSON file.
"""

import contextlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from symctrl import cli, synthesis  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space (VmHWM).

    Not ru_maxrss: Linux carries that across fork and execve, so a child's
    value starts at its parent's RSS at the time it was spawned."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(config: str) -> dict:
    t0 = time.perf_counter()
    cfg = cli.load_config(config)
    load_s = time.perf_counter() - t0
    cfg.plant.compiled_field
    cfg.specification.compiled_field
    return {"ready_at": time.perf_counter(), "load_config_s": load_s}


def route(name: str, config: str, controller_file: str, trace: bool,
          calls: int) -> dict:
    tracer = spans.Tracer(name) if trace else None
    if tracer is not None:
        spans.install(tracer)
    cfg = cli.load_config(config)
    cfg.plant.compiled_field
    cfg.specification.compiled_field
    run = (synthesis.synthesize_integrated if name == "integrated"
           else synthesis.baseline_artifacts)
    shape = speed.ROUTE_SHAPE[name]
    out = {"route_s": [], "speed": [speed.sample(shape)]}
    for _ in range(calls):
        result = None  # the previous call's controller is not kept alive
        t0 = time.perf_counter()
        with (tracer.span(f"synthesis.{name}") if tracer is not None
              else contextlib.nullcontext()):
            result = run(cfg.plant, cfg.specification, cfg.params,
                         cfg.substeps, force=cfg.override_validation,
                         transition_cap=cfg.transition_cap)
        out["route_s"].append(time.perf_counter() - t0)
        out["speed"].append(speed.sample(shape))
    out["peak_rss_mb"] = peak_rss_mb()
    ctrl, metrics = result[0], result[1]
    if name == "baseline":
        sp, sq, cstar, nb = result[2]
        out["systems"] = {
            "plant_states": sp.n_states, "plant_inputs": sp.n_inputs,
            "plant_transitions": sp.n_transitions,
            "spec_states": sq.n_states, "spec_transitions": sq.n_transitions,
            "composed_states": cstar.n_states,
            "composed_transitions": cstar.n_transitions,
            "nonblocking_states": nb.n_states,
            "nonblocking_transitions": nb.n_transitions}
    out["metrics"] = {"states": metrics.states,
                      "transitions": metrics.transitions,
                      "memory_units": metrics.memory_units,
                      "steps": metrics.steps, "bad": int(ctrl.bad.size)}
    out["digest"] = gate.digest(ctrl.transitions)
    cli.write_controller_file(controller_file, ctrl)
    out["spans"] = tracer.spans if tracer is not None else []
    return out


def main(argv) -> int:
    task, config, result_path = argv[0], argv[1], argv[2]
    if task == "setup":
        out = setup(config)
    elif task in ("integrated", "baseline"):
        out = route(task, config, argv[3], argv[4] == "1", int(argv[5]))
    else:
        print(f"unknown task {task!r}", file=sys.stderr)
        return 2
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
