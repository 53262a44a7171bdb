"""Command-line interface: config ingestion, the four commands
(validate-params, synthesize, simulate, compare), and the text file formats
for controllers and traces.

Exit codes: 0 success, 1 config, usage or file error, 2 parameter-validation
violation, 3 empty controller, 4 resource cap exceeded, 5 conformance failure
or uncontrolled state, 6 a flow diverged or a field left its evaluation
domain.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .abstraction import DEFAULT_TRANSITION_CAP, ResourceLimitError
from .dynamics import (DEFAULT_SUBSTEPS, ControlSystem, DivergenceError,
                       StabilityCertificate, thread_count)
from .expr import ExprSyntaxError, parse_expression
from .loop import UncontrolledStateError, conformance_report, simulate_closed_loop
from .quantize import (Lattice, LatticeError, SynthesisParams,
                       validate_parameters)
from .synthesis import (Controller, ParameterValidationError,
                        controller_to_system, shared_lattices,
                        synthesize_baseline, synthesize_integrated)
from . import tsys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_EMPTY = 3
EXIT_RESOURCE = 4
EXIT_CONFORMANCE = 5
EXIT_NUMERIC = 6


class ConfigError(ValueError):
    """Malformed or inconsistent problem configuration."""


@dataclass
class ProblemConfig:
    plant: ControlSystem
    specification: ControlSystem
    params: SynthesisParams
    substeps: int
    override_validation: bool
    transition_cap: Optional[int]


def _section(doc: dict, name: str) -> dict:
    if name not in doc or not isinstance(doc[name], dict):
        raise ConfigError(f"missing section '{name}'")
    return doc[name]


def _finite(value) -> bool:
    """Whether a JSON value is a finite number (json reads NaN, Infinity)."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def _number(sec: dict, name: str, where: str,
            default: Optional[float] = None) -> float:
    if name not in sec:
        if default is not None:
            return default
        raise ConfigError(f"missing '{name}' in {where}")
    value = sec[name]
    if not _finite(value):
        raise ConfigError(f"'{name}' in {where} must be a finite number")
    return float(value)


def _integer(value, name: str, where: str) -> int:
    if not _finite(value) or not float(value).is_integer():
        raise ConfigError(f"'{name}' in {where} must be an integer")
    return int(value)


def _box(sec: dict, name: str, where: str, expected_len: int) -> list:
    if name not in sec:
        raise ConfigError(f"missing '{name}' in {where}")
    box = sec[name]
    if (not isinstance(box, list) or len(box) != expected_len
            or any(not isinstance(iv, list) or len(iv) != 2
                   or not all(_finite(v) for v in iv) for iv in box)):
        raise ConfigError(f"'{name}' in {where} must be {expected_len} "
                          f"[lo, hi] pairs of finite numbers")
    return box


def _certificate(sec: dict, where: str) -> StabilityCertificate:
    cert = sec.get("certificate")
    if not isinstance(cert, dict):
        raise ConfigError(f"missing 'certificate' in {where}")
    constants = {name: _number(cert, name, where, default)
                 for name, default in (("beta_c", None), ("beta_lambda", None),
                                       ("gamma_a", 0.0), ("gamma_p", 1.0))}
    try:
        return StabilityCertificate(**constants)
    except ValueError as exc:
        raise ConfigError(f"bad certificate in {where}: {exc}")


def _system(sec: dict, where: str, n_inputs: int) -> ControlSystem:
    n = _integer(_number(sec, "n", where), "n", where)
    if n < 1:
        raise ConfigError(f"'n' in {where} must be a positive integer")
    field_src = sec.get("field")
    if (not isinstance(field_src, list) or len(field_src) != n
            or not all(isinstance(text, str) for text in field_src)):
        raise ConfigError(f"'field' in {where} must list {n} expression "
                          f"strings")
    try:
        field = tuple(parse_expression(text, n, n_inputs) for text in field_src)
    except ExprSyntaxError as exc:
        raise ConfigError(f"bad field expression in {where}: {exc}")
    state_box = _box(sec, "state_box", where, n)
    init_box = _box(sec, "init_box", where, n)
    input_box = _box(sec, "input_box", where, n_inputs) if n_inputs else []
    certificate = _certificate(sec, where)
    try:
        return ControlSystem(n=n, m=n_inputs, state_box=state_box,
                             init_box=init_box, input_box=input_box,
                             field=field, certificate=certificate)
    except ValueError as exc:
        raise ConfigError(f"bad {where}: {exc}")


def load_config(path: str) -> ProblemConfig:
    """Parse and validate a problem configuration file (flat JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    plant_sec = _section(doc, "plant")
    m = _integer(_number(plant_sec, "m", "plant"), "m", "plant")
    if m < 0:
        raise ConfigError("'m' in plant must be 0 or more")
    plant = _system(plant_sec, "plant", m)
    specification = _system(_section(doc, "specification"), "specification", 0)
    if plant.n != specification.n:
        raise ConfigError("plant and specification must share the state "
                          "dimension (same output space)")
    p = _section(doc, "params")
    try:
        params = SynthesisParams(
            epsilon=_number(p, "epsilon", "params"),
            theta_p=_number(p, "theta_p", "params"),
            theta_q=_number(p, "theta_q", "params"),
            tau=_number(p, "tau", "params"),
            eta=_number(p, "eta", "params"),
            mu=_number(p, "mu", "params"))
    except ValueError as exc:
        raise ConfigError(f"bad params: {exc}")
    substeps = _integer(p.get("substeps", DEFAULT_SUBSTEPS), "substeps",
                        "params")
    if substeps < 1:
        raise ConfigError("substeps must be a positive integer")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("'options' must be a JSON object")
    cap = options.get("transition_cap", DEFAULT_TRANSITION_CAP)
    if cap is not None:  # _integer refuses booleans; 0 means no cap
        cap = _integer(cap, "transition_cap", "options") or None
    if cap is not None and cap < 0:
        raise ConfigError("'transition_cap' in options must not be negative")
    override = options.get("override_validation", False)
    if not isinstance(override, bool):
        raise ConfigError("'override_validation' must be true or false")
    return ProblemConfig(
        plant=plant, specification=specification, params=params,
        substeps=substeps, override_validation=override, transition_cap=cap)


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def write_controller_file(path: str, ctrl: Controller) -> None:
    """Write a controller in the line-oriented text format.

    Header: #dim, #eta, #mu, #state_box, #input_box, #initials, #bad; then
    one `src input dst` line per transition in ascending source order.
    Floats are written with repr and reload bit-exactly.
    """
    st = ctrl.state_lattice
    eta = st.spacing / 2.0
    if ctrl.input_lattice is not None:
        mu = ctrl.input_lattice.spacing / 2.0
        input_box = ctrl.input_lattice.box.reshape(-1)
    else:
        mu = 0.0
        input_box = np.zeros(0)
    lines = [
        f"#dim {st.dim}",
        f"#eta {repr(float(eta))}",
        f"#mu {repr(float(mu))}",
        f"#state_box {_fmt_floats(st.box.reshape(-1))}",
        f"#input_box {_fmt_floats(input_box)}".rstrip(),
        f"#initials {' '.join(str(int(i)) for i in ctrl.initials)}".rstrip(),
        f"#bad {' '.join(str(int(i)) for i in ctrl.bad)}".rstrip(),
    ]
    t = ctrl.transitions
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for a in range(0, t.shape[0], tsys._SLICE_ROWS):
            fh.write("".join(f"{src} {uix} {dst}\n" for src, uix, dst
                             in t[a:a + tsys._SLICE_ROWS].tolist()))


# a header line: '#' first after any leading whitespace
_HEADER = re.compile(r"^[^\S\n]*#.*", re.MULTILINE)


def _transition_rows(text: str) -> np.ndarray:
    """The rows of the text, line by line; a bad line raises ConfigError."""
    rows = []
    for raw in text.split("\n"):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                src, uix, dst = map(np.int64, line.split())
            except (ValueError, OverflowError):  # not 3 int64 values
                raise ConfigError(f"bad transition line: {line!r}") from None
            rows.append([src, uix, dst])
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


def read_controller_file(path: str) -> Controller:
    """Reload a controller written by write_controller_file.  A later header
    line sets its key again.  numpy reads the rows; a body it refuses, not
    three columns wide, or with a '#' after the start of a line (numpy would
    cut it as a comment) is read line by line, and an error names its line."""
    rows = np.zeros((0, 0))
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"controller file is not UTF-8 text: {exc}")
        heads = _HEADER.findall(text)
        if text.count("#") == sum(line.count("#") for line in heads):
            fh.seek(0)  # given the path, numpy picks a decompressor by suffix
            try:  # any warning (an int parsed via float, no rows) refuses
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = np.loadtxt(fh, dtype=np.int64, comments="#",
                                      ndmin=2)
            except (ValueError, Warning):
                pass
    header = {key: rest.strip() for key, _, rest
              in (line.strip()[1:].partition(" ") for line in heads)}
    if rows.shape[1] != 3:
        rows = _transition_rows(text)
    try:
        dim = int(header["dim"])
        eta = float(header["eta"])
        mu = float(header["mu"])
        sb = [float(v) for v in header["state_box"].split()]
        ib = [float(v) for v in header.get("input_box", "").split()]
        initials = [int(v) for v in header.get("initials", "").split()]
        bad = [int(v) for v in header.get("bad", "").split()]
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad controller header: {exc}")
    if len(sb) != 2 * dim:
        raise ConfigError("state_box length does not match dim")
    if len(ib) % 2:
        raise ConfigError("input_box must list lo/hi pairs")
    try:
        st_lat = Lattice(np.asarray(sb, dtype=float).reshape(dim, 2), 2.0 * eta)
        in_lat = (Lattice(np.asarray(ib, dtype=float).reshape(-1, 2), 2.0 * mu)
                  if mu > 0.0 else None)
        return Controller(rows, initials, bad, st_lat, in_lat)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad controller file: {exc}")


def write_trace_csv(path: str, trace, n: int, m: int) -> None:
    """Trace CSV: header k, x_1..x_n, u_1..u_m, s_1..s_n, deviation; one row
    per sampling instant (the final row has no input)."""
    cols = (["k"] + [f"x_{i + 1}" for i in range(n)]
            + [f"u_{j + 1}" for j in range(m)]
            + [f"s_{i + 1}" for i in range(n)] + ["deviation"])
    lines = [",".join(cols)]
    steps = trace.inputs.shape[0]
    for k in range(steps + 1):
        row = [str(k)]
        row += [repr(float(v)) for v in trace.states[k]]
        if k < steps:
            row += [repr(float(v)) for v in trace.inputs[k]]
        else:
            row += [""] * m
        row += [repr(float(v)) for v in trace.spec_states[k]]
        row.append(repr(float(trace.deviations[k])))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    shared_lattices(cfg.plant, cfg.specification, cfg.params)
    report = validate_parameters(cfg.plant.certificate,
                                 cfg.specification.certificate, cfg.params)
    print(report.describe())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _run_method(cfg: ProblemConfig, method: str, force: bool):
    run = synthesize_baseline if method == "baseline" else synthesize_integrated
    return run(cfg.plant, cfg.specification, cfg.params, cfg.substeps,
               force=force or cfg.override_validation,
               transition_cap=cfg.transition_cap)


def _cmd_synthesize(args) -> int:
    cfg = load_config(args.config)
    ctrl, metrics = _run_method(cfg, args.method, args.force)
    if args.out:
        write_controller_file(args.out, ctrl)
    print(json.dumps(metrics.as_dict()))
    print(f"{args.method} controller: {metrics.states} states, "
          f"{metrics.transitions} transitions", file=sys.stderr)
    return EXIT_OK if ctrl.initials.size else EXIT_EMPTY


def _cmd_simulate(args) -> int:
    if args.steps < 0:
        print(f"--steps must be 0 or more, not {args.steps}", file=sys.stderr)
        return EXIT_USAGE
    cfg = load_config(args.config)
    ctrl = read_controller_file(args.controller)
    st_lat, in_lat, _ = shared_lattices(cfg.plant, cfg.specification,
                                        cfg.params)
    if ctrl.state_lattice.spacing != st_lat.spacing:
        raise ConfigError("controller file lattice does not match the config "
                          "(eta differs)")
    if ctrl.state_lattice != st_lat:
        raise ConfigError("controller file lattice does not match the config "
                          "(state box differs)")
    if ctrl.input_lattice != in_lat:
        raise ConfigError("controller file lattice does not match the config "
                          "(input lattice differs)")
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        print(f"malformed --x0 value: {args.x0!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        trace = simulate_closed_loop(cfg.plant, cfg.specification, ctrl, x0,
                                     args.steps, cfg.params, cfg.substeps)
    except ValueError as exc:
        print(f"bad initial state: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UncontrolledStateError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFORMANCE
    if args.out:
        write_trace_csv(args.out, trace, cfg.plant.n, cfg.plant.m)
    report = conformance_report(trace, cfg.params.epsilon)
    print(report.describe())
    return EXIT_OK if report.passed else EXIT_CONFORMANCE


def _ratio(a: float, b: float) -> str:
    return f"{a / b:.4g}" if b else "n/a"


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    int_ctrl, int_metrics = _run_method(cfg, "integrated", args.force)
    try:
        base_ctrl, base_metrics = _run_method(cfg, "baseline", args.force)
    except ResourceLimitError as exc:
        print("integrated:", json.dumps(int_metrics.as_dict()))
        print(f"baseline leg aborted, resource cap exceeded: {exc}",
              file=sys.stderr)
        return EXIT_RESOURCE
    rows = [
        ("states", int_metrics.states, base_metrics.states),
        ("transitions", int_metrics.transitions, base_metrics.transitions),
        ("memory_units", int_metrics.memory_units, base_metrics.memory_units),
        ("steps", int_metrics.steps, base_metrics.steps),
        ("rows_flowed", int_metrics.rows_flowed, base_metrics.rows_flowed),
        ("rows_landed", int_metrics.rows_landed, base_metrics.rows_landed),
    ]
    print(f"{'quantity':<14}{'integrated':>14}{'baseline':>14}{'ratio':>10}")
    for name, iv, bv in rows:
        print(f"{name:<14}{iv:>14}{bv:>14}{_ratio(iv, bv):>10}")
    relation = tsys.check_bisimulation(controller_to_system(int_ctrl),
                                       controller_to_system(base_ctrl), 0.0)
    verdict = "exactly bisimilar" if relation is not None else \
        "NOT bisimilar (unexpected)"
    print(f"controllers: {verdict}")
    return EXIT_OK if relation is not None else EXIT_CONFORMANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symctrl",
        description="Symbolic controller synthesis for sampled ODE plants "
                    "against ODE specifications.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-params",
                       help="check the quantization inequalities")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("synthesize", help="synthesize a controller")
    p.add_argument("config")
    p.add_argument("--method", choices=("integrated", "baseline"),
                   default="integrated")
    p.add_argument("--out", help="controller file to write")
    p.add_argument("--force", action="store_true",
                   help="proceed even if parameter validation fails")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="run the closed loop from x0")
    p.add_argument("config")
    p.add_argument("controller")
    p.add_argument("--x0", required=True, help="comma-separated coordinates")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--out", help="trace CSV to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare",
                       help="run both methods and compare their metrics")
    p.add_argument("config")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_compare)
    return parser


def _attach_x0(argv: List[str]) -> List[str]:
    """argv with `--x0 V` written `--x0=V` where V starts with a minus
    sign: argparse takes a V such as -0.1,0.0, which is no plain negative
    number, for an option and leaves --x0 without a value."""
    argv = list(argv)
    for i in range(len(argv) - 1):
        if argv[i] == "--x0" and re.match(r"-[\d.]", argv[i + 1]):
            argv[i:i + 2] = [f"--x0={argv[i + 1]}"]
            break
    return argv


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_x0(sys.argv[1:] if argv is None
                                        else argv))
    try:
        thread_count()  # a malformed SYMCTRL_THREADS fails before any work
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, LatticeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterValidationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
