"""What the benchmark under bench/ relies on in symctrl: the module-level
names its tracer wraps, and that reading `compiled_field` leaves every flow
nothing to compile, so that no timed call pays for it."""

import importlib.util
import inspect
import os

import numpy as np

from symctrl import dynamics, expr
from symctrl.dynamics import _flow_tile

from _systems import nonlinear_pair

SPANS = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")


def test_traced_names_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = []

    def check(tracer, owner, attr, name, rows_arg=None):
        assert hasattr(owner, attr), (owner, attr)
        inner = getattr(owner, attr)
        assert callable(inner), (owner, attr)
        if rows_arg is not None:  # the rows are X, where the tracer looks
            assert list(inspect.signature(inner).parameters)[rows_arg] == "X"
        wrapped.append(name)

    monkeypatch.setattr(spans.Tracer, "wrap", check)
    spans.install(spans.Tracer("test"))
    assert {"dynamics.integrated", "dynamics.baseline",
            "dynamics.loop"} <= set(wrapped)


def flows(sys, tau):
    rng = np.random.default_rng(3)
    X = rng.uniform(sys.state_box[:, 0], sys.state_box[:, 1], size=(9, sys.n))
    U = rng.uniform(sys.input_box[:, 0], sys.input_box[:, 1], size=(9, sys.m))
    _flow_tile(sys, X, U, tau, 5)
    _flow_tile(sys, X[:1], U[:1], tau, 5)
    _flow_tile(sys, X, U, tau, 5, hull=True)


def refuse(*args, **kwargs):
    raise AssertionError("compiled during a flow")


def test_flows_compile_two_kernels_and_no_component(monkeypatch):
    plant, _, params = nonlinear_pair()
    compiled = []

    def counting(lines, name, _inner=dynamics.compile_source):
        compiled.append(name)
        return _inner(lines, name)

    monkeypatch.setattr(dynamics, "compile_source", counting)
    monkeypatch.setattr(dynamics, "compile_expression", refuse)
    flows(plant, params.tau)
    assert compiled == ["tile", "row"]


def test_compiled_field_leaves_nothing_to_compile(monkeypatch):
    plant, _, params = nonlinear_pair()
    funcs = plant.compiled_field
    assert len(funcs) == plant.n and all(callable(f) for f in funcs)
    for module in (dynamics, expr):
        monkeypatch.setattr(module, "compile_source", refuse)
    monkeypatch.setattr(dynamics, "compile_expression", refuse)
    flows(plant, params.tau)
    assert plant.compiled_field is funcs
