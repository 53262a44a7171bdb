import functools
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symctrl.cli import (ConfigError, load_config, main, read_controller_file,
                         write_controller_file)
from symctrl import (Controller, abstraction, synthesis, synthesize_integrated,
                     synthesize_baseline, tsys)

from _systems import CONFIGS

TOY = os.path.join(CONFIGS, "toy_tracking.json")
NONLINEAR = os.path.join(CONFIGS, "nonlinear_tracking.json")
LINEAR1 = os.path.join(CONFIGS, "linear_example_1.json")


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def toy_doc():
    with open(TOY) as fh:
        return json.load(fh)


def oversized_docs():
    """Configs whose lattices have more than 2^31 points or no finite index
    range, by name."""
    def nonlinear(eta, box=None):
        with open(NONLINEAR) as fh:
            doc = json.load(fh)
        doc["params"]["eta"] = eta
        if box is not None:
            for section in ("plant", "specification"):
                doc[section]["state_box"] = [[-box, box]] * 3
                doc[section]["init_box"] = [[0.0, 0.0]] * 3
        return doc

    def toy(section, key, value):
        doc = toy_doc()
        doc[section][key] = value
        return doc

    return {
        # 3.7e28 points, which wrapped to a negative count in int64
        "lattice_wraps": nonlinear(3e-4, box=1e6),
        "lattice_too_broad": nonlinear(5e-8),
        # 10001^3 points, 5001^3 of them initial cells
        "lattice_initials": nonlinear(1e-4),
        "lattice_box_1e300": toy("plant", "state_box", [[-1e300, 1e300]]),
        "lattice_eta_1e-300": toy("params", "eta", 1e-300),
    }


def test_load_config_roundtrip():
    cfg = load_config(TOY)
    assert cfg.plant.n == 1 and cfg.plant.m == 1
    assert cfg.specification.m == 0
    assert cfg.params.epsilon == 0.2
    assert cfg.substeps == 50


def test_validate_params_pass_exit0(capsys):
    assert main(["validate-params", TOY]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 3


def test_validate_params_nonlinear_plant_violation_exit2(capsys):
    assert main(["validate-params", NONLINEAR]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "-0.080" in out


def test_validate_params_linear_exit0():
    assert main(["validate-params", LINEAR1]) == 0


def test_validate_params_theta_split_violation(tmp_path, capsys):
    doc = toy_doc()
    doc["params"]["theta_p"] = 0.15
    doc["params"]["theta_q"] = 0.15
    path = write_json(tmp_path / "bad_split.json", doc)
    assert main(["validate-params", path]) == 2
    assert "precision split" in capsys.readouterr().out


def test_missing_config_exit1(capsys):
    assert main(["validate-params", "/nonexistent/nowhere.json"]) == 1


def test_malformed_config_exit1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate-params", str(path)]) == 1

    def edited(section, key, value):
        doc = toy_doc()
        doc[section][key] = value
        return doc

    broken = {
        "list": [1],
        "substeps_text": edited("params", "substeps", "abc"),
        "substeps_fraction": edited("params", "substeps", 2.7),
        "cap_text": edited("options", "transition_cap", "many"),
        "cap_negative": edited("options", "transition_cap", -1),
        "cap_false": edited("options", "transition_cap", False),
        "options_list": dict(toy_doc(), options=[1]),
        "n_fraction": edited("plant", "n", 1.5),
        "n_zero": dict(toy_doc(), **{
            section: dict(toy_doc()[section], n=0, field=[], state_box=[],
                          init_box=[])
            for section in ("plant", "specification")}),
        "m_negative": edited("plant", "m", -1),
        "field_number": edited("plant", "field", [5]),
        "box_null": edited("plant", "state_box", [[None, 1.0]]),
        "box_huge_integer": edited("plant", "state_box", [[-1, 10 ** 400]]),
        "certificate_list": edited("plant", "certificate",
                                   {"beta_c": 1.0, "beta_lambda": 1.0,
                                    "gamma_a": [1]}),
        "certificate_text": edited("plant", "certificate",
                                   {"beta_c": 1.0, "beta_lambda": 1.0,
                                    "gamma_a": "0.5"}),
        "certificate_infinite": edited("plant", "certificate",
                                       {"beta_c": float("inf"),
                                        "beta_lambda": 1.0}),
        "certificate_negative": edited("plant", "certificate",
                                       {"beta_c": -1.0, "beta_lambda": 1.0}),
        "certificate_missing": dict(toy_doc(), plant={
            key: value for key, value in toy_doc()["plant"].items()
            if key != "certificate"}),
        "gamma_nan": edited("specification", "certificate",
                            {"beta_c": 1.0, "beta_lambda": 1.0,
                             "gamma_p": float("nan")}),
        "tau_infinite": edited("params", "tau", float("inf")),
        "eta_nan": edited("params", "eta", float("nan")),
        "override_text": edited("options", "override_validation", "false"),
        "override_list": edited("options", "override_validation", [1]),
        "override_number": edited("options", "override_validation", 1),
        **oversized_docs(),
    }
    for name, doc in broken.items():
        capsys.readouterr()
        path = write_json(tmp_path / f"{name}.json", doc)
        assert main(["validate-params", path]) == 1, name
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "config error" in err, name
        if name == "m_negative":
            # not the input variables' or the input box's message
            assert "'m'" in err, err
        if name.startswith("certificate") or name == "gamma_nan":
            # the message names the section once, not once per wrapper
            assert err.count("plant") + err.count("specification") == 1, err
    with pytest.raises(ConfigError, match="substeps"):
        load_config(write_json(tmp_path / "s.json",
                               broken["substeps_fraction"]))
    # a byte that is not UTF-8
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"note": "\xff"}')
    capsys.readouterr()
    assert main(["validate-params", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate-params", "synthesize",
                                     "compare"])
def test_too_deep_a_field_is_a_config_error(tmp_path, capsys, command):
    # nested in the parser, and a tree nested by a long sum, which only the
    # derivative's walker recursed through: Python's recursion limit once
    # ended both in a traceback
    deep = {"parentheses": "(" * 200 + "-x1 + u1" + ")" * 200,
            "sum": " + ".join(["0.001*x1"] * 1000) + " + u1"}
    for name, text in deep.items():
        doc = toy_doc()
        doc["plant"]["field"] = [text]
        capsys.readouterr()
        assert main([command, write_json(tmp_path / f"{name}.json",
                                          doc)]) == 1, name
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err, err
        assert "nested deeper" in err, err


@pytest.mark.parametrize("command", ["validate-params", "synthesize",
                                     "compare"])
def test_a_gain_past_the_float_range_fails_validation(tmp_path, capsys,
                                                      command):
    # mu ** gamma_p = 10 ** 1000 passes the float range: the plant
    # inequality reads inf and fails, where it raised OverflowError
    doc = toy_doc()
    doc["params"]["mu"] = 10.0
    doc["plant"]["certificate"]["gamma_p"] = 1000.0
    assert main([command, write_json(tmp_path / "gain.json", doc)]) == 2
    captured = capsys.readouterr()
    assert "[FAIL] plant abstraction: lhs=inf" in captured.out + captured.err


# numbers the loader must refuse or survive, in every numeric field
_ODD_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.0,
                -1.0, True, False, 10 ** 400, 1e300, 1e-300]


@functools.lru_cache(maxsize=None)
def _expressions(variables, shallow_only=False):
    """Expression text from the grammar over a tuple of variables: shallow
    trees, and unless `shallow_only`, trees nested 100 to 300 levels deep
    and sums or products of 100 to 1,000 terms.  Cached, since building a
    strategy costs more than drawing from it."""
    shallow = st.recursive(
        st.one_of(st.sampled_from(variables),
                  st.sampled_from(["1", "0.5", "2.0e3", "1e308", "1e400"])),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join),
            inner.map("-{}".format),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
                      inner).map("{0[0]}({0[1]})".format),
            inner.map("({})".format)),
        max_leaves=8)
    if shallow_only:
        return shallow
    deep = st.tuples(st.sampled_from([("(", ")"), ("sin(", ")"), ("-", ""),
                                      ("x1^", "")]),
                     st.integers(100, 300), shallow).map(
        lambda t: t[0][0] * t[1] + t[2] + t[0][1] * t[1])
    long = st.tuples(st.sampled_from([" + ", " * "]),
                     st.sampled_from([100, 127, 129, 300, 1000]), shallow).map(
        lambda t: t[0].join([f"({t[2]})"] * t[1]))
    return st.one_of(shallow, deep, long)


@st.composite
def _config_docs(draw, flows=False):
    """A config from the loader's schema: the toy config over 1 to 3 axes,
    with shallow fields, and up to three of its entries replaced by other
    numbers, odd numbers, junk, or expressions that are too deep, too long
    or out of range.  Lattice spacings and box corners are either sane, so
    that a lattice holds at most about 1e6 points, or far off, so that it
    is refused or holds a few points; unless `flows`, one axis of every
    state and initial box may also span up to 2e4, so that a lattice may
    hold up to 2^31 points.  With `flows`, the lattices are coarse, a few
    hundred states and inputs at most, and the substeps few, so that both
    routes flow a config in milliseconds."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    doc = toy_doc()
    doc["plant"].update(m=m, input_box=[[-0.25, 0.25] for _ in range(m)])
    for sec, inputs in ((doc["plant"], m), (doc["specification"], 0)):
        variables = tuple([f"x{i + 1}" for i in range(n)]
                          + [f"u{j + 1}" for j in range(inputs)])
        sec.update(n=n, state_box=[[-1.0, 1.0] for _ in range(n)],
                   init_box=[[-0.5, 0.0] for _ in range(n)],
                   field=[draw(_expressions(variables, shallow_only=True))
                          for _ in range(n)])
    spacing = st.floats(0.2, 1.0) if flows else st.floats(0.02, 1.0)
    if flows:
        doc["params"].update(eta=draw(st.floats(0.2, 0.5)),
                             mu=draw(st.floats(0.1, 0.25)),
                             substeps=draw(st.sampled_from([1, 2, 5])))
    elif draw(st.booleans()):
        axis, width = draw(st.integers(0, n - 1)), draw(st.sampled_from(
            [1e2, 1e4]))
        for sec in (doc["plant"], doc["specification"]):
            sec["state_box"][axis] = [-width, width]
            sec["init_box"][axis] = [-width, 0.0]
    number = st.one_of(st.floats(0.001, 2.0), st.sampled_from(_ODD_NUMBERS),
                       st.floats(), st.sampled_from(["1", None, [1], {}]))
    for _ in range(draw(st.integers(0, 3))):
        sec = doc[draw(st.sampled_from(sorted(doc)))]
        key = draw(st.sampled_from(sorted(sec)))
        value = sec[key]
        if key in ("eta", "mu"):
            sec[key] = draw(st.one_of(spacing, st.sampled_from(_ODD_NUMBERS)))
        elif key == "substeps" and flows:
            # a number of substeps past the float range is refused, but one
            # of 1e300 would flow for ever
            sec[key] = draw(st.one_of(st.integers(1, 5), st.sampled_from(
                [math.nan, math.inf, 0.0, -1.0, 1.5, True, 10 ** 400, "1"])))
        elif key.endswith("box") and isinstance(value, list) and value:
            interval = draw(st.sampled_from(value))
            interval[draw(st.integers(0, 1))] = draw(st.one_of(
                st.floats(-2.0, 2.0), st.sampled_from(_ODD_NUMBERS)))
        elif key == "field":
            value[draw(st.integers(0, n - 1))] = draw(_expressions(
                ("x1", "x2", "x3", "x4", "u1", "u2", "u3", "y1")))
        elif key == "certificate":
            value[draw(st.sampled_from(["beta_c", "beta_lambda", "gamma_a",
                                        "gamma_p"]))] = draw(
                st.one_of(number, st.just(1000.0)))
        else:
            sec[key] = draw(number)
    return doc


def test_validate_params_survives_any_config(tmp_path, capsys):
    # a config drawn from the loader's schema exits 0, 1 or 2, with no
    # exception; the draws reach every one of the three
    path = str(tmp_path / "drawn.json")
    seen = {0: 0, 1: 0, 2: 0}

    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(_config_docs())
    def check(doc):
        write_json(path, doc)
        code = main(["validate-params", path])
        capsys.readouterr()
        assert code in seen, code
        seen[code] += 1

    check()
    assert min(seen.values()) > 0, seen


def test_synthesize_and_compare_survive_any_config(tmp_path, capsys):
    # a drawn config on lattices that flow in milliseconds: synthesize
    # --force on either route and compare --force exit with a documented
    # code and no exception, and compare never finds the two controllers
    # other than bisimilar
    path = str(tmp_path / "drawn.json")
    seen = set()

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(_config_docs(flows=True))
    def check(doc):
        write_json(path, doc)
        for argv in (["synthesize", path, "--force", "--method", "integrated"],
                     ["synthesize", path, "--force", "--method", "baseline"],
                     ["compare", path, "--force"]):
            code = main(argv)
            capsys.readouterr()
            assert 0 <= code <= 6 and (argv[0], code) != ("compare", 5), \
                (argv, code)
            seen.add((argv[0], code))

    check()
    assert {("synthesize", 0), ("compare", 0)} <= seen, seen


def test_only_the_integrated_route_enumerates_initial_cells(tmp_path, capsys):
    # 1e7 initial cells: the toy problem widened to [-1e5, 1e5] at eta =
    # 0.01.  The set-up builds lattices and refuses; only the integrated
    # route enumerates the cells, and its transition cap refuses first
    doc = toy_doc()
    for section in ("plant", "specification"):
        doc[section]["state_box"] = doc[section]["init_box"] = [[-1e5, 1e5]]
    doc["params"]["eta"] = 0.01
    path = write_json(tmp_path / "huge.json", doc)
    for argv, expected in ((["validate-params", path], 0),
                           (["synthesize", path, "--method", "integrated"], 4),
                           (["synthesize", path, "--method", "baseline"], 4),
                           (["compare", path], 4)):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == expected and peak <= 16 * 2 ** 20, (argv, code, peak)


@pytest.mark.parametrize("box", [("plant", "state_box"),
                                 ("plant", "input_box"),
                                 ("specification", "state_box")],
                         ids=lambda box: "-".join(box))
def test_box_without_lattice_points_exit1(tmp_path, capsys, monkeypatch,
                                         box):
    # no multiple of 2 eta = 2 mu = 0.05 lies in the box: both routes,
    # compare and validate-params refuse the config before they flow
    # anything
    def refuse(*args, **kwargs):
        raise AssertionError("flowed a row")

    for module in (abstraction, synthesis):
        monkeypatch.setattr(module, "_flow_tile", refuse)
    doc = toy_doc()
    section, key = box
    doc[section][key] = [[0.001, 0.002]]
    if key == "state_box":
        doc[section]["init_box"] = [[0.001, 0.002]]
    path = write_json(tmp_path / "empty.json", doc)
    for argv in (["synthesize", path, "--method", "integrated"],
                 ["synthesize", path, "--method", "baseline"],
                 ["compare", path], ["validate-params", path]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err, err
        assert f"{section}'s {key.replace('_', ' ')}" in err, err


def test_oversized_lattice_exit1(tmp_path, capsys, monkeypatch):
    # every command refuses a lattice of more than 2^31 points with one
    # line, before it flows anything
    ctrl_path = str(tmp_path / "toy.ctrl")
    assert main(["synthesize", TOY, "--out", ctrl_path]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("flowed a row")

    for module in (abstraction, synthesis):
        monkeypatch.setattr(module, "_flow_tile", refuse)
    path = write_json(tmp_path / "wraps.json",
                      oversized_docs()["lattice_wraps"])
    for argv in (["synthesize", path, "--method", "integrated"],
                 ["synthesize", path, "--method", "baseline"],
                 ["compare", path], ["validate-params", path],
                 ["simulate", path, ctrl_path, "--x0", "0,0,0"]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err, err
        assert "plant's state box" in err and "2^31" in err, err


def test_bad_field_expression_exit1(tmp_path):
    doc = toy_doc()
    doc["plant"]["field"] = ["-x1 + u2"]  # u2 out of range for m=1
    assert main(["validate-params", write_json(tmp_path / "f.json", doc)]) == 1


def test_synthesize_writes_controller_and_metrics(tmp_path, capsys):
    out = tmp_path / "toy.ctrl"
    code = main(["synthesize", TOY, "--method", "integrated",
                 "--out", str(out)])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(metrics) == {"states", "transitions", "memory_units", "steps",
                            "rows_flowed", "rows_landed", "wall_time_ms"}
    assert metrics["states"] > 0
    assert metrics["states"] == metrics["transitions"]
    assert out.exists()


def test_synthesize_baseline_method(tmp_path, capsys):
    out = tmp_path / "toy_base.ctrl"
    assert main(["synthesize", TOY, "--method", "baseline",
                 "--out", str(out)]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert metrics["transitions"] >= metrics["states"] > 0


def test_malformed_thread_count_exit1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMCTRL_THREADS", "two")
    assert main(["synthesize", TOY, "--method", "baseline",
                 "--out", str(tmp_path / "x.ctrl")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "SYMCTRL_THREADS" in err


def test_synthesize_refuses_invalid_params_without_force(tmp_path, capsys):
    doc = toy_doc()
    doc["params"]["eta"] = 0.09  # violates both abstraction inequalities
    path = write_json(tmp_path / "coarse.json", doc)
    assert main(["synthesize", path, "--method", "integrated",
                 "--out", str(tmp_path / "x.ctrl")]) == 2
    assert main(["synthesize", path, "--method", "integrated", "--force",
                 "--out", str(tmp_path / "x.ctrl")]) == 0


def test_synthesize_empty_intersection_exit3(tmp_path, capsys):
    doc = toy_doc()
    doc["plant"]["init_box"] = [[-0.5, -0.4]]
    doc["specification"]["init_box"] = [[0.4, 0.5]]
    path = write_json(tmp_path / "disjoint.json", doc)
    code = main(["synthesize", path, "--method", "integrated",
                 "--out", str(tmp_path / "e.ctrl")])
    assert code == 3


def test_a_controller_without_initial_states_exit3(tmp_path, capsys):
    # every initial cell blocks: the integrated route keeps no state, and
    # the baseline keeps three non-blocking pairs that no initial cell
    # reaches; both controllers are empty
    doc = toy_doc()
    for section, field in (("plant", ["-x2 ^ x1", "(x2)", "(--x2)"]),
                           ("specification", ["((((x2))))", "(--x2)",
                                              "(x2)"])):
        doc[section].update(n=3, field=field,
                            state_box=[[-1.0, 1.0] for _ in range(3)],
                            init_box=[[-0.5, 0.0] for _ in range(3)])
    doc["params"].update(eta=0.445, mu=0.1, substeps=2)
    path = write_json(tmp_path / "blocked.json", doc)
    states = {}
    for method in ("integrated", "baseline"):
        assert main(["synthesize", path, "--method", method, "--force"]) == 3
        states[method] = json.loads(capsys.readouterr().out)["states"]
    assert states == {"integrated": 0, "baseline": 3}


def test_compare_near_disjoint_initial_boxes(tmp_path, capsys):
    # disjoint initial boxes whose outward-rounded ranges share the cell of
    # 0.0: both routes start from it
    doc = toy_doc()
    doc["plant"]["init_box"] = [[0.0, 0.01]]
    doc["specification"]["init_box"] = [[0.04, 0.05]]
    path = write_json(tmp_path / "near.json", doc)
    assert main(["compare", path]) == 0
    assert "controllers: exactly bisimilar" in capsys.readouterr().out


def test_compare_baseline_over_the_cap_exit4(tmp_path, capsys):
    # the specification's state box is half the plant's: the integrated
    # route's 21 * 11 candidate rows fit under the cap, the plant
    # abstraction's 41 * 11 do not
    doc = toy_doc()
    doc["specification"]["state_box"] = [[-0.5, 0.5]]
    doc["options"]["transition_cap"] = 300
    path = write_json(tmp_path / "half.json", doc)
    assert main(["compare", path]) == 4
    captured = capsys.readouterr()
    label, _, metrics = captured.out.strip().partition(" ")
    assert label == "integrated:" and json.loads(metrics)["states"] > 0
    assert "baseline leg aborted" in captured.err


@pytest.mark.parametrize("key, value, differs", [
    ("eta", 0.0125, "eta"),
    ("state_box", [[-0.5, 0.5]], "state box"),
    ("mu", 0.0125, "input lattice")])
def test_simulate_with_another_lattice_exit1(tmp_path, capsys, key, value,
                                             differs):
    # a controller synthesized for another lattice than the config's
    doc = toy_doc()
    if key == "state_box":
        for section in ("plant", "specification"):
            doc[section]["state_box"] = value
    else:
        doc["params"][key] = value
    ctrl_path = str(tmp_path / "other.ctrl")
    assert main(["synthesize", write_json(tmp_path / "other.json", doc),
                 "--force", "--out", ctrl_path]) == 0
    capsys.readouterr()
    assert main(["simulate", TOY, ctrl_path, "--x0", "-0.25"]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and f"({differs} differs)" in err


def test_resource_cap_exit4(tmp_path, capsys):
    doc = toy_doc()
    doc["options"]["transition_cap"] = 10
    path = write_json(tmp_path / "capped.json", doc)
    assert main(["synthesize", path, "--method", "baseline",
                 "--out", str(tmp_path / "c.ctrl")]) == 4


def test_diverging_flows_give_no_transition_in_both_routes(tmp_path, capsys):
    doc = toy_doc()
    doc["plant"]["field"] = ["50*x1^3 + u1"]  # flows from the box edge blow up
    doc["plant"]["state_box"] = [[-2, 2]]
    doc["params"]["tau"] = 1.0
    path = write_json(tmp_path / "diverging.json", doc)
    for method in ("integrated", "baseline"):
        assert main(["synthesize", path, "--method", method]) == 0
    capsys.readouterr()
    assert main(["compare", path]) == 0
    assert "controllers: exactly bisimilar" in capsys.readouterr().out


def test_domain_leaving_flows_give_no_transition_in_both_routes(tmp_path,
                                                              capsys):
    doc = toy_doc()
    doc["plant"]["field"] = ["sqrt(x1) + u1"]  # x1 < 0 on half the box
    path = write_json(tmp_path / "domain.json", doc)
    for method in ("integrated", "baseline"):
        assert main(["synthesize", path, "--method", method]) == 0
    capsys.readouterr()
    assert main(["compare", path]) == 0
    assert "controllers: exactly bisimilar" in capsys.readouterr().out


def test_numeric_failure_exit6(tmp_path, capsys):
    # the closed loop flows the plant from x0 itself, with no cell to drop
    ctrl_path = str(tmp_path / "toy.ctrl")
    assert main(["synthesize", TOY, "--out", ctrl_path]) == 0
    doc = toy_doc()
    doc["plant"]["field"] = ["sqrt(x1) + u1"]
    path = write_json(tmp_path / "domain.json", doc)
    capsys.readouterr()
    assert main(["simulate", path, ctrl_path, "--x0", "-0.25"]) == 6
    assert "numeric failure" in capsys.readouterr().err


def test_controller_file_bad_contents_exit1(tmp_path, capsys):
    ctrl_path = tmp_path / "toy.ctrl"
    main(["synthesize", TOY, "--method", "integrated", "--out", str(ctrl_path)])
    capsys.readouterr()
    good = ctrl_path.read_text().splitlines()

    def replaced(key, line):
        return [line if ln.split()[0] == f"#{key}" else ln for ln in good]

    corrupt = {
        "target": good + ["0 0 100000"],  # beyond the state lattice
        "initial": replaced("initials", "#initials 100000"),
        "bad": replaced("bad", "#bad -1"),
        "eta": replaced("eta", "#eta 0.0"),
        "input_box": replaced("input_box", "#input_box"),
        # values beyond int64 or the float range
        "target_huge": good + ["0 0 99999999999999999999"],
        "initial_huge": replaced("initials", "#initials 99999999999999999999"),
        "bad_huge": replaced("bad", "#bad 99999999999999999999"),
        "state_box_infinite": replaced("state_box", "#state_box -inf 1.0"),
        "eta_subnormal": replaced("eta", "#eta 1e-320"),
    }
    for name, lines in corrupt.items():
        path = tmp_path / f"{name}.ctrl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            read_controller_file(str(path))
        assert main(["simulate", TOY, str(path), "--x0", "-0.25"]) == 1
    # a byte that is not UTF-8, in a row
    path = tmp_path / "latin1.ctrl"
    path.write_bytes("\n".join(good).encode() + b"\n0 0 \xff\n")
    with pytest.raises(ConfigError):
        read_controller_file(str(path))
    capsys.readouterr()
    assert main(["simulate", TOY, str(path), "--x0", "-0.25"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    # a controller file that cannot be read or written
    assert main(["simulate", TOY, str(tmp_path / "absent.ctrl"),
                 "--x0", "-0.25"]) == 1
    assert main(["synthesize", TOY, "--out",
                 str(tmp_path / "absent" / "x.ctrl")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert [line.split(":")[0] for line in err
            if line.startswith("file error")] == ["file error"] * 2


def test_controller_file_roundtrip(tmp_path):
    cfg = load_config(TOY)
    ctrl, _ = synthesize_integrated(cfg.plant, cfg.specification, cfg.params,
                                    cfg.substeps)
    path = tmp_path / "roundtrip.ctrl"
    write_controller_file(str(path), ctrl)
    back = read_controller_file(str(path))
    assert np.array_equal(back.transitions, ctrl.transitions)
    assert np.array_equal(back.initials, ctrl.initials)
    assert np.array_equal(back.bad, ctrl.bad)
    assert back.state_lattice == ctrl.state_lattice
    assert back.input_lattice == ctrl.input_lattice
    # rewriting yields identical bytes
    again = tmp_path / "again.ctrl"
    write_controller_file(str(again), back)
    assert path.read_bytes() == again.read_bytes()


def line_by_line_rows(ctrl):
    """The transition lines as the line-by-line writer rendered them."""
    return [f"{int(src)} {int(uix)} {int(dst)}"
            for src, uix, dst in ctrl.transitions]


def test_controller_file_bytes_match_line_by_line_rendering(tmp_path):
    cfg = load_config(TOY)
    ctrl, _ = synthesize_baseline(cfg.plant, cfg.specification, cfg.params,
                                  cfg.substeps)
    # relational: more transitions than sources
    assert ctrl.n_transitions > np.unique(ctrl.transitions[:, 0]).size
    path = tmp_path / "base.ctrl"
    write_controller_file(str(path), ctrl)
    lines = path.read_text().split("\n")
    assert lines[7:] == line_by_line_rows(ctrl) + [""]
    back = read_controller_file(str(path))
    assert np.array_equal(back.transitions, ctrl.transitions)
    # a header line among the rows still sets its key, as it did
    moved = lines[:6] + lines[7:9] + [lines[6]] + lines[9:]
    path.write_text("\n".join(moved))
    again = read_controller_file(str(path))
    assert np.array_equal(again.transitions, ctrl.transitions)
    assert np.array_equal(again.bad, ctrl.bad)


@pytest.mark.parametrize("line", ["0 0", "0 0 1 2", "0 zero 1", "1.5 0 1",
                                  "0 0 1 # c"])
def test_malformed_transition_line_names_the_line(tmp_path, capsys, line):
    ctrl_path = tmp_path / "toy.ctrl"
    main(["synthesize", TOY, "--method", "baseline", "--out", str(ctrl_path)])
    lines = ctrl_path.read_text().splitlines()
    path = tmp_path / "bad.ctrl"
    path.write_text("\n".join(lines[:9] + [line] + lines[9:]) + "\n")
    with pytest.raises(ConfigError, match=repr(line)):
        read_controller_file(str(path))
    capsys.readouterr()
    assert main(["simulate", TOY, str(path), "--x0", "-0.25"]) == 1
    assert repr(line) in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("line", ["1.5 0 1", "1e3 0 1",
                                  "12345678901234567890 0 1"])
def test_rows_numpy_reads_via_float_name_the_line(tmp_path, capsys,
                                                  monkeypatch, line):
    # numpy 1.24 to 1.26 read a value that is no int64 as a float cast to
    # one, warning only (a DeprecationWarning, which the command line
    # ignores); with np.loadtxt doing so, the reader still refuses the line
    real = np.loadtxt

    def loadtxt(fh, dtype, **kwargs):
        try:
            return real(fh, dtype=dtype, **kwargs)
        except ValueError:
            warnings.warn("Parsing an integer via a float is deprecated",
                          DeprecationWarning)
            fh.seek(0)
            return real(fh, dtype=float, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    test_malformed_transition_line_names_the_line(tmp_path, capsys, line)


def test_controller_file_bytes_match_across_slices(tmp_path, monkeypatch):
    # the writer formats tsys._SLICE_ROWS rows at a time: at 7, the toy
    # baseline's 109 rows cross 15 slice boundaries
    monkeypatch.setattr(tsys, "_SLICE_ROWS", 7)
    test_controller_file_bytes_match_line_by_line_rendering(tmp_path)


def test_two_column_rows_name_the_first_line(tmp_path):
    # numpy reads such a body without complaint, two columns wide
    ctrl_path = tmp_path / "toy.ctrl"
    main(["synthesize", TOY, "--method", "baseline", "--out", str(ctrl_path)])
    lines = ctrl_path.read_text().splitlines()
    rows = [" ".join(line.split()[:2]) for line in lines[7:]]
    path = tmp_path / "two.ctrl"
    path.write_text("\n".join(lines[:7] + rows) + "\n")
    with pytest.raises(ConfigError, match=repr(rows[0])):
        read_controller_file(str(path))


def test_a_controller_file_suffix_is_only_a_name(tmp_path, capsys):
    # given a path, numpy picks a decompressor by the file name's suffix
    for name in ("toy.ctrl.gz", "toy.ctrl.bz2"):
        path = str(tmp_path / name)
        assert main(["synthesize", TOY, "--method", "baseline", "--out",
                     path]) == 0
        assert main(["simulate", TOY, path, "--x0", "-0.25"]) == 0


def line_by_line_read(path, state_lattice, input_lattice):
    """The controller in a file as a reader that takes it line by line sees
    it, for a file whose header lines set no key but `initials` and `bad`
    again.  A stripped line that starts with '#' sets the key before its
    first space; any other non-blank line must hold three integers within
    int64, and the first that does not raises ConfigError naming it."""
    header, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for raw in fh.read().split("\n"):
            line = raw.strip()
            if line.startswith("#"):
                key, _, rest = line[1:].partition(" ")
                header[key] = rest.strip()
            elif line:
                try:
                    row = [int(v) for v in line.split()]
                except ValueError:
                    row = []
                if len(row) != 3 or not all(-2 ** 63 <= v < 2 ** 63
                                            for v in row):
                    raise ConfigError(f"bad transition line: {line!r}")
                rows.append(row)
    try:
        return Controller(np.asarray(rows, dtype=np.int64).reshape(-1, 3),
                          [int(v) for v in header["initials"].split()],
                          [int(v) for v in header["bad"].split()],
                          state_lattice, input_lattice)
    except ValueError as exc:
        raise ConfigError(f"bad controller file: {exc}")


@st.composite
def _controller_bodies(draw, n_states, n_inputs):
    """Lines after a controller file's header: rows in range with spaces or
    tabs between their values, blank lines, `#initials` and `#bad` lines
    with the key ended by a space or a tab, other header lines, a stray
    '#', values numpy refuses or reads via a float (1_000, non-ASCII digits,
    1.5, 1e3, 20 and 21 digits) and rows
    of 2 or 4 columns; each line ended by LF or CRLF, the last perhaps by
    nothing.  The body may be empty."""
    gap = st.sampled_from([" ", "\t", "  ", " \t"])
    odd = st.sampled_from(["1_000", "\u0661\u0662", "\u0660",
                           "123456789012345678901", "12345678901234567890",
                           "-1", "+2", "1.5", "1e3", "x"])
    row = st.tuples(st.integers(0, n_states - 1), st.integers(0, n_inputs - 1),
                    st.integers(0, n_states - 1), gap).map(
        lambda r: r[3].join(map(str, r[:3])))
    line = st.one_of(
        row, row, row,
        st.sampled_from(["", " ", "\t", "#", "# x", "  #note  y", "#bad",
                         "0 0 1 # c", "0 0 1#", "# 0 0 1"]),
        st.tuples(st.sampled_from(["#initials", "#bad", "  #bad"]), gap,
                  st.lists(st.integers(-1, n_states), max_size=3)).map(
            lambda h: h[0] + h[1] + " ".join(map(str, h[2]))),
        st.lists(st.one_of(odd, st.integers(0, 3).map(str)), min_size=2,
                 max_size=4).map(" ".join))
    lines = draw(st.lists(line, max_size=12))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_drawn_bodies_read_as_line_by_line(tmp_path):
    # a valid header, then a drawn body: the reader gives what a line-by-line
    # reader gives, the same controller or the same error, which names the
    # line where the body has a bad one; DeprecationWarning is ignored, as
    # it is where the command line runs
    cfg = load_config(TOY)
    ctrl, _ = synthesize_baseline(cfg.plant, cfg.specification, cfg.params,
                                  cfg.substeps)
    path = tmp_path / "drawn.ctrl"
    write_controller_file(str(path), ctrl)
    header = "".join(path.read_text().splitlines(keepends=True)[:7])
    seen = {"read": 0, "line": 0, "file": 0}

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_controller_bodies(ctrl.n_states, ctrl.n_inputs))
    def check(body):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + body)
        try:
            expected = line_by_line_read(str(path), ctrl.state_lattice,
                                         ctrl.input_lattice)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                read_controller_file(str(path))
            assert str(got.value) == str(exc)
            seen["line" if "line" in str(exc) else "file"] += 1
            return
        back = read_controller_file(str(path))
        assert np.array_equal(back.transitions, expected.transitions)
        assert np.array_equal(back.initials, expected.initials)
        assert np.array_equal(back.bad, expected.bad)
        assert back.state_lattice == expected.state_lattice
        assert back.input_lattice == expected.input_lattice
        seen["read"] += 1

    check()
    assert min(seen.values()) > 0, seen


def test_controller_file_format_shape(tmp_path):
    cfg = load_config(TOY)
    ctrl, _ = synthesize_integrated(cfg.plant, cfg.specification, cfg.params,
                                    cfg.substeps)
    path = tmp_path / "fmt.ctrl"
    write_controller_file(str(path), ctrl)
    lines = path.read_text().splitlines()
    assert lines[0] == "#dim 1"
    assert lines[1].startswith("#eta ")
    assert lines[2].startswith("#mu ")
    assert lines[3].startswith("#state_box ")
    assert lines[4].startswith("#input_box ")
    assert lines[5].startswith("#initials ")
    assert lines[6].startswith("#bad")
    body = lines[7:]
    assert len(body) == ctrl.n_transitions
    srcs = [int(line.split()[0]) for line in body]
    assert srcs == sorted(srcs)


def test_simulate_conformant_run(tmp_path, capsys):
    ctrl_path = tmp_path / "toy.ctrl"
    main(["synthesize", TOY, "--method", "integrated", "--out", str(ctrl_path)])
    capsys.readouterr()
    ctrl = read_controller_file(str(ctrl_path))
    x0 = ctrl.state_lattice.point(int(ctrl.initials[0]))[0]
    trace_path = tmp_path / "trace.csv"
    code = main(["simulate", TOY, str(ctrl_path), "--x0", repr(float(x0)),
                 "--steps", "20", "--out", str(trace_path)])
    assert code == 0
    assert "[pass]" in capsys.readouterr().out
    rows = trace_path.read_text().splitlines()
    assert rows[0] == "k,x_1,u_1,s_1,deviation"
    assert len(rows) == 22  # header + 21 sampling instants
    assert rows[-1].split(",")[2] == ""  # final row has no input


def test_simulate_zero_steps(tmp_path, capsys):
    ctrl_path = tmp_path / "toy.ctrl"
    main(["synthesize", TOY, "--method", "integrated", "--out", str(ctrl_path)])
    capsys.readouterr()
    ctrl = read_controller_file(str(ctrl_path))
    x0 = ctrl.state_lattice.point(int(ctrl.initials[0]))[0]
    trace_path = tmp_path / "t0.csv"
    assert main(["simulate", TOY, str(ctrl_path), "--x0", repr(float(x0)),
                 "--steps", "0", "--out", str(trace_path)]) == 0
    assert len(trace_path.read_text().splitlines()) == 2


def test_simulate_x0_outside_init_exit1(tmp_path, capsys):
    ctrl_path = tmp_path / "toy.ctrl"
    main(["synthesize", TOY, "--method", "integrated", "--out", str(ctrl_path)])
    capsys.readouterr()
    assert main(["simulate", TOY, str(ctrl_path), "--x0", "0.9"]) == 1


def test_simulate_malformed_x0_exit1(tmp_path, capsys):
    ctrl_path = tmp_path / "toy.ctrl"
    main(["synthesize", TOY, "--method", "integrated", "--out", str(ctrl_path)])
    capsys.readouterr()
    assert main(["simulate", TOY, str(ctrl_path), "--x0", "a,b"]) == 1
    # a negative step count runs no period, so it is refused
    capsys.readouterr()
    assert main(["simulate", TOY, str(ctrl_path), "--x0", "-0.25",
                 "--steps", "-5"]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert "--steps" in captured.err and "[pass]" not in captured.out


def test_simulate_takes_a_negative_point_after_a_space(tmp_path, capsys):
    # -0.1,0.0 is no plain negative number, so argparse took it for an
    # option and left --x0 without a value; both spellings must run the
    # same closed loop from a controlled initial cell of linear example 1
    with open(LINEAR1) as fh:
        doc = json.load(fh)
    doc["params"]["mu"] = 0.01
    path = write_json(tmp_path / "linear_1.json", doc)
    ctrl_path = str(tmp_path / "linear_1.ctrl")
    assert main(["synthesize", path, "--out", ctrl_path]) == 0
    traces = []
    for x0 in (["--x0", "-0.1,0.0"], ["--x0=-0.1,0.0"]):
        out = tmp_path / f"trace{len(traces)}.csv"
        capsys.readouterr()
        assert main(["simulate", path, ctrl_path, *x0, "--steps", "5",
                     "--out", str(out)]) == 0
        assert "[pass]" in capsys.readouterr().out
        traces.append(out.read_text())
    assert traces[0] == traces[1]


def test_compare_reports_ratios_and_bisimilarity(capsys):
    assert main(["compare", TOY]) == 0
    out = capsys.readouterr().out
    assert "exactly bisimilar" in out
    for name in ("states", "transitions", "memory_units", "steps",
                 "rows_flowed", "rows_landed"):
        assert name in out
