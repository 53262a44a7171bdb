import json
import os

import numpy as np
import pytest

from symctrl.cli import (ConfigError, load_config, main, read_controller_file,
                         write_controller_file)
from symctrl import (abstraction, synthesis, synthesize_integrated,
                     synthesize_baseline)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
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
        if name.startswith("certificate") or name == "gamma_nan":
            # the message names the section once, not once per wrapper
            assert err.count("plant") + err.count("specification") == 1, err
    with pytest.raises(ConfigError, match="substeps"):
        load_config(write_json(tmp_path / "s.json",
                               broken["substeps_fraction"]))


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
    capsys.readouterr()
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
    assert ctrl.n_transitions > ctrl.sources().size  # relational
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


@pytest.mark.parametrize("line", ["0 0", "0 0 1 2", "0 zero 1", "1.5 0 1"])
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
