"""Command-line interface: exit codes, artifacts, and report documents."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvnn.cli
import qvnn.lowering
import qvnn.sdp
from oracles import (
    qv_modulus,
    shrunk_random_model,
    write_diagnostics_csv_rows,
    write_lkf_csv_rows,
    write_summary_csv_rows,
    write_trajectory_csv_rows,
)
from qvnn.cli import (
    _run_entry,
    _start_for_seed,
    _write_diagnostics_csv,
    _write_lkf_csv,
    _write_summary_csv,
    _write_trajectory_csv,
    main,
)
from qvnn.errors import NumericalError
from qvnn.lkf import lkf_trace
from qvnn.lmi import DecisionVars, verify_certificate
from qvnn.model import config_hash, load_model
from qvnn.qmatrix import QuatMatrix, mat_vec, qmat_to_json, qv_from_components
from qvnn.sdp import FeasibilityResult, IterationRecord
from qvnn.simulate import activation, integrate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---- certify ---------------------------------------------------------------------


def test_certify_writes_a_reusable_certificate(tmp_path, capsys,
                                               stable_example_path):
    cert = tmp_path / "cert.json"
    diag = tmp_path / "diag.csv"
    code, out, _ = run_cli(capsys, "certify", str(stable_example_path),
                           "--out", str(cert), "--diagnostics", str(diag),
                           "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "certified"
    assert report["solver_status"] == "feasible"
    assert report["margin"] >= 1e-6
    assert report["recheck_valid"] is True
    assert report["num_variables"] == 136
    assert report["gap"] <= 1e-8
    assert report["failure_cause"] is None
    assert len(report["per_constraint_min_eig"]) == 15
    assert min(report["per_constraint_min_eig"].values()) >= report["margin"] - 1e-9
    # the solver's phases are timed; only the schema is fixed
    assert list(report["timings"]) == [
        "build_seconds", "solve_seconds", "schur_seconds", "factor_seconds",
        "step_seconds"]
    assert all(isinstance(v, float) and v >= 0.0
               for v in report["timings"].values())

    # the emitted certificate re-verifies against a fresh model load
    cert_doc = json.loads(cert.read_text())
    model, doc = load_model(str(stable_example_path))
    assert cert_doc["config_hash"] == config_hash(doc)
    dv = DecisionVars.from_json(cert_doc["variables"], model.n)
    recheck = verify_certificate(model, dv, margin=0.5 * cert_doc["margin"])
    assert recheck.valid

    manifest = json.loads((tmp_path / "cert.manifest.json").read_text())
    assert manifest["command"] == "certify"
    assert manifest["seed"] is None
    assert str(cert) in manifest["output_paths"]
    assert manifest["config_hash"] == config_hash(doc)

    header, rows = read_csv(diag)
    assert header == ["iteration", "t", "bound", "gap", "primal_residual",
                      "primal_step", "dual_step", "min_eig"]
    assert [int(r[0]) for r in rows] == list(range(1, report["iterations"] + 1))
    assert float(rows[-1][3]) == pytest.approx(report["gap"], rel=1e-6)
    assert all(0.0 < float(r[5]) <= 1.0 and 0.0 < float(r[6]) <= 1.0
               for r in rows)


def test_certify_reports_failure_honestly(capsys, reference_example_path):
    code, out, _ = run_cli(capsys, "certify", str(reference_example_path),
                           "--json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "not_certified"
    assert report["solver_status"] == "infeasible_at_tolerance"
    assert report["margin"] < 1e-6
    assert "recheck_valid" not in report


def test_certify_rejects_malformed_configs(tmp_path, capsys,
                                          stable_example_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "certify", str(bad))
    assert code == 2
    assert "input error" in err
    code, _, err = run_cli(capsys, "certify", str(tmp_path / "missing.json"))
    assert code == 2
    # a neuron count is a JSON integer: none of these is read as n = 2
    doc = json.loads(stable_example_path.read_text())
    for n in (2.7, "2", True, 2.0):
        bad.write_text(json.dumps(dict(doc, n=n)))
        code, _, err = run_cli(capsys, "certify", str(bad))
        assert code == 2, n
        assert "input error" in err and "n must be a JSON integer" in err


def test_certify_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"n": "\xe9"}')
    code, _, err = run_cli(capsys, "certify", str(bad))
    assert code == 2
    assert "is not valid JSON" in err


@pytest.mark.parametrize("key", ["external_input"])
def test_certify_refuses_a_ragged_vector(tmp_path, capsys, stable_example_path,
                                         key):
    doc = json.loads(stable_example_path.read_text())
    doc[key] = [[0.1, 0.0, 0.0, 0.0], [0.2]]
    bad = tmp_path / "ragged.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "certify", str(bad))
    assert code == 2
    assert "input error" in err and key in err


def _set_a_rows(doc, value):
    doc["A"]["rows"] = value


def _set_a_component(doc, value):
    doc["A"]["entries"][0][1] = value


def _set_d1_amplitude(doc, value):
    doc["delay_functions"]["d1"]["amplitude"] = value


# each value is refused where the old readers took float() or int() of it
MISTYPED_CONFIG_FIELDS = {
    "delta string": lambda doc: doc.update(delta="0.03"),
    "delta bool": lambda doc: doc.update(delta=True),
    "C string": lambda doc: doc.update(C=["8", 12]),
    "gamma bool": lambda doc: doc.update(gamma=[True, 0.2]),
    "A rows fraction": lambda doc: _set_a_rows(doc, 2.9),
    "A rows string": lambda doc: _set_a_rows(doc, "2"),
    "A entry string": lambda doc: _set_a_component(doc, "0.15"),
    "d1 amplitude string": lambda doc: _set_d1_amplitude(doc, "0.45"),
    "delay_functions list": lambda doc: doc.update(delay_functions=["d1"]),
    "delay_functions string": lambda doc: doc.update(delay_functions="d1"),
}


@pytest.mark.parametrize("site", sorted(MISTYPED_CONFIG_FIELDS))
def test_a_config_value_of_the_wrong_json_type_is_refused(
        tmp_path, capsys, monkeypatch, stable_example_path, site):
    # a number is a JSON number, rows and cols JSON integers, and
    # delay_functions a JSON object: nothing is converted on the way in
    def no_work(*args, **kwargs):
        raise AssertionError("a mistyped config reached the solver")

    monkeypatch.setattr(qvnn.cli, "_certify_model", no_work)
    doc = json.loads(stable_example_path.read_text())
    MISTYPED_CONFIG_FIELDS[site](doc)
    config = tmp_path / "mistyped.json"
    config.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "certify", str(config))
    assert code == 2
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "simulate"])
def test_an_unclamped_delay_is_refused_at_load(tmp_path, capsys,
                                               stable_example_path, command):
    # every delay waveform is clamped at zero; a config that asks otherwise
    # describes a model outside the criterion's hypotheses
    doc = json.loads(stable_example_path.read_text())
    doc["delay_functions"]["d2"]["clamp_negative"] = False
    config = tmp_path / "unclamped.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "runs"
    extra = (["--horizon", "5", "--out-dir", str(out_dir)]
             if command == "simulate" else [])
    code, _, err = run_cli(capsys, command, str(config), *extra)
    assert code == 2
    assert "clamp_negative" in err
    assert not out_dir.exists()


NONFINITE_SITES = {
    "matrix entry": lambda doc: doc["A"]["entries"][1],
    "rate": lambda doc: doc["C"],
    "scalar bound": lambda doc: doc["gamma"],
    "waveform amplitude": lambda doc: doc["delay_functions"]["d2"],
    "waveform omega": lambda doc: doc["delay_functions"]["d1"],
}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "1e400", "huge integer"])
@pytest.mark.parametrize("site", sorted(NONFINITE_SITES))
def test_a_nonfinite_config_number_is_refused_at_load(tmp_path, capsys,
                                                      monkeypatch,
                                                      stable_example_path,
                                                      site, literal):
    # json reads NaN and Infinity, an overflowing literal as inf, and an
    # integer past the float range; no command may start work on such a
    # config or write anything for it
    doc = json.loads(stable_example_path.read_text())
    holder = NONFINITE_SITES[site](doc)
    key = {"waveform amplitude": "amplitude",
           "waveform omega": "omega"}.get(site, 0)
    holder[key] = "@"
    config = tmp_path / "nonfinite.json"
    config.write_text(json.dumps(doc).replace('"@"', literal))

    def no_work(*args, **kwargs):
        raise AssertionError("a non-finite config reached the solver or "
                             "the integrator")

    monkeypatch.setattr(qvnn.cli, "_certify_model", no_work)
    monkeypatch.setattr(qvnn.cli, "integrate", no_work)
    out_dir = tmp_path / "runs"
    for argv in (["certify", str(config), "--out", str(out_dir / "c.json")],
                 ["simulate", str(config), "--out-dir", str(out_dir)],
                 ["margin", str(config), "--param", "delta",
                  "--bracket", "0.01,0.1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv[0]
        assert "finite" in err
        assert not out_dir.exists()


def test_a_delay_whose_square_overflows_is_refused_at_load(
        tmp_path, capsys, monkeypatch, stable_example_path):
    # the criterion weighs P3 by delta^2: a finite delta whose square is not
    # finite would turn the lowered coefficients into inf and NaN
    def no_work(*args, **kwargs):
        raise AssertionError("an overflowing delay reached the solver")

    monkeypatch.setattr(qvnn.cli, "_certify_model", no_work)
    for param in ("delta", "d1", "d2"):
        doc = json.loads(stable_example_path.read_text())
        doc[param] = 1e200
        doc.pop("delay_functions", None)
        config = tmp_path / f"{param}.json"
        config.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "certify", str(config))
        assert code == 2, param
        assert f"{param} = 1e+200 is too large" in err
        assert "homogeneous" not in err


def test_a_large_delay_certifies_without_overflow(tmp_path, capsys,
                                                  stable_example_path):
    # delta^2 = 1e200 is finite, and scaling takes its coefficients' norms
    # without squaring them
    doc = json.loads(stable_example_path.read_text())
    doc["delta"] = 1e100
    config = tmp_path / "large_delta.json"
    config.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "certify", str(config), "--json")
    assert code in (0, 1)
    assert json.loads(out)["solver_status"] != "numerical_failure"
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def diagnostics_of(trace, tmp_path, capsys, monkeypatch, config_path):
    """The diagnostics CSV that certify writes for a stubbed solver trace."""
    def recorded(sdp, config):
        return FeasibilityResult(
            status="infeasible_at_tolerance", margin=-0.125, x=None,
            per_constraint_min_eig={}, iterations=len(trace),
            wall_time=0.0, trace=trace)

    monkeypatch.setattr(qvnn.cli, "solve_feasibility", recorded)
    diag = tmp_path / "diag.csv"
    code, _, _ = run_cli(capsys, "certify", str(config_path),
                         "--diagnostics", str(diag), "--json")
    assert code == 1
    return read_csv(diag)


def test_diagnostics_csv_records_the_step_lengths(
        tmp_path, capsys, monkeypatch, stable_example_path):
    trace = [IterationRecord(1, -0.5, 2.0, 2.5, 0.25, 0.875, 1.0, -0.25),
             IterationRecord(2, -0.25, 0.5, 0.75, 0.0, 0.5, 0.0625, -0.125)]
    header, rows = diagnostics_of(trace, tmp_path, capsys, monkeypatch,
                                  stable_example_path)
    assert header[5:7] == ["primal_step", "dual_step"]
    assert [r[5:7] for r in rows] == [["8.750000e-01", "1.000000e+00"],
                                      ["5.000000e-01", "6.250000e-02"]]


def test_diagnostics_csv_records_the_gap_and_residual(
        tmp_path, capsys, monkeypatch, stable_example_path):
    trace = [IterationRecord(1, -0.5, 2.0, 2.5, 0.25, 0.875, 1.0, -0.25),
             IterationRecord(2, -0.125, 3.25e-12, 0.125, 1.5e-9, 1.0, 1.0,
                             -0.125)]
    header, rows = diagnostics_of(trace, tmp_path, capsys, monkeypatch,
                                  stable_example_path)
    assert header[:5] == ["iteration", "t", "bound", "gap", "primal_residual"]
    assert [r[2:5] for r in rows] == [
        ["2.000000000000e+00", "2.500000e+00", "2.500000e-01"],
        ["3.250000000000e-12", "1.250000e-01", "1.500000e-09"]]


@pytest.mark.parametrize("command", ["certify", "margin"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_a_margin_tolerance_that_cannot_be_met_is_refused(
        capsys, monkeypatch, stable_example_path, command, tol):
    def no_work(*args, **kwargs):
        raise AssertionError("the config was read before the flags")

    monkeypatch.setattr(qvnn.cli, "load_model", no_work)
    monkeypatch.setattr(qvnn.cli, "solve_feasibility", no_work)
    bracket = (["--param", "delta", "--bracket", "0.01,0.1"]
               if command == "margin" else [])
    code, out, err = run_cli(capsys, command, str(stable_example_path),
                             *bracket, "--margin-tol", tol, "--json")
    assert code == 2
    assert out == ""
    assert "--margin-tol must be positive and finite" in err


def test_certify_text_output_summarizes_the_run(capsys, stable_example_path):
    code, out, _ = run_cli(capsys, "certify", str(stable_example_path))
    assert code == 0
    assert "status:  certified" in out
    assert "Newton steps" in out


# ---- simulate --------------------------------------------------------------------


def test_simulate_runs_converge_and_track_the_functional(tmp_path, capsys,
                                                         stable_example_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", str(stable_example_path),
                         "--out", str(cert))
    assert code == 0
    out_dir = tmp_path / "runs"
    code, out, _ = run_cli(capsys, "simulate", str(stable_example_path),
                           "--seeds", "2", "--horizon", "6", "--step", "0.005",
                           "--lkf", str(cert), "--lkf-stride", "100",
                           "--out-dir", str(out_dir), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_converged"] is True
    assert isinstance(report["linear_blend_lookups"], int)
    assert report["linear_blend_lookups"] >= 0
    # the run's phases are timed; only the schema is fixed
    assert list(report["timings"]) == [
        "integrate_seconds", "metrics_seconds", "lkf_seconds",
        "write_seconds"]
    assert all(isinstance(v, float) and v >= 0.0
               for v in report["timings"].values())
    assert "equilibrium" not in report
    assert len(report["runs"]) == 2
    for entry in report["runs"]:
        assert entry["converged"] is True
        assert entry["time_to_threshold"] is not None

    header, rows = read_csv(out_dir / "trajectory_seed0.csv")
    assert header[0] == "time"
    assert header[1:5] == ["n1_w", "n1_x", "n1_y", "n1_z"]
    assert header[5:9] == ["n2_w", "n2_x", "n2_y", "n2_z"]
    assert len(rows) == 1201
    s_header, s_rows = read_csv(out_dir / "summary.csv")
    assert s_header == ["seed", "status", "final_sup", "peak",
                        "time_to_threshold", "envelope_bounded"]
    assert len(s_rows) == 2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert str(out_dir / "summary.csv") in manifest["output_paths"]

    lkf = report["lkf"]
    assert lkf["v_start"] > 0.0
    assert lkf["v_end"] < lkf["v_start"]
    assert lkf["max_rise"] <= 1e-6 * lkf["v_start"]
    header, rows = read_csv(lkf["csv"])
    assert header == ["time", "v1", "v2", "v3", "v4", "v_total"]
    for row in rows:
        total = sum(float(c) for c in row[1:5])
        assert total == pytest.approx(float(row[5]), rel=1e-6, abs=1e-12)


def test_csv_block_writes_equal_the_row_writers(tmp_path, stable_model,
                                                stable_solution):
    result, dv = stable_solution
    start = np.array([[0.6 - 0.3j, -0.4 + 0.2j], [0.5 + 0.5j, 0.3 - 0.6j]])
    (traj,) = integrate(stable_model, [start], horizon=1.5, step=1e-3)
    trace = lkf_trace(traj, dv, stride=7)
    # a run that reaches the threshold, one that never does, and one that
    # diverged, whose metric fields are empty
    entries = [_run_entry(0, traj, SimpleNamespace(threshold=1e-3)),
               _run_entry(1, traj, SimpleNamespace(threshold=1e-300)),
               {"seed": 2, "status": "diverged", "diverged_at": 6.625}]
    assert entries[0]["time_to_threshold"] is not None
    assert entries[1]["time_to_threshold"] is None
    for block, rows, data in (
            (_write_trajectory_csv, write_trajectory_csv_rows, traj),
            (_write_lkf_csv, write_lkf_csv_rows, trace),
            (_write_diagnostics_csv, write_diagnostics_csv_rows, result.trace),
            (_write_summary_csv, write_summary_csv_rows, entries),
            # zero-row tables: the header alone
            (_write_diagnostics_csv, write_diagnostics_csv_rows, []),
            (_write_summary_csv, write_summary_csv_rows, [])):
        block(tmp_path / "block.csv", data)
        rows(tmp_path / "rows.csv", data)
        assert ((tmp_path / "block.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())


def test_simulate_rejects_bad_numerics(tmp_path, capsys, stable_example_path):
    code, _, err = run_cli(capsys, "simulate", str(stable_example_path),
                           "--seeds", "1", "--horizon", "0",
                           "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("flag, value", [
    ("--step", "nan"), ("--step", "inf"), ("--step", "0"),
    ("--horizon", "nan"), ("--horizon", "inf"), ("--horizon", "-1"),
    ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "0"),
])
def test_simulate_refuses_a_number_that_is_not_positive_and_finite(
        tmp_path, capsys, monkeypatch, stable_example_path, flag, value):
    def no_work(*args, **kwargs):
        raise AssertionError("the config was read before the flags")

    monkeypatch.setattr(qvnn.cli, "load_model", no_work)
    monkeypatch.setattr(qvnn.cli, "integrate", no_work)
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(capsys, "simulate", str(stable_example_path),
                             flag, value, "--out-dir", str(out_dir), "--json")
    assert code == 2
    assert out == ""
    assert f"{flag} must be positive and finite" in err
    assert not out_dir.exists()


def test_simulate_refuses_a_grid_larger_than_memory(tmp_path, capsys,
                                                    stable_example_path):
    # 2e16 steps: the size is checked before any node or file is made
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(capsys, "simulate", str(stable_example_path),
                             "--seeds", "1", "--step", "1e-15",
                             "--out-dir", str(out_dir), "--json")
    assert code == 2
    assert out == ""
    assert "physical memory" in err
    assert not out_dir.exists()


def test_simulate_refuses_more_seeds_than_memory_before_drawing_one(
        tmp_path, capsys, monkeypatch, stable_example_path):
    # 1e11 members need about 1.3e17 bytes of nodes: the size is checked
    # before the first start is drawn, so no draw may happen
    def no_draw(model, seed):
        raise AssertionError("a start was drawn before the size was checked")

    monkeypatch.setattr(qvnn.cli, "_start_for_seed", no_draw)
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(capsys, "simulate", str(stable_example_path),
                             "--seeds", "100000000000", "--horizon", "1",
                             "--out-dir", str(out_dir), "--json")
    assert code == 2
    assert out == ""
    assert "input error" in err and "physical memory" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [
    ["certify"], ["margin", "--param", "delta", "--bracket", "0.01,0.1"],
], ids=["certify", "margin"])
def test_a_criterion_larger_than_memory_is_refused_before_it_is_built(
        tmp_path, capsys, monkeypatch, stable_example_path, command):
    # at n = 6 the lowering holds more than 64 MiB at once: with that much
    # physical memory the model is refused before the criterion is evaluated
    def no_build(*args, **kwargs):
        raise AssertionError("the criterion was built before its size was "
                             "checked")

    monkeypatch.setattr(qvnn.lowering, "physical_memory", lambda: 64 * 2 ** 20)
    monkeypatch.setattr(qvnn.lowering, "quat_constraints", no_build)
    doc = json.loads(stable_example_path.read_text())
    coupling = qmat_to_json(QuatMatrix.from_real(0.01 * np.eye(6)))
    doc.update(n=6, C=[8.0] * 6, gamma=[0.2] * 6, A=coupling, B=coupling)
    config = tmp_path / "n6.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command[0], str(config), *command[1:])
    assert code == 2
    assert out == ""
    assert "input error" in err and "physical memory" in err


@pytest.mark.parametrize("flag", ["--seeds", "--lkf-stride"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_simulate_refuses_a_count_below_one(tmp_path, capsys, monkeypatch,
                                            stable_example_path, flag, count):
    def no_load(path):
        raise AssertionError("the config was read before the flags")

    monkeypatch.setattr(qvnn.cli, "load_model", no_load)
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(capsys, "simulate", str(stable_example_path),
                             flag, count, "--out-dir", str(out_dir), "--json")
    assert code == 2
    assert out == ""
    assert flag in err
    assert not out_dir.exists()


def test_simulate_refuses_a_negative_seed(tmp_path, capsys, monkeypatch,
                                          stable_example_path):
    # a seed below 0 cannot draw a start; it is refused like a bad count,
    # before the config is read or a file is written
    def no_load(path):
        raise AssertionError("the config was read before the flags")

    monkeypatch.setattr(qvnn.cli, "load_model", no_load)
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(capsys, "simulate", str(stable_example_path),
                             "--seed", "-1", "--out-dir", str(out_dir),
                             "--json")
    assert code == 2
    assert out == ""
    assert "input error: --seed must be at least 0" in err
    assert not out_dir.exists()


def test_a_config_cannot_set_the_rest_point(tmp_path, capsys,
                                            stable_example_path):
    # the rest point is computed, never read: an "equilibrium" key changes
    # nothing that simulate writes
    doc = json.loads(stable_example_path.read_text())
    tagged = dict(doc, equilibrium=[[0.5, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    written = []
    for name, config_doc in (("plain", doc), ("tagged", tagged)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(config_doc))
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "simulate", str(config), "--seeds", "2",
                             "--horizon", "1.5", "--out-dir", str(out_dir))
        assert code == 0
        written.append({p.name: p.read_bytes()
                        for p in sorted(out_dir.glob("trajectory_seed*.csv"))})
    assert sorted(written[0]) == ["trajectory_seed0.csv", "trajectory_seed1.csv"]
    assert written[0] == written[1]


def test_simulate_flags_divergence_without_crashing(tmp_path, capsys,
                                                    reference_example_path):
    out_dir = tmp_path / "runs"
    code, out, _ = run_cli(capsys, "simulate", str(reference_example_path),
                           "--seeds", "1", "--horizon", "20",
                           "--step", "0.01", "--out-dir", str(out_dir),
                           "--json")
    assert code == 1
    report = json.loads(out)
    entry = report["runs"][0]
    assert entry["status"] == "diverged"
    assert 0.0 < entry["diverged_at"] < 20.0
    # the clamped delays reach zero before the run diverges
    assert isinstance(report["linear_blend_lookups"], int)
    assert report["linear_blend_lookups"] > 0


def test_simulate_measures_a_driven_network_about_its_rest_point(
        tmp_path, capsys, stable_example_path):
    doc = json.loads(stable_example_path.read_text())
    doc["external_input"] = [[1.0, 0.5, -0.5, 0.2], [0.3, -0.8, 0.4, 0.1]]
    config = tmp_path / "driven.json"
    config.write_text(json.dumps(doc))
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", str(config), "--out", str(cert))
    assert code == 0
    out_dir = tmp_path / "runs"
    code, out, _ = run_cli(capsys, "simulate", str(config), "--seeds", "2",
                           "--horizon", "3", "--step", "0.005",
                           "--lkf", str(cert), "--lkf-stride", "50",
                           "--out-dir", str(out_dir), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_converged"] is True
    assert all(e["final_sup"] < 1e-3 for e in report["runs"])
    assert report["lkf"]["max_rise"] <= 1e-6 * report["lkf"]["v_start"]

    # the rest point solves C y = (A + B) f(y) + u, and the CSV holds the
    # deviation from it
    model, _ = load_model(str(config))
    rest = np.asarray(report["equilibrium"])
    assert rest.shape == (2, 4)
    pair = qv_from_components(rest)
    f = activation(pair, model.gamma_diag)
    residual = (mat_vec(model.a_mat, f) + mat_vec(model.b_mat, f)
                + model.external_input - model.c_diag * pair)
    assert np.max(np.abs(residual)) < 1e-10
    _, rows = read_csv(out_dir / "trajectory_seed0.csv")
    assert max(abs(float(c)) for c in rows[-1][1:]) < 1e-3


def model_config(model) -> dict:
    """The config of a model with constant delays and no input."""
    return {"n": model.n, "C": model.c_diag.tolist(),
            "A": qmat_to_json(model.a_mat), "B": qmat_to_json(model.b_mat),
            "delta": model.delta, "d1": model.d1_bound, "d2": model.d2_bound,
            "mu1": model.mu1, "mu2": model.mu2,
            "gamma": model.gamma_diag.tolist()}


def run_quietly(*argv):
    """Exit code and stdout of one CLI call, without pytest's capture
    fixtures (which hypothesis does not reset between examples)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=10, derandomize=True, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 50),
       drive=st.none() | st.lists(st.floats(-0.5, 0.5), min_size=8,
                                  max_size=8))
def test_certified_random_models_converge_and_their_functional_decays(
        n, seed, drive):
    # the whole chain on small random models: whatever certifies has
    # orbits that shrink and a functional that does not rise
    model = shrunk_random_model(n, 0.05, seed)
    doc = model_config(model)
    if drive is not None:
        doc["external_input"] = np.reshape(drive[:4 * n], (n, 4)).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        config, cert = Path(tmp) / "model.json", Path(tmp) / "cert.json"
        config.write_text(json.dumps(doc))
        if run_quietly("certify", str(config), "--out", str(cert))[0] != 0:
            return
        code, out = run_quietly("simulate", str(config), "--seeds", "2",
                                "--horizon", "4", "--step", "0.01",
                                "--lkf", str(cert), "--lkf-stride", "5",
                                "--out-dir", str(Path(tmp) / "runs"), "--json")
    assert code in (0, 1)
    report = json.loads(out)
    for entry in report["runs"]:
        assert entry["status"] == "completed", entry
        start = _start_for_seed(model, entry["seed"])
        assert entry["final_sup"] < np.max(qv_modulus(start)), entry
    lkf = report["lkf"]
    assert lkf["max_rise"] <= 1e-6 * lkf["v_start"], lkf


# ---- margin ----------------------------------------------------------------------


def test_margin_bisects_the_leak_delay(capsys, stable_example_path):
    code, out, _ = run_cli(capsys, "margin", str(stable_example_path),
                           "--param", "delta", "--bracket", "0.03,0.2",
                           "--tol", "0.05", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["param"] == "delta"
    assert 0.03 <= report["feasible_up_to"] < report["infeasible_from"] <= 0.2
    assert report["bracket_width"] <= 0.05
    statuses = {p["value"]: p["status"] for p in report["probes"]}
    assert statuses[0.03] == "feasible"
    assert statuses[0.2] == "infeasible_at_tolerance"


def test_margin_pins_a_waveform_below_its_bound(capsys, stable_example_path):
    # d1's sinusoid peaks at 0.7; each probe pins it to the constant at the
    # probed bound, so a bound below the peak is a valid config too
    code, out, _ = run_cli(capsys, "margin", str(stable_example_path),
                           "--param", "d1", "--bracket", "0.3,30",
                           "--tol", "0.05", "--json")
    assert code == 0
    report = json.loads(out)
    assert 0.7 <= report["feasible_up_to"] < report["infeasible_from"]
    assert report["bracket_width"] <= 0.05


def test_margin_reports_a_solver_breakdown_with_exit_3(capsys, monkeypatch,
                                                       stable_example_path):
    def broken(*args, **kwargs):
        raise NumericalError("the Schur complement is singular")

    monkeypatch.setattr(qvnn.sdp, "_iterate_once", broken)
    code, out, err = run_cli(capsys, "margin", str(stable_example_path),
                             "--param", "delta", "--bracket", "0.01,0.1")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: solver failed at delta=0.01")


def test_margin_requires_a_sign_change(capsys, stable_example_path):
    code, out, _ = run_cli(capsys, "margin", str(stable_example_path),
                           "--param", "delta", "--bracket", "0.01,0.03",
                           "--tol", "0.05")
    assert code == 2
    assert "bracket error" in out


def test_margin_json_reports_a_bracket_error(capsys, stable_example_path):
    code, out, _ = run_cli(capsys, "margin", str(stable_example_path),
                           "--param", "delta", "--bracket", "0.01,0.03",
                           "--tol", "0.05", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "bracket"
    assert report["param"] == "delta"
    assert [p["value"] for p in report["probes"]] == [0.01, 0.03]
    assert [p["status"] for p in report["probes"]] == ["feasible", "feasible"]
    assert all(p["margin"] > 0.0 for p in report["probes"])


def test_margin_validates_the_bracket_string(capsys, stable_example_path):
    code, _, err = run_cli(capsys, "margin", str(stable_example_path),
                           "--param", "delta", "--bracket", "nonsense")
    assert code == 2
    assert "input error" in err
    code, _, err = run_cli(capsys, "margin", str(stable_example_path),
                           "--param", "delta", "--bracket", "0.5,0.2")
    assert code == 2


@pytest.mark.parametrize("tol", ["0", "-1", "inf"])
def test_margin_refuses_a_tolerance_bisection_cannot_reach(
        capsys, monkeypatch, stable_example_path, tol):
    def no_probe(*args, **kwargs):
        raise AssertionError("probed before the tolerance was checked")

    monkeypatch.setattr(qvnn.cli, "_probe", no_probe)
    code, _, err = run_cli(capsys, "margin", str(stable_example_path),
                           "--param", "delta", "--bracket", "0.01,0.1",
                           "--tol", tol)
    assert code == 2
    assert "--tol must be positive" in err


def test_margin_stops_at_two_adjacent_floats(capsys, monkeypatch,
                                             stable_example_path):
    # a --tol below the float spacing of the bracket cannot be met: the
    # bisection ends once the midpoint equals an end
    probed = []

    def boundary_at_005(doc, param, value, margin_tol):
        probed.append(value)
        assert len(probed) < 200, "the bisection did not stop"
        status = "feasible" if value < 0.05 else "infeasible_at_tolerance"
        return {"value": value, "status": status, "margin": 0.05 - value}

    monkeypatch.setattr(qvnn.cli, "_probe", boundary_at_005)
    code, out, _ = run_cli(capsys, "margin", str(stable_example_path),
                           "--param", "delta", "--bracket", "0.01,0.1",
                           "--tol", "1e-20", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["infeasible_from"] == np.nextafter(report["feasible_up_to"],
                                                     np.inf)
    assert report["feasible_up_to"] < 0.05 <= report["infeasible_from"]


@pytest.mark.parametrize("command", ["certify", "margin"])
def test_certify_and_margin_take_no_seed(capsys, stable_example_path, command):
    # the solver's starts are fixed; only simulate draws seeded states
    bracket = (["--param", "delta", "--bracket", "0.01,0.1"]
               if command == "margin" else [])
    with pytest.raises(SystemExit) as done:
        main([command, str(stable_example_path), *bracket, "--seed", "1"])
    assert done.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# ---- parser ----------------------------------------------------------------------


def test_the_subcommands_are_certify_simulate_and_margin(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert "{certify,simulate,margin}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as done:
        main(["oracles"])
    assert done.value.code == 2
    assert "invalid choice: 'oracles'" in capsys.readouterr().err


def test_importing_the_cli_and_certifying_loads_no_scipy(stable_example_path):
    # numpy is the only runtime dependency: a cold certify loads no scipy
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "\n".join([
        "import contextlib, io, json, sys",
        "import qvnn.cli",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    code = qvnn.cli.main(['certify', sys.argv[1], '--json'])",
        "print(json.dumps([code, json.loads(out.getvalue())['status'],",
        "                  sorted(sys.modules)]))"])
    done = subprocess.run([sys.executable, "-c", probe, str(stable_example_path)],
                          env=env, capture_output=True, text=True, check=True)
    code, status, loaded = json.loads(done.stdout)
    assert (code, status) == (0, "certified")
    assert "qvnn.cli" in loaded and "qvnn.sdp" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_version_flag_prints_and_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_simulate_refuses_a_certificate_of_another_config(tmp_path, capsys,
                                                          stable_example_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", str(stable_example_path),
                         "--out", str(cert))
    assert code == 0
    doc = json.loads(stable_example_path.read_text())
    doc["delta"] = doc["delta"] * 1.1
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "simulate", str(other), "--seeds", "1",
                           "--horizon", "0.1", "--step", "0.01",
                           "--lkf", str(cert), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "another config" in err
    assert not (tmp_path / "o" / "summary.csv").exists()

    # a matching hash with the wrong dimension is refused as well
    cert_doc = json.loads(cert.read_text())
    cert_doc["n"] = cert_doc["n"] + 1
    cert.write_text(json.dumps(cert_doc))
    code, _, err = run_cli(capsys, "simulate", str(stable_example_path),
                           "--seeds", "1", "--horizon", "0.1", "--step", "0.01",
                           "--lkf", str(cert), "--out-dir", str(tmp_path / "p"))
    assert code == 2
    assert "n = 3" in err


@pytest.mark.parametrize("tamper, message", [
    ("negated", "fails its recheck"),
    ("nan", "numbers must be finite, got NaN"),
    ("overflow", "fails its recheck"),
    ("missing", "cannot read certificate"),
], ids=["negated", "nan", "overflow", "missing"])
def test_simulate_refuses_a_certificate_that_fails_its_recheck(
        tmp_path, capsys, stable_example_path, tamper, message):
    # hash and n match the config, but the matrices no longer certify it: the
    # certificate is rechecked at half its margin, as certify checks it
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", str(stable_example_path),
                         "--out", str(cert))
    assert code == 0
    cert_doc = json.loads(cert.read_text())
    p1 = cert_doc["variables"]["p1"]["entries"]
    if tamper == "negated":
        p1[:] = [[-v for v in entry] for entry in p1]
    elif tamper == "nan":
        p1[0][0] = float("nan")
    else:
        # P1 C overflows in Omega's (1, 1) block, so the recheck scores NaN
        p1[0][0] = p1[3][0] = 8e307
    cert.write_text(json.dumps(cert_doc))
    if tamper == "missing":
        cert.unlink()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "simulate", str(stable_example_path),
                                 "--seeds", "1", "--horizon", "0.1", "--step",
                                 "0.01", "--lkf", str(cert), "--json",
                                 "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert message in err
    assert not (tmp_path / "o").exists()
    assert [str(w.message) for w in seen] == []


def _scaled_numbers(obj, factor: float):
    """Every float in a JSON document times ``factor``, clamped to the float
    range."""
    if isinstance(obj, dict):
        return {k: _scaled_numbers(v, factor) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_scaled_numbers(v, factor) for v in obj]
    if isinstance(obj, float):
        return float(np.clip(obj * factor, -sys.float_info.max, sys.float_info.max))
    return obj


@pytest.mark.parametrize("factor", [1e307, 1e308])
def test_simulate_traces_a_certificate_near_the_float_range(
        tmp_path, capsys, stable_example_path, factor):
    # the scaled certificate passes its recheck at half the scaled margin,
    # and its functional, the factor times that of the certificate (about
    # 2e304 and 2e305), is within the float range: it is traced, not refused
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", str(stable_example_path),
                         "--out", str(cert))
    assert code == 0
    args = ("--seeds", "1", "--horizon", "1.5", "--lkf-stride", "1", "--json")
    code, out, _ = run_cli(capsys, "simulate", str(stable_example_path),
                           "--lkf", str(cert), "--out-dir",
                           str(tmp_path / "o"), *args)
    assert code == 0
    plain = json.loads(out)["lkf"]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(_scaled_numbers(json.loads(cert.read_text()),
                                              factor)))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "simulate", str(stable_example_path),
                               "--lkf", str(big), "--out-dir",
                               str(tmp_path / "big"), *args)
    assert code == 0
    scaled = json.loads(out)["lkf"]
    for key in ("v_start", "v_end"):
        assert scaled[key] == pytest.approx(factor * plain[key], rel=1e-12)
    assert [str(w.message) for w in seen] == []


# the squared moduli of such an orbit overflow in its convergence metrics
@pytest.mark.filterwarnings("ignore:overflow encountered in square")
def test_simulate_refuses_a_functional_that_is_not_finite(
        tmp_path, capsys, stable_example_path, monkeypatch):
    # an orbit from 1e160 times its drawn start, with no divergence limit,
    # carries a functional near 1e318, past the float range: no report that
    # is not JSON, and no file
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", str(stable_example_path),
                         "--out", str(cert))
    assert code == 0
    monkeypatch.setattr(qvnn.cli, "integrate", lambda model, starts, *args:
                        integrate(model, [1e160 * s for s in starts], *args,
                                  divergence_limit=math.inf))
    code, out, err = run_cli(capsys, "simulate", str(stable_example_path),
                             "--seeds", "1", "--horizon", "0.1", "--lkf",
                             str(cert), "--json", "--out-dir",
                             str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert "functional that is not finite along seed 0" in err
    assert not (tmp_path / "o").exists()


def test_a_horizon_below_one_step_integrates_one_step(tmp_path, capsys,
                                                      stable_example_path):
    # the grid rounds the horizon up to whole steps, at least one, so the
    # functional has a window to integrate over
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", str(stable_example_path),
                         "--out", str(cert))
    assert code == 0
    code, out, _ = run_cli(capsys, "simulate", str(stable_example_path),
                           "--seeds", "1", "--horizon", "1e-12", "--lkf",
                           str(cert), "--json", "--out-dir", str(tmp_path / "o"))
    assert code in (0, 1)
    report = json.loads(out, parse_constant=lambda c: pytest.fail(c))
    assert report["lkf"]["v_start"] == report["lkf"]["v_end"] > 0.0
    _, rows = read_csv(report["runs"][0]["trajectory_csv"])
    assert [float(row[0]) for row in rows] == [0.0, 1e-3]


@pytest.mark.parametrize("field, value", [
    ("p2", {"rows": 1, "cols": 1, "entries": [[1.0, 0.0, 0.0, 0.0]]}),
    ("m1", [1.0, 1.0, 1.0]),
    ("m1", 5.0),
])
def test_simulate_refuses_a_certificate_with_misshapen_matrices(
        tmp_path, capsys, stable_example_path, field, value):
    # hash and n match the config; one field has the wrong shape or type
    model, doc = load_model(str(stable_example_path))
    num = DecisionVars.num_scalars(model.n)
    variables = DecisionVars.from_vector(np.ones(num), model.n).to_json()
    variables[field] = value
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"config_hash": config_hash(doc), "n": model.n,
                                "variables": variables}))
    code, _, err = run_cli(capsys, "simulate", str(stable_example_path),
                           "--seeds", "1", "--horizon", "0.1", "--step", "0.01",
                           "--lkf", str(cert), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "certificate field" in err
    assert not (tmp_path / "o" / "summary.csv").exists()


def _stable_certificate(stable_solution, stable_example_path):
    """The certificate ``certify --out`` writes for the stable example."""
    result, dv = stable_solution
    _, doc = load_model(str(stable_example_path))
    return {"margin": result.margin, "margin_tolerance": 1e-6,
            "config_hash": config_hash(doc), "n": 2,
            "variables": json.loads(json.dumps(dv.to_json()))}


def _set_p1_rows(cert_doc, value):
    cert_doc["variables"]["p1"]["rows"] = value


def _stringify_m1(cert_doc):
    m1 = cert_doc["variables"]["m1"]
    m1[0] = repr(m1[0])


# each certificate is refused at load, before anything is integrated
REFUSED_CERTIFICATES = {
    "n float": (lambda c: c.update(n=2.0), "must be a JSON integer"),
    "m1 string": (_stringify_m1, "certificate field m1 must be JSON numbers"),
    "p1 rows fraction": (lambda c: _set_p1_rows(c, 2.5),
                         "certificate field p1 rows must be a JSON integer"),
    "no variables": (lambda c: c.pop("variables"), "has no variables"),
    "zero margin": (lambda c: c.update(margin=0.0), "has no positive margin"),
    "negative margin": (lambda c: c.update(margin=-1e-5),
                        "has no positive margin"),
    "string margin": (lambda c: c.update(margin="1e-5"),
                      "margin must be a JSON number"),
}


@pytest.mark.parametrize("tamper", sorted(REFUSED_CERTIFICATES))
def test_simulate_refuses_a_certificate_of_the_wrong_json_type(
        tmp_path, capsys, monkeypatch, stable_example_path, stable_solution,
        tamper):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused certificate reached the integrator")

    monkeypatch.setattr(qvnn.cli, "integrate", no_work)
    cert_doc = _stable_certificate(stable_solution, stable_example_path)
    edit, message = REFUSED_CERTIFICATES[tamper]
    edit(cert_doc)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(cert_doc))
    code, _, err = run_cli(capsys, "simulate", str(stable_example_path),
                           "--seeds", "1", "--lkf", str(cert),
                           "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "input error" in err and message in err
    assert not (tmp_path / "o").exists()


def test_certify_json_reports_the_solver_run_record(capsys, stable_example_path,
                                                    monkeypatch):
    def broken(*args, **kwargs):
        raise NumericalError("the Schur complement is not positive definite")

    monkeypatch.setattr(qvnn.sdp, "_iterate_once", broken)
    code, out, _ = run_cli(capsys, "certify", str(stable_example_path), "--json")
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"status", "failure_cause"}
    assert report["status"] == "numerical_failure"
    assert report["failure_cause"] == "the Schur complement is not positive definite"
