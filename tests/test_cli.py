"""Command-line interface: exit codes, artifacts, and report documents."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qvnn.cli
import qvnn.sdp
from oracles import (
    write_diagnostics_csv_rows,
    write_lkf_csv_rows,
    write_summary_csv_rows,
    write_trajectory_csv_rows,
)
from qvnn.cli import (
    _run_entry,
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
from qvnn.qmatrix import mat_vec, qv_from_components
from qvnn.sdp import FeasibilityResult, OuterRecord
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
    assert isinstance(report["stalled_line_searches"], int)
    assert len(report["per_constraint_min_eig"]) == 17
    assert min(report["per_constraint_min_eig"].values()) >= report["margin"] - 1e-9

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
    assert header == ["iteration", "barrier_weight", "t", "min_eig",
                      "newton_steps", "max_regularization", "newton_decrement"]
    assert len(rows) >= 1
    weights = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(weights, weights[1:]))
    assert all(float(r[6]) >= 0.0 for r in rows)


def test_certify_reports_failure_honestly(capsys, reference_example_path):
    code, out, _ = run_cli(capsys, "certify", str(reference_example_path),
                           "--json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "not_certified"
    assert report["solver_status"] == "infeasible_at_tolerance"
    assert report["margin"] < 1e-6
    assert "recheck_valid" not in report


def test_certify_rejects_malformed_configs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "certify", str(bad))
    assert code == 2
    assert "input error" in err
    code, _, err = run_cli(capsys, "certify", str(tmp_path / "missing.json"))
    assert code == 2


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


def diagnostics_of(trace, tmp_path, capsys, monkeypatch, config_path):
    """The diagnostics CSV that certify writes for a stubbed solver trace."""
    def recorded(sdp, config):
        return FeasibilityResult(
            status="infeasible_at_tolerance", margin=-0.125, x=None,
            per_constraint_min_eig={}, iterations=10, outer_rounds=2,
            wall_time=0.0, trace=trace)

    monkeypatch.setattr(qvnn.cli, "solve_feasibility", recorded)
    diag = tmp_path / "diag.csv"
    code, _, _ = run_cli(capsys, "certify", str(config_path),
                         "--diagnostics", str(diag), "--json")
    assert code == 1
    return read_csv(diag)


def test_diagnostics_csv_records_the_hessian_regularization(
        tmp_path, capsys, monkeypatch, stable_example_path):
    trace = [OuterRecord(1, 0.5, -0.25, -0.25, 7, 2.5e-11, 0.0),
             OuterRecord(2, 0.125, -0.125, -0.125, 3, 0.0, 0.0)]
    header, rows = diagnostics_of(trace, tmp_path, capsys, monkeypatch,
                                  stable_example_path)
    assert header[-3:-1] == ["newton_steps", "max_regularization"]
    assert [r[-3:-1] for r in rows] == [["7", "2.500000e-11"],
                                        ["3", "0.000000e+00"]]


def test_diagnostics_csv_records_the_newton_decrement(
        tmp_path, capsys, monkeypatch, stable_example_path):
    trace = [OuterRecord(1, 0.5, -0.25, -0.25, 7, 0.0, 1.5e-9),
             OuterRecord(2, 0.125, -0.125, -0.125, 3, 0.0, 3.25e-12)]
    header, rows = diagnostics_of(trace, tmp_path, capsys, monkeypatch,
                                  stable_example_path)
    assert header[-1] == "newton_decrement"
    assert [r[-1] for r in rows] == ["1.500000e-09", "3.250000e-12"]


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


def test_simulate_zero_history_stays_at_zero(tmp_path, capsys,
                                             stable_example_path):
    out_dir = tmp_path / "runs"
    code, out, _ = run_cli(capsys, "simulate", str(stable_example_path),
                           "--seeds", "1", "--zero-history",
                           "--horizon", "0.5", "--step", "0.01",
                           "--out-dir", str(out_dir), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_converged"] is True
    assert report["runs"][0]["status"] == "completed"
    assert report["runs"][0]["final_sup"] == 0.0

    header, rows = read_csv(out_dir / "trajectory_seed0.csv")
    assert header[0] == "time"
    assert header[1:5] == ["n1_w", "n1_x", "n1_y", "n1_z"]
    assert header[5:9] == ["n2_w", "n2_x", "n2_y", "n2_z"]
    assert len(rows) == 51
    for row in rows:
        assert all(float(cell) == 0.0 for cell in row[1:])

    s_header, s_rows = read_csv(out_dir / "summary.csv")
    assert s_header == ["seed", "status", "final_sup", "peak",
                        "time_to_threshold", "envelope_bounded"]
    assert len(s_rows) == 1
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert str(out_dir / "summary.csv") in manifest["output_paths"]


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
    assert "equilibrium" not in report
    assert len(report["runs"]) == 2
    for entry in report["runs"]:
        assert entry["converged"] is True
        assert entry["time_to_threshold"] is not None

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
    trace = lkf_trace(traj, stable_model, dv, stride=7)
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
            (_write_summary_csv, write_summary_csv_rows, entries)):
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


def test_importing_the_cli_loads_no_heavy_scipy_subpackage():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import json, sys; import qvnn.cli; "
             "print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert "qvnn.cli" in loaded and "scipy.sparse" in loaded
    heavy = {"scipy.integrate", "scipy.special", "scipy.linalg",
             "scipy.optimize"}
    assert not heavy & loaded


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


def test_certify_json_reports_the_solver_run_record(capsys, stable_example_path,
                                                    monkeypatch):
    def broken(*args, **kwargs):
        raise NumericalError("Hessian factorization failed despite regularization")

    monkeypatch.setattr(qvnn.sdp, "_newton_center", broken)
    code, out, _ = run_cli(capsys, "certify", str(stable_example_path), "--json")
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"status", "failure_cause", "stalled_line_searches"}
    assert report["status"] == "numerical_failure"
    assert isinstance(report["failure_cause"], str) and report["failure_cause"]
    assert isinstance(report["stalled_line_searches"], int)
