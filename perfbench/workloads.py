"""The benchmark workloads: their inputs, their CLI calls and the checks.

An operation is one certify call, one simulated member or one LKF trace.
Each check records every operation it sees and the reasons any of them
failed; the expected verdicts are fixed here, before anything runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify-n2", "certify-n3", "simulate")

STABLE_HORIZON = 1.5       # stand-in orbits fall below 1e-3 before t = 1
REFERENCE_HORIZON = 8.0    # past every reference divergence time (6.6-7.3)
REFERENCE_MEMBERS = 2
STABLE_MEMBERS = 10        # the CLI's default --seeds
LKF_RISE_BOUND = 1e-6      # of V(0), as in the acceptance test of the LKF
# The n=3 model is one fixed draw of its family. Drawing it from --seed made
# one solve take 36 to 90 s across seeds 11-15 (the Newton step count moves
# with the model), too unsteady to time and too long for the run budget.
N3_MODEL_SEED = 0


def import_cli():
    """Import ``qvnn.cli`` from the checkout's sources."""
    if not (ROOT / "src" / "qvnn" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qvnn sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import qvnn.cli
    return qvnn.cli


def input_docs(workload: str) -> dict[str, dict]:
    if workload == "certify-n3":
        return {"n3": inputs.random_n3_config(N3_MODEL_SEED)}
    return {"stable": inputs.stable_config(),
            "reference": inputs.reference_config()}


def write_inputs(workload: str, out_dir: Path) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in input_docs(workload).items():
        paths[name] = out_dir / f"{name}.json"
        paths[name].write_text(json.dumps(doc, indent=2) + "\n")
    return paths


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


@dataclass
class CallResult:
    kind: str              # "certify" or "simulate"
    seconds: float
    report: dict | None
    steps: int             # RK4 steps committed by all members


@dataclass
class Call:
    kind: str              # "certify" or "simulate"
    argv: list[str]
    check: Callable[[int | None, dict | None, Outcome], int]


def invoke(cli, argv: list[str]) -> tuple[int | None, dict | None, float]:
    """Run one CLI command in-process; (exit code, JSON report, seconds)."""
    buf = io.StringIO()
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse refused the arguments
        rc = exc.code
    except Exception:  # a crash fails the operation, not the benchmark
        traceback.print_exc(file=sys.stderr)
    seconds = time.perf_counter() - start
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        report = None
    return rc, report, seconds


def certify_check(label: str, certified: bool, num_vars: int,
                  margin: float | None = None):
    want_rc, want_status = (0, "certified") if certified else (1, "not_certified")

    def check(rc, report, outcome: Outcome) -> int:
        problems = []
        if rc != want_rc:
            problems.append(f"exit code {rc}, expected {want_rc}")
        report = report or {}
        if report.get("status") != want_status:
            problems.append(f"status {report.get('status')!r}")
        if report.get("solver_status") == "numerical_failure":
            problems.append("numerical_failure")
        if certified and report.get("recheck_valid") is not True:
            problems.append(f"recheck_valid {report.get('recheck_valid')!r}")
        if report.get("recheck_valid") is False:
            problems.append("recheck_valid false")
        if report.get("num_variables") != num_vars:
            problems.append(f"{report.get('num_variables')} variables, "
                            f"expected {num_vars}")
        if margin is not None and "margin" in report and not (
                abs(report["margin"] - margin) <= report["margin_tolerance"]):
            problems.append(f"margin {report['margin']:.4e}, expected "
                            f"{margin:.4e}")
        outcome.record(label, problems)
        return 0
    return check


def default_step(cli) -> float:
    """The ``qvnn simulate`` default ``--step``, which the timed calls use."""
    return cli.build_parser().parse_args(["simulate", "config.json"]).step


def simulate_check(label: str, converge: bool, members: int, horizon: float,
                   step: float, lkf: bool):
    want_rc = 0 if converge else 1

    def check(rc, report, outcome: Outcome) -> int:
        report = report or {}
        runs = report.get("runs") or []
        common = [] if rc == want_rc else [f"exit code {rc}, expected {want_rc}"]
        steps = 0
        for i in range(members):
            entry = runs[i] if i < len(runs) else {}
            problems = list(common)
            status = entry.get("status")
            if status == "completed":
                steps += round(horizon / step)
            elif status == "diverged":
                steps += round(entry["diverged_at"] / step)
            if converge and not (status == "completed" and entry.get("converged")):
                problems.append(f"member {i} {status}, expected convergence")
            if not converge and not (status == "diverged"
                                     and entry["diverged_at"] < horizon):
                problems.append(f"member {i} {status}, expected divergence "
                                f"before t = {horizon:g}")
            outcome.record(f"{label} member {i}", problems)
        if lkf:
            trace = report.get("lkf")
            problems = list(common)
            if trace is None:
                problems.append("no LKF trace")
            elif not trace["max_rise"] <= LKF_RISE_BOUND * trace["v_start"]:
                problems.append(f"LKF rose by {trace['max_rise']:.3e} against "
                                f"V(0) = {trace['v_start']:.3e}")
            outcome.record(f"{label} lkf", problems)
        return steps
    return check


def calls(cli, workload: str, seed: int, files: dict[str, Path],
          out_dir: Path) -> list[Call]:
    """The timed CLI calls of one pass, in order, with default settings."""
    if workload == "certify-n2":
        return [
            Call("certify", ["certify", str(files["stable"]), "--json"],
                 certify_check("certify stable", True, 136)),
            Call("certify", ["certify", str(files["reference"]), "--json"],
                 certify_check("certify reference", False, 136,
                               inputs.REFERENCE_MARGIN)),
        ]
    if workload == "certify-n3":
        return [Call("certify", ["certify", str(files["n3"]), "--json"],
                     certify_check("certify n3", True, 318))]
    step = default_step(cli)
    return [
        Call("simulate",
             ["simulate", str(files["stable"]), "--seed", str(seed),
              "--horizon", str(STABLE_HORIZON), "--lkf", str(files["cert"]),
              "--lkf-stride", "1", "--out-dir", str(out_dir / "stable"),
              "--json"],
             simulate_check("simulate stable", True, STABLE_MEMBERS,
                            STABLE_HORIZON, step, lkf=True)),
        Call("simulate",
             ["simulate", str(files["reference"]), "--seed", str(seed),
              "--seeds", str(REFERENCE_MEMBERS),
              "--horizon", str(REFERENCE_HORIZON),
              "--out-dir", str(out_dir / "reference"), "--json"],
             simulate_check("simulate reference", False, REFERENCE_MEMBERS,
                            REFERENCE_HORIZON, step, lkf=False)),
    ]


def run_pass(cli, plan: list[Call], outcome: Outcome,
             around=None) -> tuple[float, list[CallResult]]:
    """Issue the pass's calls one at a time; (wall seconds, call results).

    ``around(call)`` may return a context manager entered around each call.
    """
    results = []
    start = time.perf_counter()
    for call in plan:
        with (around(call) if around else contextlib.nullcontext()):
            rc, report, seconds = invoke(cli, call.argv)
        steps = call.check(rc, report, outcome)
        results.append(CallResult(call.kind, seconds, report, steps))
    return time.perf_counter() - start, results
