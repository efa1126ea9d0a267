"""Command-line front end: certify, simulate, margin.

Exit codes are the machine contract for every subcommand:

    0  certified / run ok
    1  not certified at the requested tolerance (or simulations failed
       their convergence threshold)
    2  input error (bad config, bad flags, bracket without a sign change)
    3  numerical failure inside the solver

A human-readable summary goes to stdout by default; ``--json`` swaps it for
a single JSON document, the full report. File-writing subcommands also
drop a manifest listing every artifact next to the outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError, QvnnError
from .lkf import lkf_trace
from .lmi import DecisionVars, verify_certificate
from .lowering import build_sdp
from .model import NetworkModel, config_hash, load_model
from .qmatrix import qv_components
from .sdp import FeasibilityResult, SolverConfig, scale_problem, solve_feasibility
from .simulate import convergence_metrics, equilibrium_shift, integrate


@dataclasses.dataclass
class RunManifest:
    command: str
    config_path: str | None
    seed: int | None
    config_hash: str | None
    tool_version: str
    started_at: str
    finished_at: str
    output_paths: list[str]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _require_positive(*flags: tuple[str, float]) -> None:
    """Refuse a flag that is not a positive finite number: a tolerance or
    threshold at or below 0, or NaN, is never met, and a step or horizon
    that is NaN or infinite has no grid."""
    for flag, value in flags:
        if not (math.isfinite(value) and value > 0.0):
            raise QvnnError(f"{flag} must be positive and finite, got {value:g}")


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _write_csv(path: Path, header: list[str], columns: np.ndarray,
               formats: list[str]) -> None:
    """Write a table in one block, as csv.writer would row by row; each
    column is printed with its printf format."""
    with path.open("w", newline="") as fh:
        np.savetxt(fh, columns, fmt=formats, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


# ---- certify ---------------------------------------------------------------------


def _certify_model(model: NetworkModel, margin_tol: float,
                   ) -> tuple[FeasibilityResult, DecisionVars | None, dict]:
    t0 = time.perf_counter()
    sdp = build_sdp(model)
    t_build = time.perf_counter() - t0
    scaled, factors = scale_problem(sdp)
    result = solve_feasibility(scaled, SolverConfig(margin_tolerance=margin_tol))
    timings = {"build_seconds": round(t_build, 3),
               "solve_seconds": round(result.wall_time, 3)}
    dv = None
    if result.x is not None:
        dv = DecisionVars.from_vector(result.x / factors, model.n)
    return result, dv, timings


def _write_diagnostics_csv(path: Path, trace) -> None:
    _write_csv(path, ["iteration", "barrier_weight", "t", "min_eig",
                      "newton_steps", "max_regularization", "newton_decrement"],
               np.array([[rec.iteration, rec.barrier_weight, rec.t, rec.min_eig,
                          rec.newton_steps, rec.max_regularization,
                          rec.newton_decrement] for rec in trace],
                        dtype=float).reshape(-1, 7),
               ["%d", "%.6e", "%.12e", "%.12e", "%d", "%.6e", "%.6e"])


def cmd_certify(args) -> int:
    _require_positive(("--margin-tol", args.margin_tol))
    model, doc = load_model(args.config)
    started = _now()
    result, dv, timings = _certify_model(model, args.margin_tol)
    if result.status == "numerical_failure":
        _emit({"status": result.status, "failure_cause": result.failure_cause,
               "stalled_line_searches": result.stalled_line_searches},
              args.json,
              ["status: numerical_failure (all solver restarts broke down)",
               f"cause:  {result.failure_cause}"])
        return 3

    recheck = None
    certified = False
    if result.status == "feasible" and dv is not None:
        recheck = verify_certificate(model, dv, margin=0.5 * result.margin)
        certified = recheck.valid

    report = {
        "status": "certified" if certified else "not_certified",
        "solver_status": result.status,
        "margin": result.margin,
        "margin_tolerance": args.margin_tol,
        "num_variables": DecisionVars.num_scalars(model.n),
        "iterations": result.iterations,
        "outer_rounds": result.outer_rounds,
        "seed_used": result.seed_used,
        "stalled_line_searches": result.stalled_line_searches,
        "timings": timings,
        "per_constraint_min_eig": result.per_constraint_min_eig,
        "config_hash": config_hash(doc),
    }
    if recheck is not None:
        report["recheck_worst_margin"] = recheck.worst_margin
        report["recheck_valid"] = recheck.valid

    lines = [
        f"status:  {report['status']}",
        f"solver:  {result.status} (margin {result.margin:.6e}, "
        f"tolerance {args.margin_tol:g})",
        f"size:    {report['num_variables']} scalar variables, "
        f"{len(result.per_constraint_min_eig)} constraints",
        f"effort:  {result.iterations} Newton steps over "
        f"{result.outer_rounds} outer rounds, {timings['solve_seconds']}s",
    ]
    if recheck is not None:
        lines.append(f"recheck: worst constraint margin "
                     f"{recheck.worst_margin:.6e} "
                     f"({'consistent' if recheck.valid else 'INCONSISTENT'})")

    outputs: list[str] = []
    if certified and args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        cert_doc = {
            "margin": result.margin,
            "margin_tolerance": args.margin_tol,
            "config_hash": report["config_hash"],
            "n": model.n,
            "variables": dv.to_json(),
        }
        out_path.write_text(json.dumps(cert_doc, indent=2) + "\n")
        outputs.append(str(out_path))
        manifest = RunManifest("certify", args.config, None,
                               report["config_hash"], __version__,
                               started, _now(), outputs)
        manifest_path = out_path.with_suffix(".manifest.json")
        manifest.write(manifest_path)
        lines.append(f"wrote:   {out_path} (+ manifest)")
        report["outputs"] = outputs
    if args.diagnostics is not None:
        diag_path = Path(args.diagnostics)
        diag_path.parent.mkdir(parents=True, exist_ok=True)
        _write_diagnostics_csv(diag_path, result.trace)
        lines.append(f"wrote:   {diag_path}")

    _emit(report, args.json, lines)
    return 0 if certified else 1


# ---- simulate --------------------------------------------------------------------


def _start_for_seed(model: NetworkModel, seed: int, zero: bool
                    ) -> np.ndarray:
    """The member's constant initial state: the rest point, or seeded."""
    if zero:
        return np.zeros((2, model.n), dtype=complex)
    rng = np.random.default_rng(seed)
    parts = rng.uniform(-1.0, 1.0, size=(4, model.n))
    return np.stack([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])


def _write_trajectory_csv(path: Path, traj) -> None:
    values = traj.values
    n = values.shape[2]
    header = ["time"] + [f"n{j+1}_{c}" for j in range(n) for c in "wxyz"]
    # per neuron: w, x (row 0) then y, z (row 1)
    parts = np.stack([values.real, values.imag], axis=-1)
    columns = parts.transpose(0, 2, 1, 3).reshape(len(values), 4 * n)
    _write_csv(path, header, np.column_stack([traj.times, columns]),
               ["%.6f"] + ["%.9e"] * (4 * n))


def _write_lkf_csv(path: Path, trace) -> None:
    _write_csv(path, ["time", "v1", "v2", "v3", "v4", "v_total"],
               np.column_stack([trace.times, trace.v1, trace.v2, trace.v3,
                                trace.v4, trace.total]),
               ["%.6f"] + ["%.9e"] * 5)


def _write_summary_csv(path: Path, entries: list[dict]) -> None:
    """One row per run entry; a field the entry lacks, or holds as None,
    is left empty."""
    header = ["seed", "status", "final_sup", "peak", "time_to_threshold",
              "envelope_bounded"]
    cells = [["" if entry.get(key) is None else str(entry[key])
              for key in header] for entry in entries]
    _write_csv(path, header,
               np.array(cells, dtype=object).reshape(-1, len(header)),
               ["%s"] * len(header))


def _run_entry(seed: int, traj, args) -> dict:
    entry = {"seed": seed}
    if traj.diverged_at is not None:
        entry.update(status="diverged", diverged_at=traj.diverged_at)
        return entry
    metrics = convergence_metrics(traj, threshold=args.threshold)
    entry.update(
        status="completed",
        final_sup=metrics.final_sup,
        peak=metrics.peak,
        time_to_threshold=metrics.time_to_threshold,
        envelope_bounded=metrics.envelope_bounded,
        converged=bool(metrics.final_sup < args.threshold),
    )
    return entry


def _load_certificate(path: str, model: NetworkModel, doc: dict) -> DecisionVars:
    """The certificate's variables, refused unless it was made for this config."""
    cert_doc = json.loads(Path(path).read_text())
    if not isinstance(cert_doc, dict) or "variables" not in cert_doc:
        raise QvnnError(f"certificate {path} has no variables")
    expected = config_hash(doc)
    if cert_doc.get("config_hash") != expected:
        raise QvnnError(f"certificate {path} belongs to another config "
                        f"(hash {cert_doc.get('config_hash')}, this config "
                        f"{expected})")
    if cert_doc.get("n") != model.n:
        raise QvnnError(f"certificate {path} is for n = {cert_doc.get('n')}, "
                        f"this config has n = {model.n}")
    return DecisionVars.from_json(cert_doc["variables"], model.n)


def cmd_simulate(args) -> int:
    # refused before anything is read or written
    for flag, count in (("--seeds", args.seeds),
                        ("--lkf-stride", args.lkf_stride)):
        if count < 1:
            raise QvnnError(f"{flag} must be at least 1, got {count}")
    _require_positive(("--horizon", args.horizon), ("--step", args.step),
                      ("--threshold", args.threshold))
    model, doc = load_model(args.config)
    cert_dv = None if args.lkf is None else _load_certificate(args.lkf, model, doc)
    driven = model.external_input is not None and np.any(model.external_input)
    if driven:
        # states, metrics and the functional are taken about the rest point
        model = equilibrium_shift(model)
    started = _now()
    seeds = range(args.seed, args.seed + args.seeds)
    trajs = integrate(model, [_start_for_seed(model, seed, args.zero_history)
                              for seed in seeds], args.horizon, args.step)
    # made only once the grid is integrated, so a refused run leaves no files
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [_run_entry(seed, traj, args) for seed, traj in zip(seeds, trajs)]

    outputs: list[str] = []
    first_traj = None
    lines = [f"{'seed':>6}  {'status':<10} {'final_sup':>12} "
             f"{'t_thresh':>9} {'envelope':>8}"]
    for entry, traj in zip(entries, trajs):
        if entry["status"] == "completed":
            if first_traj is None:
                first_traj = (entry["seed"], traj)
            csv_path = out_dir / f"trajectory_seed{entry['seed']}.csv"
            _write_trajectory_csv(csv_path, traj)
            outputs.append(str(csv_path))
            entry["trajectory_csv"] = str(csv_path)
        if entry["status"] == "diverged":
            lines.append(f"{entry['seed']:>6}  diverged at "
                         f"t={entry['diverged_at']:.3f}")
        else:
            tt = entry["time_to_threshold"]
            lines.append(
                f"{entry['seed']:>6}  {entry['status']:<10} "
                f"{entry['final_sup']:>12.3e} "
                f"{(f'{tt:9.3f}' if tt is not None else '     none')} "
                f"{str(entry['envelope_bounded']):>8}")

    lkf_report = None
    if cert_dv is not None:
        lkf_report = _lkf_along_run(model, cert_dv, first_traj, args, out_dir)
        if lkf_report is not None:
            outputs.append(lkf_report["csv"])
            lines.append(f"lkf:    max rise {lkf_report['max_rise']:.3e} "
                         f"(V(0) = {lkf_report['v_start']:.6e}) -> "
                         f"{lkf_report['csv']}")

    summary_path = out_dir / "summary.csv"
    _write_summary_csv(summary_path, entries)
    outputs.append(str(summary_path))

    manifest = RunManifest("simulate", args.config, args.seed,
                           config_hash(doc), __version__, started, _now(),
                           outputs)
    manifest.write(out_dir / "manifest.json")

    ok = all(e["status"] == "completed" and e["converged"] for e in entries)
    report = {"runs": entries, "all_converged": ok,
              "linear_blend_lookups": max((t.blended_lookups for t in trajs),
                                          default=0),
              "outputs": outputs}
    if driven:
        report["equilibrium"] = qv_components(model.equilibrium).tolist()
    if lkf_report is not None:
        report["lkf"] = lkf_report
    lines.append(f"summary: {summary_path}")
    _emit(report, args.json, lines)
    return 0 if ok else 1


def _lkf_along_run(model, dv, first_traj, args, out_dir: Path):
    if first_traj is None:
        return None
    seed, traj = first_traj
    trace = lkf_trace(traj, model, dv, stride=args.lkf_stride)
    csv_path = out_dir / f"lkf_seed{seed}.csv"
    _write_lkf_csv(csv_path, trace)
    return {"seed": seed, "csv": str(csv_path),
            "v_start": float(trace.total[0]),
            "v_end": float(trace.total[-1]),
            "max_rise": trace.max_increase()}


# ---- margin ----------------------------------------------------------------------


def _override_param(doc: dict, param: str, value: float) -> NetworkModel:
    patched = json.loads(json.dumps(doc))
    patched[param] = value
    funcs = patched.get("delay_functions")
    if funcs and param in funcs:
        # keep the declared bound dominant: pin the waveform to a constant
        funcs[param] = {"kind": "constant", "value": value}
    return NetworkModel.from_json(patched)


def _probe(doc: dict, param: str, value: float, margin_tol: float) -> dict:
    model = _override_param(doc, param, value)
    result, _dv, _timings = _certify_model(model, margin_tol)
    if result.status == "numerical_failure":
        raise NumericalError(f"solver failed at {param}={value:g}")
    return {"value": value, "status": result.status, "margin": result.margin}


def cmd_margin(args) -> int:
    # a bracket one ulp wide never gets narrower, so bisection needs tol > 0
    _require_positive(("--tol", args.tol), ("--margin-tol", args.margin_tol))
    _model, doc = load_model(args.config)
    try:
        lo_text, hi_text = args.bracket.split(",")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError as exc:
        raise QvnnError(f"malformed bracket {args.bracket!r}; "
                        "expected lo,hi") from exc
    if not (hi > lo >= 0.0):
        raise QvnnError("bracket must satisfy 0 <= lo < hi")

    probes = [_probe(doc, args.param, value, args.margin_tol)
              for value in (lo, hi)]
    lo_status, hi_status = probes[0]["status"], probes[1]["status"]
    if lo_status != "feasible" or hi_status == "feasible":
        _emit({"error": "bracket", "param": args.param, "probes": probes},
              args.json,
              [f"bracket error: need (feasible, infeasible) at "
               f"({lo:g}, {hi:g}); got ({lo_status}, {hi_status})"])
        return 2

    while hi - lo > args.tol:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            # lo and hi are adjacent floats: no bracket between them is
            # narrower, however small --tol is
            break
        probes.append(_probe(doc, args.param, mid, args.margin_tol))
        if probes[-1]["status"] == "feasible":
            lo = mid
        else:
            hi = mid

    report = {
        "param": args.param,
        "feasible_up_to": lo,
        "infeasible_from": hi,
        "bracket_width": hi - lo,
        "probes": probes,
    }
    lines = [f"{'value':>12}  {'status':<26} {'margin':>13}"]
    for p in probes:
        lines.append(f"{p['value']:>12.6f}  {p['status']:<26} "
                     f"{p['margin']:>13.3e}")
    lines.append(f"largest {args.param} certified: {lo:.6f} "
                 f"(next failure at {hi:.6f}, width {hi - lo:.2e})")
    lines.append("note: probes are independent certifications; the sweep "
                 "reports them assuming feasibility is monotone in "
                 f"{args.param}, but each row stands on its own.")
    _emit(report, args.json, lines)
    return 0


# ---- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvnn",
        description="Stability certification toolchain for quaternion-valued "
                    "delayed neural networks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="assemble, lower and solve the "
                          "stability criterion for a model config")
    cert.add_argument("config")
    cert.add_argument("--margin-tol", type=float, default=1e-6)
    cert.add_argument("--out", default=None,
                      help="write certificate JSON here on success")
    cert.add_argument("--diagnostics", default=None,
                      help="write per-outer-iteration solver CSV here")
    cert.add_argument("--json", action="store_true")
    cert.set_defaults(func=cmd_certify)

    sim = sub.add_parser("simulate", help="integrate the delayed dynamics "
                         "from seeded constant initial states")
    sim.add_argument("config")
    sim.add_argument("--seeds", type=int, default=10)
    sim.add_argument("--seed", type=int, default=0, help="first seed")
    sim.add_argument("--horizon", type=float, default=20.0)
    sim.add_argument("--step", type=float, default=1e-3)
    sim.add_argument("--threshold", type=float, default=1e-3)
    sim.add_argument("--zero-history", action="store_true")
    sim.add_argument("--lkf", default=None,
                     help="certificate JSON; evaluate the functional along "
                          "the first completed run")
    sim.add_argument("--lkf-stride", type=int, default=20)
    sim.add_argument("--out-dir", default="qvnn_out")
    sim.add_argument("--json", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    mar = sub.add_parser("margin", help="bisect one delay parameter between "
                         "a feasible and an infeasible value")
    mar.add_argument("config")
    mar.add_argument("--param", choices=("delta", "d1", "d2"), required=True)
    mar.add_argument("--bracket", required=True, metavar="LO,HI")
    mar.add_argument("--tol", type=float, default=1e-3)
    mar.add_argument("--margin-tol", type=float, default=1e-6)
    mar.add_argument("--json", action="store_true")
    mar.set_defaults(func=cmd_margin)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (QvnnError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
