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
import contextlib
import dataclasses
import json
import math
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, NumericalError, QvnnError
from .lkf import lkf_trace
from .lmi import DecisionVars, verify_certificate
from .lowering import build_sdp
from .model import NetworkModel, config_hash, load_model, read_json
from .qmatrix import json_int, json_numbers, qv_components
from .sdp import FeasibilityResult, SolverConfig, scale_problem, solve_feasibility
from .simulate import convergence_metrics, integrate, require_node_memory


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
            raise InputError(f"{flag} must be positive and finite, got {value:g}")


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


# Rows printed at once: enough that numpy's per-call cost is small beside
# the work. Words of ASCII: "0000" .. "9999", and %e's "e-300" .. "e+300",
# each NUL-padded to two words.
_CSV_BLOCK_ROWS = 512
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_DIGIT_QUADS = np.stack(np.broadcast_arrays(_DIGIT_PAIRS[:, None], _DIGIT_PAIRS),
                        axis=-1).view(np.uint32).ravel()
_EXPONENTS = np.array([[f"e{k:+03d}"] for k in range(-300, 301)], "S8").view(np.uint32)
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])  # correctly rounded


def _csv_cells(values: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for each value of a 2-D block, one row of bytes per row of
    values: each cell is a comma and its text, NUL-padded to whole words.

    A ``%.{p}e`` or ``%.{p}f`` cell, 0 < p <= 14, is printed from the integer
    q = rint(|v| 10^(p - e)), e the decimal exponent (0 for %f). The float
    product errs by at most two roundings, so q is printf's unless the
    product lies within 2^-49 of its size from a half-integer, as every exact
    tie does. Those cells, one whose q has the wrong number of digits (a carry
    to 10^(p+1), or ``log10`` off by one), one not finite or with |v| outside
    [1e-280, 1e280) for %e or from 10^(14 - p) on for %f, and every cell of
    another format are printed by ``fmt % v``. Every q is below 10^15 < 2^53."""
    x = values.ravel()
    fast = re.fullmatch(r"%\.([1-9]|1[0-4])([ef])", fmt)  # 0 < p <= 14
    slow, size, tail = np.ones(len(x), dtype=bool), 0, 0  # words: digits, exponent
    if fast:
        p, a, sci = int(fast[1]), np.abs(x), fast[2] == "e"
        ok = (a >= 1e-280) & (a < 1e280) if sci else a < _POW10[314 - p]
        e = np.floor(np.log10(np.where(ok, a, 1.0))).astype(np.int64) if sci else 0
        tail = (1 + int(np.abs(e).max(initial=0) >= 100)) if sci else 0
        scaled = np.where(ok, a, 0.0) * _POW10[300 + p - e]
        q = np.rint(scaled)
        slow = ~(ok & (np.abs(np.abs(scaled - q) - 0.5) > scaled * 2.0 ** -49)
                 & ((q >= _POW10[300 + p]) & (q < _POW10[301 + p]) if sci else True))
        q = np.where(slow, 0.0, q).astype(np.int64)
        # q's digits with a 0 digit where the point goes, in words
        size = -(-max(p + 2, len(str(q.max(initial=0))) + 1) // 4)
        q += q // 10 ** p * (9 * 10 ** p)
    texts = [b"," + (fmt % (v,)).encode() for v in x[slow].tolist()]
    width = 4 * max([1 + size + tail] + [-(-len(t) // 4) for t in texts])
    words = np.zeros((len(x), width // 4), dtype=np.uint32)
    cells = words.view(np.uint8)
    if fast:
        # the leading zeros before the ones digit become NUL
        keep = (q[:, None] >= 10 ** np.arange(4 * size - 1, p + 1, -1)).view(np.uint8)
        for i in range(size, 0, -1):
            high = q // 10000  # four times as fast as q % 10000
            words[:, i] = _DIGIT_QUADS[q - 10000 * high]
            q = high
        cells[:, 4:4 * size + 2 - p] *= keep
        cells[:, 4 * size + 3 - p] = 46
        cells[:, 1] = np.signbit(x) * np.uint8(45)
        words[:, size + 1:size + 1 + tail] = _EXPONENTS[e + 300, :tail]
    cells[:, 0] = 44
    cells[slow] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    return cells.reshape(len(values), -1)


def _write_csv(path: Path, header: list[str], columns: np.ndarray,
               formats: list[str]) -> None:
    """Write a table as csv.writer would write its printed cells row by row,
    each column printed with its printf format. A block of rows is one byte
    matrix, and each run of columns that share a format is printed at once."""
    starts = [j for j, fmt in enumerate(formats) if j == 0 or fmt != formats[j - 1]]
    runs = list(zip(starts, starts[1:] + [len(formats)]))
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(columns), _CSV_BLOCK_ROWS):
            block = columns[lo:lo + _CSV_BLOCK_ROWS]
            out = np.concatenate([_csv_cells(block[:, a:b], formats[a]) for a, b in runs]
                                 + [np.full((len(block), 2), (13, 10), np.uint8)], axis=1)
            out[:, 0] = 0  # the first cell's comma
            fh.write(out.tobytes().translate(None, b"\0"))


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
    timings.update((k, round(v, 3)) for k, v in result.phase_seconds.items())
    dv = None
    if result.x is not None:
        dv = DecisionVars.from_vector(result.x / factors, model.n)
    return result, dv, timings


def _write_diagnostics_csv(path: Path, trace) -> None:
    _write_csv(path, ["iteration", "t", "bound", "gap", "primal_residual",
                      "primal_step", "dual_step", "min_eig"],
               np.array([dataclasses.astuple(rec) for rec in trace],
                        dtype=float).reshape(-1, 8),
               ["%d", "%.12e", "%.12e", "%.6e", "%.6e", "%.6e", "%.6e", "%.12e"])


def cmd_certify(args) -> int:
    _require_positive(("--margin-tol", args.margin_tol))
    model, doc = load_model(args.config)
    started = _now()
    result, dv, timings = _certify_model(model, args.margin_tol)
    if result.status == "numerical_failure":
        _emit({"status": result.status, "failure_cause": result.failure_cause},
              args.json,
              ["status: numerical_failure (the solver broke down before its "
               "first iteration)",
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
        "gap": result.gap,
        "proof": result.proof,
        # null when the last iterate's primal is not proved
        "margin_upper_bound": (result.margin_upper_bound
                               if math.isfinite(result.margin_upper_bound)
                               else None),
        "failure_cause": result.failure_cause,
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
        f"effort:  {result.iterations} primal-dual Newton steps to a gap of "
        f"{result.gap:.1e}, {timings['solve_seconds']}s",
        f"proof:   {result.proof}; the optimal margin lies in "
        f"[{result.margin:.6e}, {result.margin_upper_bound:.6e}]",
    ]
    if recheck is not None:
        lines.append(f"recheck: worst constraint margin "
                     f"{recheck.worst_margin:.6e} "
                     f"({'proved' if recheck.valid else 'NOT PROVED'} at half "
                     f"the margin)")

    outputs: list[str] = []
    if certified and args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        cert_doc = {
            "margin": result.margin,
            "margin_tolerance": args.margin_tol,
            "proof": report["proof"],
            "margin_upper_bound": report["margin_upper_bound"],
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


def _start_for_seed(model: NetworkModel, seed: int) -> np.ndarray:
    """The member's constant deviation from the rest point, drawn from
    ``seed``."""
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
    """The certificate's variables, refused unless it was made for this config
    and holds every constraint at half its margin, as ``certify`` checks it."""
    cert_doc = read_json(path, "certificate")
    if not isinstance(cert_doc, dict) or "variables" not in cert_doc:
        raise InputError(f"certificate {path} has no variables")
    expected = config_hash(doc)
    if cert_doc.get("config_hash") != expected:
        raise InputError(f"certificate {path} belongs to another config "
                         f"(hash {cert_doc.get('config_hash')}, this config "
                         f"{expected})")
    if json_int(cert_doc.get("n"), f"certificate {path}: n") != model.n:
        raise InputError(f"certificate {path} is for n = {cert_doc['n']}, "
                         f"this config has n = {model.n}")
    dv = DecisionVars.from_json(cert_doc["variables"], model.n)
    margin = json_numbers(cert_doc.get("margin"), (), f"certificate {path}: margin")
    if not margin > 0:
        raise InputError(f"certificate {path} has no positive margin")
    # a product past the float range scores NaN, which is not valid
    with np.errstate(over="ignore", invalid="ignore"):
        recheck = verify_certificate(model, dv, margin=0.5 * margin)
    if not recheck.valid:
        raise InputError(f"certificate {path} fails its recheck: worst "
                         f"constraint margin {recheck.worst_margin:.3e} < "
                         f"{0.5 * margin:.3e}")
    return dv


def cmd_simulate(args) -> int:
    # refused before anything is read or written
    for flag, count, least in (("--seeds", args.seeds, 1),
                               ("--lkf-stride", args.lkf_stride, 1),
                               ("--seed", args.seed, 0)):
        if count < least:
            raise InputError(f"{flag} must be at least {least}, got {count}")
    _require_positive(("--horizon", args.horizon), ("--step", args.step),
                      ("--threshold", args.threshold))
    model, doc = load_model(args.config)
    cert_dv = None if args.lkf is None else _load_certificate(args.lkf, model, doc)
    started = _now()
    timings = dict.fromkeys(("integrate_seconds", "metrics_seconds",
                             "lkf_seconds", "write_seconds"), 0.0)

    @contextlib.contextmanager
    def clock(phase):
        """Add the wall time of the block to ``timings[phase]``."""
        start = time.perf_counter()
        yield
        timings[phase] += time.perf_counter() - start

    seeds = range(args.seed, args.seed + args.seeds)
    # before any start is drawn: a huge --seeds would draw for a long time
    require_node_memory(model, len(seeds), args.horizon, args.step)
    with clock("integrate_seconds"):
        trajs = integrate(model, [_start_for_seed(model, seed)
                                  for seed in seeds], args.horizon, args.step)
    with clock("metrics_seconds"):
        entries = [_run_entry(seed, traj, args)
                   for seed, traj in zip(seeds, trajs)]
    first = next(((e["seed"], traj) for e, traj in zip(entries, trajs)
                  if e["status"] == "completed"), None)
    trace = None
    if cert_dv is not None and first is not None:
        # refused unless its total, and so every part, and its largest rise
        # are finite: that is where an overflow shows, so numpy need not warn
        with clock("lkf_seconds"), np.errstate(over="ignore", invalid="ignore"):
            trace = lkf_trace(first[1], cert_dv, stride=args.lkf_stride)
            finite = np.isfinite(np.append(trace.total, trace.max_increase()))
        if not finite.all():
            raise InputError(f"certificate {args.lkf} gives a functional that is "
                             f"not finite along seed {first[0]}: its numbers "
                             "are too large")
    # made only once the grid and the functional are computed, so a refused
    # run leaves no files
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs: list[str] = []
    lines = [f"{'seed':>6}  {'status':<10} {'final_sup':>12} "
             f"{'t_thresh':>9} {'envelope':>8}"]
    for entry, traj in zip(entries, trajs):
        if entry["status"] == "completed":
            csv_path = out_dir / f"trajectory_seed{entry['seed']}.csv"
            with clock("write_seconds"):
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
    if trace is not None:
        csv_path = out_dir / f"lkf_seed{first[0]}.csv"
        with clock("write_seconds"):
            _write_lkf_csv(csv_path, trace)
        outputs.append(str(csv_path))
        lkf_report = {"seed": first[0], "csv": str(csv_path),
                      "v_start": float(trace.total[0]),
                      "v_end": float(trace.total[-1]),
                      "max_rise": trace.max_increase()}
        lines.append(f"lkf:    max rise {lkf_report['max_rise']:.3e} "
                     f"(V(0) = {lkf_report['v_start']:.6e}) -> {csv_path}")

    summary_path = out_dir / "summary.csv"
    with clock("write_seconds"):
        _write_summary_csv(summary_path, entries)
    outputs.append(str(summary_path))

    manifest = RunManifest("simulate", args.config, args.seed,
                           config_hash(doc), __version__, started, _now(),
                           outputs)
    with clock("write_seconds"):
        manifest.write(out_dir / "manifest.json")

    ok = all(e["status"] == "completed" and e["converged"] for e in entries)
    report = {"runs": entries, "all_converged": ok,
              "linear_blend_lookups": max((t.blended_lookups for t in trajs),
                                          default=0),
              "timings": {k: round(v, 3) for k, v in timings.items()},
              "outputs": outputs}
    # states, metrics and the functional are taken about the rest point
    if np.any(trajs[0].rest):
        report["equilibrium"] = qv_components(trajs[0].rest).tolist()
    if lkf_report is not None:
        report["lkf"] = lkf_report
    lines.append(f"summary: {summary_path}")
    _emit(report, args.json, lines)
    return 0 if ok else 1


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
        raise InputError(f"malformed bracket {args.bracket!r}; "
                         "expected lo,hi") from exc
    if not (hi > lo >= 0.0):
        raise InputError("bracket must satisfy 0 <= lo < hi")

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
    lines.append(f"note: {args.param} enters the criterion only as its square "
                 "times a positive definite variable in a diagonal block of "
                 "Omega (delta^2 P3, d1^2 R1, d2^2 R2), so a certificate at a "
                 "value certifies every smaller value.")
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
                      help="write the per-iteration solver CSV here")
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
    except (QvnnError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
