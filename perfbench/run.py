"""The qvnn benchmark: certify and simulate workloads through the CLI.

    python3 perfbench/run.py --workload {certify-n2,certify-n3,simulate}
        --seed N --seconds S --trace {0,1}

One client in one process issues one ``qvnn.cli.main([... , "--json"])``
call at a time, with the CLI's defaults except where ``workloads.py`` says
otherwise; the program sees only the config and certificate files the
benchmark generates, and ``--seed`` picks the first history seed of the
simulate calls. A run first times ``SETUP_REPEATS``
set-ups, each in a fresh process (see ``prepare.py``), then repeats the
workload's pass of CLI calls until ``--seconds`` have passed and
``MIN_PASSES`` ran, checking every outcome.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` the run adds one traced pass (spans around each layer's public
function) and a memory pass under tracemalloc, and the last line carries
the per-layer metrics; the spans go to ``.bench_work/traces/``. The lines
before the last one name every metric with its unit, and the environment.
Inputs are written under ``.bench_work/`` and removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, union_seconds

# A simulate set-up includes a certify call of about 9 s, and a simulate
# pass varies more than a certify pass (its thread pool hands the GIL to
# threads on another vCPU), so that workload spends its share of the run
# budget on more passes rather than on more set-ups.
SETUP_REPEATS = {"certify-n2": 3, "certify-n3": 3, "simulate": 1}
MIN_PASSES = {"certify-n2": 1, "certify-n3": 1, "simulate": 3}
WORK = workloads.ROOT / ".bench_work"
THREAD_VARS = ("QVNN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

# (module, attribute the callers look up, span name)
TRACED = (
    ("cli", "load_model", "model.load"),
    ("cli", "build_sdp", "lowering.build"),
    ("lowering", "quat_constraints", "lmi.assembly"),
    ("cli", "scale_problem", "sdp.scale"),
    ("cli", "solve_feasibility", "sdp.solve"),
    ("cli", "verify_certificate", "lmi.verify"),
    ("cli", "integrate", "simulate.integrate"),
    ("cli", "convergence_metrics", "simulate.metrics"),
    ("cli", "lkf_trace", "lkf.trace"),
)


def set_up(workload: str, run_dir: Path, repeats: int):
    """Time ``repeats`` fresh-process set-ups; (seconds, certify seconds, dir)."""
    seconds, certify = [], []
    for k in range(repeats):
        out = run_dir / f"setup{k}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("prepare.py")),
             "--workload", workload, "--out", str(out)],
            capture_output=True, text=True, timeout=170)
        seconds.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up failed with exit code "
                             f"{proc.returncode}")
        certify_s = json.loads(proc.stdout.splitlines()[-1])["certify_s"]
        if certify_s is not None:
            certify.append(certify_s)
    return seconds, certify, out


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"seed": seed, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def timed_passes(cli, plan, outcome, seconds: float, min_passes: int):
    """Repeat the pass until ``seconds`` have passed and at least
    ``min_passes`` ran; (pass walls, results)."""
    walls, results = [], []
    start = time.perf_counter()
    while True:
        wall, res = workloads.run_pass(cli, plan, outcome)
        walls.append(wall)
        results.extend(res)
        if (len(walls) >= min_passes
                and time.perf_counter() - start >= seconds):
            return walls, results


def traced_pass(cli, plan, outcome):
    tracer = Tracer()
    modules = {"cli": cli}
    try:
        from qvnn import lowering
        modules["lowering"] = lowering
    except ImportError:
        pass
    for mod, attr, name in TRACED:
        if mod in modules:
            tracer.wrap(modules[mod], attr, name)
        else:
            tracer.missing.append(name)
    try:
        wall, results = workloads.run_pass(
            cli, plan, outcome, around=lambda call: tracer.span("cli", root=True))
    finally:
        tracer.unwrap()
    return tracer, wall, results


def memory_pass(cli, config_paths) -> dict:
    """tracemalloc peaks (MiB) above the entry level of the lowering and of
    one solver centering round, whose Newton steps allocate what every later
    round does. Runs apart from every timed pass."""
    import tracemalloc
    from qvnn.model import load_model
    from qvnn.sdp import SolverConfig
    build = getattr(cli, "build_sdp", None)
    scale = getattr(cli, "scale_problem", None)
    solve = getattr(cli, "solve_feasibility", None)
    peaks = {}

    def peak_of(fn, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, (tracemalloc.get_traced_memory()[1] - base) / 2**20

    tracemalloc.start()
    try:
        for path in config_paths:
            model, _ = load_model(path)
            if build is None:
                break
            sdp, mb = peak_of(build, model)
            peaks["lowering.peak_mb"] = max(peaks.get("lowering.peak_mb", 0.0), mb)
            if scale is None or solve is None:
                continue
            scaled, _ = scale(sdp)
            del sdp
            _, mb = peak_of(solve, scaled, SolverConfig(max_outer_iters=1))
            peaks["sdp.peak_mb"] = max(peaks.get("sdp.peak_mb", 0.0), mb)
    finally:
        tracemalloc.stop()
    return peaks


def layer_metrics(tracer: Tracer, results, mem: dict) -> dict:
    def total(name):
        return sum(s.seconds for s in tracer.named(name))

    def have(*names):
        return not any(n in tracer.missing for n in names)

    certs = [r.report for r in results if r.kind == "certify" and r.report]
    sims = [r for r in results if r.kind == "simulate"]
    m = {"cli.self_s": (sum(tracer.self_seconds(s)
                            for s in tracer.named("cli")), "s")}
    if have("model.load"):
        m["model.load_s"] = (total("model.load"), "s")
    if have("lmi.assembly", "lowering.build"):
        per_build = assembly_per_build(tracer)
        m["lmi.assembly_calls"] = (statistics.median(per_build) if per_build
                                   else 0, "count")
    if have("lmi.assembly"):
        m["lmi.assembly_s"] = (total("lmi.assembly"), "s")
    if have("lowering.build"):
        m["lowering.build_s"] = (total("lowering.build"), "s")
        if have("lmi.assembly"):
            m["lowering.embed_s"] = (total("lowering.build")
                                     - total("lmi.assembly"), "s")
        m["lowering.peak_mb"] = (mem.get("lowering.peak_mb", 0.0), "MiB")
    m["lowering.num_vars"] = (max((c.get("num_variables", 0) for c in certs),
                                  default=0), "count")
    if have("sdp.scale"):
        m["sdp.scale_s"] = (total("sdp.scale"), "s")
    steps = sum(c.get("iterations", 0) for c in certs)
    if have("sdp.solve"):
        m["sdp.solve_s"] = (total("sdp.solve"), "s")
        m["sdp.peak_mb"] = (mem.get("sdp.peak_mb", 0.0), "MiB")
        m["sdp.newton_step_ms"] = (1e3 * total("sdp.solve") / steps
                                   if steps else 0.0, "ms")
    m["sdp.newton_steps"] = (steps, "count")
    m["sdp.outer_rounds"] = (sum(c.get("outer_rounds", 0) for c in certs),
                             "count")
    # the CLI's default solver seed is 0; a later seed means restarts
    m["sdp.seed_restarts"] = (sum(c.get("seed_used", 0) for c in certs),
                              "count")
    if have("lmi.verify"):
        m["lmi.verify_s"] = (total("lmi.verify"), "s")
    members = tracer.named("simulate.integrate")
    if have("simulate.integrate"):
        busy = total("simulate.integrate")
        member_steps = sum(r.steps for r in sims)
        union = union_seconds([(s.start, s.end) for s in members])
        m["simulate.integrate_s"] = (busy, "s")
        m["simulate.member_s"] = (statistics.median(s.seconds for s in members)
                                  if members else 0.0, "s")
        m["simulate.step_us"] = (1e6 * busy / member_steps if member_steps
                                 else 0.0, "us")
        m["simulate.concurrency"] = (busy / union if union else 0.0, "ratio")
    if have("simulate.metrics"):
        m["simulate.metrics_s"] = (total("simulate.metrics"), "s")
    m["simulate.diverged"] = (sum(1 for r in sims for e in
                                  (r.report or {}).get("runs", [])
                                  if e.get("status") == "diverged"), "count")
    if have("lkf.trace"):
        samples = sum(lkf_samples(r.report) for r in sims)
        m["lkf.trace_s"] = (total("lkf.trace"), "s")
        m["lkf.samples"] = (samples, "count")
        m["lkf.sample_us"] = (1e6 * total("lkf.trace") / samples if samples
                              else 0.0, "us")
    return m


def assembly_per_build(tracer: Tracer) -> list[int]:
    return [sum(1 for c in tracer.children(b) if c.name == "lmi.assembly")
            for b in tracer.named("lowering.build")]


def lkf_samples(report) -> int:
    """Rows of the LKF CSV the CLI wrote (one per sample)."""
    lkf = (report or {}).get("lkf")
    if not lkf:
        return 0
    with open(lkf["csv"]) as fh:
        return sum(1 for _ in fh) - 1


def emit(metrics: dict, outcome) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<24} {value:>14.6g} {unit}")
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_s, setup_certify_s, inputs_dir = set_up(
            args.workload, run_dir,
            1 if args.trace else SETUP_REPEATS[args.workload])
        cli = workloads.import_cli()
        files = {p.stem: p for p in inputs_dir.glob("*.json")}
        plan = workloads.calls(cli, args.workload, args.seed, files,
                               run_dir / "out")
        env = environment(args.seed)
        print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
        print("env " + json.dumps(env))

        outcome = workloads.Outcome()
        walls, results = timed_passes(cli, plan, outcome, args.seconds,
                                      MIN_PASSES[args.workload])
        run_s = statistics.median(walls)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        certify_s = [r.seconds for r in results if r.kind == "certify"]
        sim = [r for r in results if r.kind == "simulate"]
        sim_steps = sum(r.steps for r in sim)
        sim_s = sum(r.seconds for r in sim)
        share = len(outcome.failures) / outcome.attempted
        print(f"pass walls {[round(w, 3) for w in walls]} s; call seconds "
              f"{[round(r.seconds, 3) for r in results]}")
        print(f"passes {len(walls)}; fail_share {share:g} "
              f"({len(outcome.failures)} of {outcome.attempted} operations)")
        if sim_s:
            print(f"sim_steps_per_s {sim_steps / sim_s:.6g} 1/s "
                  f"({sim_steps} member steps)")

        if not args.trace:
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "run_s": (run_s, "s"),
                "certify_s": (statistics.median(certify_s or setup_certify_s), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }
        else:
            tracer, traced_s, traced_results = traced_pass(cli, plan, outcome)
            mem = memory_pass(cli, [call.argv[1] for call in plan
                                    if call.kind == "certify"])
            metrics = layer_metrics(tracer, traced_results, mem)
            metrics["trace.overhead_s"] = (traced_s - run_s, "s")
            print(f"traced pass {traced_s:.6g} s, untraced {run_s:.6g} s")
            print(f"assembly calls per build: {assembly_per_build(tracer)}")
            print(f"missing layer functions: {tracer.missing or 'none'}")
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(
                {"env": env, "missing": tracer.missing,
                 "spans": tracer.to_json()}) + "\n")
            print(f"spans written to {trace_path.relative_to(workloads.ROOT)}")
        emit(metrics, outcome)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
