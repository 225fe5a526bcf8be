"""sdpadmm benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload planted-m300 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all

A run builds the workload's inputs from ``--seed``, times its set-up several
times, then runs the workload's ``sdpadmm`` command in process through
``sdpadmm.cli.main`` as a single closed-loop client (each command starts
after the previous one finished) until ``--seconds`` have passed. Every
command's outputs are checked; a failed check counts against ``failed``.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced commands and reports the per-layer metrics
of the traced ones, plus the tracing overhead. The last line of standard
output is one JSON object; a fuller result with provenance and every sample
is written to ``.perfbench/results/``. With ``--all`` every workload runs
in its own process, once untraced and once traced, and the exit code is
non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing
from tracing import PER_LAYER

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
BLAS_THREADS = "1"

# (name, unit, bound); every metric is better when lower.
END_TO_END = (
    ("run_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("solve_s", "s", 0.25),
    ("ms_per_iter", "ms", 0.25),
    ("iterations", "count", 0.02),
    ("peak_rss_mb", "MB", 0.1),
)
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
SELF_TIME_TOLERANCE_S = 1e-6


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples above
    it; None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed):
    import numpy
    import scipy

    import sdpadmm

    return {
        "sdpadmm": sdpadmm.__version__,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def import_package():
    """Import sdpadmm from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import sdpadmm

    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(sdpadmm.__file__).resolve().parents:
        raise ImportError(f"sdpadmm was imported from {sdpadmm.__file__}, not from {src}")


def time_setup(workload):
    """Times of at least SETUP_REPEATS set-ups, repeated until
    SETUP_MIN_SECONDS have passed so that short set-ups get more samples."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_command(workload, cmd_dir, tracer):
    """One CLI command; returns a sample dict (with ``error`` on failure)."""
    from sdpadmm.cli import main

    out = io.StringIO()
    sample = {"traced": tracer is not None}
    try:
        argv = workload.argv(str(cmd_dir))
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(out))
            if tracer is not None:
                stack.enter_context(tracing.installed(tracer))
                stack.enter_context(tracer.span(tracing.ROOT))
            t0 = time.perf_counter()
            code = main(argv)
            sample["run_s"] = time.perf_counter() - t0
        outcome = workload.check(str(cmd_dir), code, out.getvalue())
    except Exception:  # any failure of one command is counted, not fatal
        sample["error"] = traceback.format_exc(limit=4)
        sample["output"] = out.getvalue()[-2000:]
        return sample
    finally:
        shutil.rmtree(cmd_dir, ignore_errors=True)
    solve_s = outcome.solve_s if outcome.solve_s is not None else sample["run_s"]
    sample.update(
        solve_s=solve_s,
        iterations=outcome.iterations,
        ms_per_iter=1000.0 * solve_s / (outcome.iterations + 1),
        fingerprint=outcome.fingerprint,
        solve_iterations=outcome.solve_iterations,
        constraint_bytes=outcome.constraint_bytes,
    )
    return sample


def measure(workload, workdir, seconds, trace):
    """Closed loop over commands for ``seconds``; with ``trace`` the commands
    alternate untraced and traced, starting untraced."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = tracing.Tracer() if trace and len(samples) % 2 == 1 else None
        sample = run_command(workload, workdir / f"cmd{len(samples)}", tracer)
        if tracer is not None and "error" not in sample:
            sample["layers"] = tracing.layer_metrics(
                tracer.spans, sample["solve_iterations"], sample["constraint_bytes"]
            )
            sample["self_time_defect_s"] = tracing.self_time_defect(tracer.spans)
        samples.append(sample)
        if time.perf_counter() >= deadline and (not trace or len(samples) >= 2):
            return samples


def summarize(workload, samples, setup_times, trace, errors):
    """Metrics of one run, appending to ``errors`` every check that failed."""
    good = [s for s in samples if "error" not in s]
    for s in samples:
        if "error" in s:
            errors.append(s["error"] + s.get("output", ""))
    plain = [s for s in good if not s["traced"]]
    for key in ("iterations", "fingerprint"):
        if len({s[key] for s in good}) > 1:
            errors.append(f"{key} differs between commands of the same run")
    if not plain:
        errors.append("no untraced command succeeded")
        return {}
    if not trace:
        metrics = {
            key: statistics.median(s[key] for s in plain)
            for key in ("run_s", "solve_s", "ms_per_iter", "iterations")
        }
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics
    traced = [s for s in good if s["traced"]]
    if not traced:
        errors.append("no traced command succeeded")
        return {}
    metrics = {}
    units = dict(PER_LAYER)
    for name in traced[0]["layers"]:
        values = [s["layers"][name] for s in traced]
        if units[name] != "s":
            if len(set(values)) > 1:
                errors.append(f"{name} differs between traced commands: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(s["run_s"] for s in traced) - statistics.median(
        s["run_s"] for s in plain
    )
    for s in traced:
        if s["self_time_defect_s"] > SELF_TIME_TOLERANCE_S:
            errors.append(f"self times miss the command span by {s['self_time_defect_s']:.3e} s")
    # One eigendecomposition per extracted iterate: a smaller count means a
    # binding of eig_sym escaped the spans.
    ratio = metrics["solver.eig_per_extraction"]
    if workload.runs_solve and ratio != 1.0:
        errors.append(f"solver.eig_per_extraction = {ratio!r} on a solve workload, expected 1")
    return metrics


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS

    units = dict((n, u) for n, u, _ in END_TO_END) | dict(PER_LAYER)
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, str(workdir))
        t0 = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - t0
        setup_times = time_setup(workload)
        samples = measure(workload, workdir, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = []
    metrics = summarize(workload, samples, setup_times, trace, errors)
    plain = [s for s in samples if not s["traced"] and "error" not in s]
    result = {
        "workload": name,
        "why": workload.why,
        "trace": int(trace),
        "seconds": seconds,
        "client": "closed loop, one client, in process",
        "provenance": provenance(seed),
        "params": workload.params(),
        "prepare_s": prepare_s,
        "setup_samples_s": setup_times,
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
        "tail": {
            key: tail_percentile([s[key] for s in plain])
            for key in ("run_s", "solve_s", "ms_per_iter")
        } | {"setup_s": tail_percentile(setup_times)},
        "errors": errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print_table(result)
    failed = sum(1 for s in samples if "error" in s)
    line = {
        "correct": not errors,
        "attempted": len(samples),
        "failed": failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


def print_table(result):
    samples = result["samples"]
    plain = sum(1 for s in samples if not s["traced"])
    print(f"== {result['workload']} seed={result['provenance']['seed']} "
          f"trace={result['trace']} commands={len(samples)} (untraced {plain}) "
          f"setup samples={len(result['setup_samples_s'])}")
    for key, entry in result["metrics"].items():
        tail = result["tail"].get(key)
        extra = f"  p{tail[0]}={tail[1]:.6g}" if tail else ""
        print(f"  {key:<40} {entry['value']:>14.6g} {entry['unit']}{extra}")
    failed = sum(1 for s in samples if "error" in s)
    print(f"  fail_rate {failed}/{len(samples)}")
    for err in result["errors"]:
        print(f"  CHECK FAILED: {err}")


def run_all(seed, seconds):
    """Every workload in its own process, untraced then traced. The outputs
    must also repeat between the two processes, traced or not."""
    from workloads import WORKLOADS

    failures = []
    for name in WORKLOADS:
        fingerprints = set()
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                failures.append(f"{name} trace={trace} exited with {proc.returncode}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                failures.append(f"{name} trace={trace}: {res['failed']}/{res['attempted']} failed")
            with open(WORK / "results" / f"{name}-seed{seed}-trace{trace}.json") as fh:
                fingerprints |= {s["fingerprint"] for s in json.load(fh)["samples"] if "fingerprint" in s}
        if len(fingerprints) > 1:
            failures.append(f"{name}: outputs differ between the untraced and the traced run")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"benchmark {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before numpy is imported, so that its BLAS starts this many threads.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    import_package()
    if args.all:
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
