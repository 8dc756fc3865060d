"""Outside-in benchmark of cumulyap: four workloads, each in one process.

    python3 perfbench/run.py --workload {study,estimate,certify,theory} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory. Every input is derived from ``--seed``. The run sets up
``SETUP_REPS`` times (caches cleared before each), then repeats passes over
the workload's fixed job list until ``--seconds`` have elapsed and at least
``MIN_PASSES`` ran. Every job's output is checked outside the timed region.
Each set-up and pass is timed between two runs of the reference kernel of
``perfbench/calibration.py`` and reported in its reference seconds, so that
the host's changing speed cancels out; the raw wall times are in the info line.

The last line of standard output is the result: with ``--trace 0`` the
end-to-end metrics (median ``pass_s``, ``setup_s``, ``peak_rss_mb``), with
``--trace 1`` the per-layer metrics of ``perfbench/tracer.py`` from traced
passes that alternate with untraced ones. The line before it records the
machine, the input size and the bases of the per-layer rates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_PASSES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("study", "estimate", "certify", "theory")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """Commit of the checkout from .git, without starting a git process."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def clear_caches(package, layers) -> None:
    """Empty every lru_cache in the package, so each set-up starts cold."""
    for name in layers:
        for value in vars(getattr(package, name)).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_pass(jobs, clock):
    """Run every job once; return (label, output, error) per job."""
    results = []
    clock.start()
    for i, (label, job) in enumerate(jobs):
        try:
            results.append((label, job(), None))
        except Exception as exc:  # a failing job is counted, not fatal
            results.append((label, None, exc))
        if i < len(jobs) - 1:
            clock.tick()
    clock.finish()
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cumulyap" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'cumulyap'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import numpy as np

    import cumulyap
    import tracer
    import workloads
    from calibration import SegmentClock, calibrate, scaled

    import_s = time.perf_counter() - started
    if not Path(cumulyap.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cumulyap from {cumulyap.__file__}", file=sys.stderr)
        return 2

    # Every set-up and pass is timed between two runs of the reference
    # kernel; calib[-1] is always the one right before the next timed step.
    # The kernel's first run pays its own cold start, so it is not kept.
    calibrate()
    calib = [calibrate()]
    workload = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        setup_times, setup_ref = [], []
        for _ in range(1 if args.trace else SETUP_REPS):
            clear_caches(cumulyap, tracer.LAYERS)
            clock = SegmentClock(calib, live=True)
            clock.start()
            inputs = workload.make_inputs(np.random.SeedSequence(args.seed), workdir)
            clock.tick()
            workload.warm_up(inputs, clock.tick)
            clock.finish()
            setup_times.append(clock.wall)
            setup_ref.append(clock.ref)

        trace = tracer.Tracer(cumulyap) if args.trace else None
        plain, traced, layer_metrics = [], [], []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            # With tracing on, traced passes alternate with untraced ones.
            traced_pass = trace is not None and len(traced) < len(plain)
            if traced_pass:
                lo = len(trace.spans)
                trace.install()
            clock = SegmentClock(calib, live=not traced_pass)
            jobs = workload.jobs(inputs, clock.tick)
            try:
                results = run_pass(jobs, clock)
            finally:
                if traced_pass:
                    trace.uninstall()
            if traced_pass:
                traced.append(clock.ref)
                layer_metrics.append(tracer.pass_metrics(trace.spans, lo, clock.wall))
                bases = tracer.pass_bases(trace.spans, lo)
            else:
                plain.append((clock.wall, clock.cpu, clock.ref))
            attempted += len(results)
            failed += workload.count_failures(inputs, results)
            passes = len(plain) + len(traced)
            if passes >= MIN_PASSES and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_s = statistics.median(r for _, _, r in plain)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "input": workload.size,
        "jobs_per_pass": len(jobs),
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "passes_s": [w for w, _, _ in plain],
        "passes_ref_s": [r for _, _, r in plain],
        "calibrations_s": calib,
        "machine": machine(),
    }
    if trace is None:
        metrics = {
            "pass_s": (pass_s, "s"),
            "setup_s": (
                scaled(import_s, calib[0], calib[0]) + statistics.median(setup_ref), "s"
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        info["traced_passes_ref_s"] = traced
        info["bases_per_pass"] = bases
        info["functions_per_pass"] = tracer.function_table(trace.spans, len(traced))
        metrics = {
            key: (value, tracer.unit(key))
            for key, value in tracer.median_metrics(layer_metrics).items()
        }
        metrics["process.cpu_util"] = (
            sum(c for _, c, _ in plain) / sum(w for w, _, _ in plain), "ratio"
        )
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / pass_s - 1.0, "ratio"
        )
        metrics["host.calib_s"] = (statistics.median(calib), "s")
        metrics["host.pass_wall_s"] = (statistics.median(w for w, _, _ in plain), "s")
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
