#!/usr/bin/env python3
"""Simulator benchmark: one workload per invocation, one JSON result line.

Run from the repository root::

    python3 simbench/run.py --workload paper-grid --seed 0 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the per-layer attribution instead. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full result (with an
environment fingerprint) and, for traced runs, the recorded spans are
written under ``simbench/out/``. See ``simbench/README.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so this process and the forked process-backend
# workers (which inherit the environment) run single-threaded BLAS.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in PINNED_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": _git_describe(),
    }


def stop_children() -> None:
    """Stop and reap every process this run started.

    Process-backend workers are joined by ``sim.close()``; this catches any
    left behind. The shared-memory block also starts multiprocessing's
    resource tracker, a separate process that would otherwise outlive the
    benchmark, so it is stopped and waited for here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(timeout=5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"simbench: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tally = harness.Tally()
    if args.trace:
        metrics, detail, trace = harness.measure_traced(workload, args.seed, tally)
    else:
        metrics, detail = harness.measure_untraced(workload, args.seed, args.seconds, tally)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(trace.dump()))
    result = {
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "errors": tally.errors,
        "detail": detail,
        **result,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for error in tally.errors:
        print(f"check failed: {error}")
    print(json.dumps({"fingerprint": record["fingerprint"], "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
