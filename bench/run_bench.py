#!/usr/bin/env python3
"""Benchmark command for orag.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload churn-rerank-10k --seed 1 --seconds 35 --trace 0

It builds the workload's inputs from the seed, measures for about `--seconds`
seconds, checks the outputs, and prints two JSON lines: an `info` object
(machine facts, sample counts, fingerprints, failed checks and, when traced,
per-span statistics), then the result object with `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
reports the per-layer metrics of a traced run. Scratch files and span dumps go
to `.bench_out/` in the checkout. See bench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

# One BLAS/OpenMP thread, set before numpy loads: the load is one process on
# a shared two-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

UNITS = {
    "setup_s": "s",
    "round_us_p90": "us",
    "job_s_p90": "s",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
    "policy.score_us": "us",
    "policy.sample_us": "us",
    "policy.uniforms": "count",
    "learner.estimate_us": "us",
    "learner.apply_update_us": "us",
    "catalog.update_rows_us": "us",
    "catalog.rows_written": "count",
    "round.step_self_us": "us",
    "simulator.query_at_us": "us",
    "simulator.score_calls_per_round": "count",
    "catalog.build_ms": "ms",
    "simulator.make_environment_ms": "ms",
    "io_utils.load_config_ms": "ms",
    "catalog.snapshot_write_ms": "ms",
    "catalog.snapshot_read_ms": "ms",
    "io_utils.write_event_log_ms": "ms",
    "io_utils.read_event_log_ms": "ms",
    "io_utils.event_log_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def import_orag() -> None:
    """Put the checkout's `src` first on the path and make sure orag loads from it."""
    package = os.path.join(SRC, "orag")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: orag sources not found at {package}")
    sys.path.insert(0, SRC)
    import orag

    if os.path.dirname(os.path.abspath(orag.__file__)) != package:
        raise SystemExit(f"error: orag was imported from {orag.__file__}, not {package}")


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, params=None) -> tuple[dict, dict]:
    """Run one workload; returns (info, result) as printed."""
    import workloads

    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        out = workloads.run(workload, seed, seconds, trace, scratch, params)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine_facts(), **out["info"], "failed_checks": out["fails"][:20]}
    if trace:
        tracer = out["tracer"]
        values, info["spans"] = tracer.summary()
        values["trace.overhead_ratio"] = out["overhead"]
        values["io_utils.event_log_bytes"] = next(iter(out["info"]["fingerprints"].values()))[
            "event_log_bytes"]
        info["trace_file"] = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")
        tracer.write(info["trace_file"])
    else:
        values = out["e2e"]
    failed = min(out["failed"], out["attempted"])
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(values.items())},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_orag()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
