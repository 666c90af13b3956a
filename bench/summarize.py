#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/summarize.py --workloads churn-rerank-10k --seeds 1-5
    python3 bench/summarize.py --seeds 1-10 --out bench/BENCH_seed.json

Runs are sequential, one process at a time. For every workload and metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread, which is the inter-quartile distance as a share of the median, beside
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("nan"), "n": len(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(bench["command"], workload, s, args.seconds, args.trace)
                for s in args.seeds]
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarise(values), unit=runs[0]["result"]["metrics"][name]["unit"],
                                 values=values)
            m = metrics[name]
            bound = bounds.get(name)
            print(f"{workload:18s} {name:32s} median {m['median']:14.6g} "
                  f"q1 {m['q1']:14.6g} q3 {m['q3']:14.6g} spread {m['spread']:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""), flush=True)
        report["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics,
            "fingerprints": {str(s): r["info"]["fingerprints"] for s, r in zip(args.seeds, runs)},
            "failed_checks": {str(s): r["info"]["failed_checks"]
                              for s, r in zip(args.seeds, runs) if r["info"]["failed_checks"]},
        }
        report["machine"] = runs[0]["info"]["machine"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
