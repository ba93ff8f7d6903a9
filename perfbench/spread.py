"""Run one workload on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py WORKLOAD --seeds 1,2,...,10 [--seconds S]
                                [--json OUT]

--seconds defaults to BENCHMARK.json's run_seconds.

Each seed is one run.py run in a fresh interpreter; run.py's stderr is passed
through.  The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles(values, n=4)) divided by their
median, the figure that BENCHMARK.json's bounds are set against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from table import run_one, run_seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--json", type=Path, help="also write the figures here")
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        start = time.monotonic()
        try:
            _, result = run_one(args.workload, seed, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"seed {seed}: run failed: {exc}")
            return 2
        runs.append({"seed": seed, "wall_s": time.monotonic() - start,
                     "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"]})
        print(f"seed {seed}: {runs[-1]['wall_s']:.1f} s wall, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"{name:32s} {median:12.6g} {units[name]:6s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.3f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                         "runs": runs,
                                         "metrics": summary}, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
