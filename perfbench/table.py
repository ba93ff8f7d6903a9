"""Run benchmark workloads for one seed and print every metric by name and unit.

    python3 perfbench/table.py --seed N [--seconds S] [--trace] [--size tiny]
                               [WORKLOAD ...]

--seconds defaults to BENCHMARK.json's run_seconds.

Runs each named workload (all of BENCHMARK.json's by default) through
run.py, each in a fresh interpreter, and prints one row per workload.  Exits 1 when any run
reports a wrong verdict or an incorrect result, 2 when a run fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def run_seconds() -> float:
    """The run length BENCHMARK.json fixes."""
    return BENCHMARK["run_seconds"]


def run_one(workload: str, seed: int, seconds: float, trace: bool = False,
            size: str = "full") -> tuple[dict, dict]:
    """One run.py run in a fresh interpreter; (detail, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--size", size]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise RuntimeError(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


def format_row(detail: dict, result: dict) -> str:
    cells = [f"{detail['workload']}:",
             f"correct={result['correct']}",
             f"attempted={result['attempted']}",
             f"failed={result['failed']}",
             f"wrong_verdicts={detail['wrong_verdicts']} count",
             f"certified_share={detail['certified_share']:.4g} ratio",
             f"failed_share={detail['failed_share']:.4g} ratio"]
    for name, metric in result["metrics"].items():
        cells.append(f"{name}={metric['value']:.6g} {metric['unit']}")
    for kind in ("certify", "verify"):
        if f"{kind}_s_p90_norm" in detail:
            cells.append(f"{kind}_s_p90_norm={detail[f'{kind}_s_p90_norm']:.6g} s")
        cells.append(f"{kind}_ops={detail[f'{kind}_ops']} count")
    return "  ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads:
        try:
            detail, result = run_one(workload, args.seed, args.seconds, args.trace,
                                     args.size)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{workload}: run failed: {exc}")
            status = 2
            continue
        print(format_row(detail, result), flush=True)
        if detail["wrong_verdicts"] > 0 or not result["correct"]:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
