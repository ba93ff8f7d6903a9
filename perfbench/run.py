"""polycert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the root of a checkout; polycert is imported from ./src.  Progress
and failures go to stderr.  The second-to-last stdout line is
``detail {...}`` with the run's ungated figures (see table.py); the last line
is the result ``{"correct", "attempted", "failed", "metrics"}``.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, measured
untraced; with --trace 1 they are the per-layer metrics of a traced run.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {"setup_s": "s", "batch_s_norm": "s", "certify_s_p50_norm": "s",
                    "verify_s_p50_norm": "s", "peak_rss_mb": "MB"}
# A p90 needs ten samples beyond it; runs with fewer ops of a kind report
# no p90 for it.  p90s are reported in the detail line, not gated.
P90_MIN_OPS = 100


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_attempt", "_per_poly")):
        return "ratio"
    return "count"


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(env: dict) -> tuple[float, float]:
    """Normalised and wall time of a fresh interpreter that imports polycert;
    the speed probes just before and after it scale the wall time."""
    before = speed.probe()
    start = time.perf_counter()
    # capture_output: waiting on the pipes returns at exit, while a bare wait
    # with a timeout polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import polycert"], env=env, cwd=ROOT,
                   check=True, timeout=60, capture_output=True)
    wall = time.perf_counter() - start
    return wall * speed.REFERENCE_S / ((before + speed.probe()) / 2), wall


def measure_cli_startup(env: dict, repeats: int) -> float:
    """Median time from spawning a CLI process until polycert.cli is imported."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), "--startup", repr(time.time())],
            env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run_round(wl, rec, index: int, trace_dir=None, tracer=None) -> tuple[float, float]:
    """One round; returns the normalised and the wall time of its timed
    operations."""
    items = wl.inputs(index)
    rec.round_index, rec.round_norm, rec.round_raw = index, 0.0, 0.0
    if tracer is None:
        wl.run_round(items, index, rec, None)
    else:
        tracer.install()
        try:
            wl.run_round(items, index, rec, trace_dir)
        finally:
            tracer.uninstall()
    return rec.end_round()


def untraced_run(wl, rec, seconds: float, env: dict, setup_samples: int
                 ) -> tuple[dict, dict]:
    """Rounds while the next one is expected to end within ``seconds`` with
    half a round to spare; at least one.  The spare keeps runs of ~18 s
    rounds (cli_hiprec) from flipping between one and two rounds with the
    machine's speed.  The set-up samples are spread over the run, one before
    a round whenever one is due, so that they see the same machine states as
    the rounds; runs whose rounds are too long for that take the rest after
    the last round."""
    batches, raw_batches, setups, index = [], [], [], 0
    start = time.perf_counter()
    while True:
        if len(setups) * seconds <= (time.perf_counter() - start) * setup_samples:
            setups.append(measure_setup(env))
        norm, raw = run_round(wl, rec, index)
        batches.append(norm)
        raw_batches.append(raw)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + 1.5 * elapsed / index > seconds:
            break
    while len(setups) < setup_samples:
        setups.append(measure_setup(env))
    metrics = {"batch_s_norm": statistics.median(batches),
               "peak_rss_mb": peak_rss_mb(wl.children),
               "setup_s": statistics.median(norm for norm, _ in setups)}
    extra = {"rounds": len(batches), "setup_samples": len(setups),
             "setup_s_wall": statistics.median(wall for _, wall in setups),
             "batch_s": statistics.median(raw_batches),
             "probes": rec.speed.probes, "probe_mean_s": rec.speed.mean_probe_s()}
    for kind in ("certify", "verify"):
        times = rec.times[kind]
        if not times:
            raise RuntimeError(f"the run made no {kind} operation")
        metrics[f"{kind}_s_p50_norm"] = percentile(times, 50)
        if len(times) >= P90_MIN_OPS:
            extra[f"{kind}_s_p90_norm"] = percentile(times, 90)
    return metrics, extra


def traced_run(wl, rec, env, workload: str, seed: int, tiny: bool) -> tuple[dict, dict]:
    """Warm-up rounds, then untraced and traced rounds alternately.  The traced
    rounds are a fixed amount of work, so their counts repeat exactly for a seed."""
    import tracer as tracing

    index = 0
    for _ in range(wl.warmup_rounds):
        run_round(wl, rec, index)
        index += 1
    trace_dir = OUT / f"trace-{workload}-{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("*.json"):
        stale.unlink()
    tr = tracing.Tracer()
    plain, traced = [], []
    polys = certified = 0
    for _ in range(1 if tiny else wl.trace_rounds):
        plain.append(run_round(wl, rec, index)[1])
        # Child processes share no caches, so CLI rounds are traced on the
        # inputs just run untraced; in-process rounds take fresh inputs.
        if not wl.children:
            index += 1
        polys_before, certified_before = rec.polys, rec.certified
        traced.append(run_round(wl, rec, index, trace_dir, tr)[1])
        polys += rec.polys - polys_before
        certified += rec.certified - certified_before
        index += 1
    agg = tr.aggregates()
    for child in sorted(trace_dir.glob("*.json")):
        tracing.merge(agg, json.loads(child.read_text(encoding="utf-8")))
        child.unlink()
    trace_dir.rmdir()
    tr.write_spans(OUT / f"spans-{workload}-{seed}.json")
    metrics = tracing.layer_metrics(agg, polys)
    metrics["certify.certified_share"] = certified / polys if polys else 0.0
    metrics["cli.startup_s"] = measure_cli_startup(env, 3 if tiny else 5)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"traced_rounds": len(traced), "spans": len(tr.span_start),
                     "dropped_spans": tr.dropped_spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "polycert" / "__init__.py").is_file():
        print(f"polycert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    cpu = speed.pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    env = workloads.child_env()
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny)
    rec = workloads.Recorder(args.workload, args.seed, wl.limit_s)
    if args.trace:
        metrics, extra = traced_run(wl, rec, env, args.workload, args.seed, tiny)
    else:
        metrics, extra = untraced_run(wl, rec, args.seconds, env, 3 if tiny else 15)
    rec.round_index = "after-loop"
    extra.update(wl.finish(rec))

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "certified_share": rec.certified / rec.polys if rec.polys else 0.0,
        "wrong_verdicts": rec.wrong,
        "failed_share": rec.failed / rec.attempted if rec.attempted else 0.0,
        "known_answer_mismatches": rec.mismatches,
        "certify_ops": len(rec.times["certify"]), "verify_ops": len(rec.times["verify"]),
        "polys": rec.polys, "cpu": cpu, **extra,
    }
    print("detail " + json.dumps(detail))
    result = {
        "correct": rec.wrong == 0 and rec.mismatches == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
