"""The mmconc benchmark: trend, queries and geometry workloads.

  python3 bench/run.py                                  # every workload, untraced
  python3 bench/run.py --trace 1                        # every workload, traced
  python3 bench/run.py --workload queries --seed 3 --seconds 30 --trace 0

Each workload runs in fresh worker processes (bench/worker.py), in one
Python thread with workers=1.  Untraced, a run prints the end-to-end
metrics; traced, it prints every per-layer metric and the tracing
overhead.  The last stdout line is one JSON object: for a single
workload {"correct", "attempted", "failed", "metrics"}, for all of them
a map from workload name to that object.  Results go to bench/out/.

Exits 2 without a result when the mmconc sources are not beside the
benchmark, and 1 when a worker fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trend", "queries", "geometry")
SETUP_SAMPLES = 7  # set-up is timed in this many fresh processes; median reported
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mb": "MB",
    "exact_results": "count",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


class BenchError(RuntimeError):
    pass


def worker(args: list[str]) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    # one BLAS thread: the timed work is single-threaded Python, and idle
    # BLAS threads only add noise on a small shared machine
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    try:
        # on timeout, run() kills the worker and waits for it before raising
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=env
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {' '.join(args)}") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    args = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--trace-file", os.path.join(HERE, "out", f"trace-{name}-seed{seed}.json")]
    detail = worker(args)
    setups = [detail["setup_s"]]
    if not trace:
        setups += [worker(base + ["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    detail["setup_samples"] = setups

    for problem in detail["problems"]:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    if trace:
        metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in detail["layers"].items()}
        overhead = detail["traced_wall_s"] - detail["warm_wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(
            f"{name}: traced wall_s {detail['traced_wall_s']:.4f} s, untraced {detail['warm_wall_s']:.4f} s: "
            f"tracing overhead {overhead:+.4f} s ({detail['traced_rounds']} traced round(s))"
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref_s": detail["wall_ref_s"],
            "peak_rss_mb": detail["peak_rss_mb"],
            "exact_results": detail["exact_results"],
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()}
        # reported, not gated: a single operation's latency moves too much
        # between runs on a small shared machine to bound (see README)
        print(
            f"{name}: op_p50_ms = {detail['op_p50_ms']:.6g} ms, the median over {detail['ops_per_round']} "
            f"operations of each one's median latency over {detail['rounds']} round(s) (not gated)"
        )
        print(
            f"{name}: wall_s = {detail['wall_s']:.6g} s unscaled; the machine ran at {detail['speed']:.4f} "
            f"of the reference speed over {detail['calibration_units']} calibration units (not gated)"
        )
        print(f"{name}: setup_s is the median of {len(setups)} fresh processes")
    for key, m in metrics.items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name}: attempted {detail['attempted']}, failed {detail['failed']}, correct {detail['correct']}")
    result = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(HERE, "out", f"result-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mmconc benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mmconc", "__init__.py")):
        print(f"mmconc sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
