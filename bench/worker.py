"""One workload in one fresh process: set up, run whole rounds, check.

Run by run.py; prints one JSON object on its last stdout line.

  python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/worker.py --workload NAME --seed N --setup-only

Set-up time runs from the first line of this file, before numpy and
mmconc are imported, to the end of input generation.  A round runs every
operation of the workload once; rounds repeat until their summed
operation time reaches --seconds, and always run whole, so each round
attempts the same operations; there are always at least two.  The first
round's outputs are checked against the oracles; every later round must
reproduce them exactly.  The first round is a warm-up: timings come
from the untraced rounds after it.

In the timed rounds a timer fires every CAL_TICK_S, and when it lands
inside an operation it times a fixed calibration unit of interpreter
and numpy work there (its time is taken off the operation's time).
The unit's mean duration follows the machine's speed, which on a small
shared host drifts by a fifth over minutes; wall_ref_s is the mean
round time scaled by CAL_REF_S over that mean, that is the round time
at the reference speed.  wall_s, the unscaled mean, is reported beside
it.

With --trace 1, rounds alternate untraced and traced, ending after at
least two untraced rounds and one traced round; per-layer metrics come
from the traced rounds, and the tracing overhead is the mean traced
round time minus the mean untraced round time, first round excluded.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# one calibration unit takes this long at the reference speed (a typical
# period of the 2-vCPU machine in README.md); wall_ref_s is in those seconds
CAL_REF_S = 0.0034
CAL_TICK_S = 0.1  # the timer that runs the units fires every this many seconds
_CAL_LARGE = np.arange(100_000.0)
_CAL_SMALL = np.arange(64.0)
_CAL_SMALL_REV = _CAL_SMALL[::-1].copy()


def calibration_unit() -> float:
    """Time a fixed mix of a Python loop, large-array and small-array numpy
    calls, the three kinds of work the workloads do."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for _ in range(4):
        float((_CAL_LARGE * 1.0001 + _CAL_LARGE).sum())
    for _ in range(750):
        np.minimum(_CAL_SMALL, _CAL_SMALL_REV)
    return time.perf_counter() - start


class Calibration:
    """Calibration units run from a timer inside the timed operations.

    While started, SIGALRM fires every CAL_TICK_S; when it lands inside an
    operation (in_op) it times one unit there.  The samples so spread over
    the timed time as the operations do, a long operation's included, and
    the units' time is taken off the operation they interrupt.
    """

    def __init__(self):
        self.units: list[float] = []
        self.spent = 0.0  # summed time of the units so far
        self.in_op = False

    def _tick(self, signum, frame):
        if self.in_op:
            self.units.append(calibration_unit())
            self.spent += self.units[-1]

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_TICK_S, CAL_TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self) -> float:
        """The machine's speed relative to the reference speed."""
        return CAL_REF_S / statistics.fmean(self.units)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None, help="where the traced run writes its spans")
    return parser.parse_args(argv)


def run_round(work, tracer=None, round_index=0, calibration=None):
    """Time every operation once, calibrating when given a Calibration;
    returns outputs, times and failures."""
    ctx = {}
    outputs, times, failures = [], [], []
    if calibration is not None:
        calibration.start()
    try:
        for k, op in enumerate(work.ops):
            if tracer is not None:
                tracer.tag = f"r{round_index}:{k}:{op.label}"
            error = None
            if calibration is not None:
                spent = calibration.spent
                calibration.in_op = True
            start = time.perf_counter()
            try:
                out = op.run(ctx)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            times.append(time.perf_counter() - start)
            if calibration is not None:
                calibration.in_op = False
                times[-1] -= calibration.spent - spent
            if error is None:
                outputs.append(op.finish(out))
            else:
                outputs.append(None)
                failures.append((k, "".join(traceback.format_exception(error, limit=3))))
    finally:
        if calibration is not None:
            calibration.stop()
    return ctx, outputs, times, failures


def below_oracle(tracer) -> int:
    """Heuristic separations strictly below the exact value: Harper's on
    uniform cubes, exhaustive enumeration on spaces of at most 13 points."""
    count = 0
    for space, kappas, value in tracer.sep_lower_calls:
        n_bits = space.n.bit_length() - 1
        cube = (
            len(kappas) == 2
            and kappas[0] == kappas[1]
            and space.n == 1 << n_bits
            and all(len(p) == n_bits and set(p) <= {"0", "1"} for p in space.points)
            and np.all(space.weights == space.weights[0])
        )
        if cube:
            _, exact = oracles.harper_sep_hamming(n_bits, kappas[0])
            count += value < exact * (1 - 1e-12)
        elif len(kappas) == 2 and space.n <= oracles.SUBSET_CAP:
            count += value < oracles.sep_two_groups(space.dist, space.weights, *kappas)
    return count


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(work, args)
        result["setup_s"] = setup_s
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(work, args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    problems: list[str] = []
    measured = 0.0
    plain_walls, traced_walls, round_times = [], [], []
    calibration = Calibration()
    attempted = failed = 0
    first_prints = None
    exact_results = None
    peak_rss_mb = None
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            # the warm-up and traced rounds are not calibrated
            cal = calibration if index > 0 and not traced else None
            ctx, outputs, times, failures = run_round(work, tracer if traced else None, index, cal)
        finally:
            if traced:
                tracer.uninstall()
        if index == 0:
            # peak memory of the operations, before any check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured += sum(times)
        (traced_walls if traced else plain_walls).append(sum(times))
        if not traced:
            round_times.append(times)
        attempted += len(work.ops)
        failed += len(failures)
        for k, trace_text in failures:
            if not work.ops[k].expected_fault:
                problems.append(f"{work.ops[k].label} raised:\n{trace_text}")
        prints = [None if out is None else op.fingerprint(out) for op, out in zip(work.ops, outputs)]
        if index == 0:
            first_prints = prints
            exact_results = sum(op.exact(out) for op, out in zip(work.ops, outputs) if out is not None)
            for op, out in zip(work.ops, outputs):
                if out is not None:
                    problems += [f"{op.label}: {p}" for p in op.check(out, ctx)]
            problems += work.round_check(outputs)
        elif prints != first_prints:
            changed = [op.label for op, a, b in zip(work.ops, prints, first_prints) if a != b]
            problems.append(f"round {index} outputs differ from round 0 at {changed}")
        del ctx, outputs
        index += 1
        # the first round, with its lazy imports and cold caches, is a
        # warm-up: every run also times an untraced round after it
        if measured >= args.seconds and len(plain_walls) > 1 and (tracer is None or traced_walls):
            break

    wall_s = statistics.fmean(plain_walls[1:])
    speed = calibration.speed()
    result = {
        "workload": work.name,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(plain_walls),
        "ops_per_round": len(work.ops),
        # the mean over the untraced rounds after the warm-up integrates
        # every second they measured; a median of a few rounds does not
        "wall_s": wall_s,
        # the machine's speed relative to the reference, from every
        # calibration unit of those rounds
        "speed": speed,
        "calibration_units": len(calibration.units),
        "wall_ref_s": wall_s * speed,
        "round_times": round_times,
        # each operation's latency is its median over the same rounds;
        # op_p50_ms is the median of those over the operation list
        "op_p50_ms": 1000.0 * statistics.median(statistics.median(t) for t in zip(*round_times[1:])),
        "peak_rss_mb": peak_rss_mb,
        "exact_results": exact_results,
    }
    if tracer is not None:
        rounds = len(traced_walls)
        layers = {}
        for name, row in tracer.layer_totals().items():
            layers[f"{name}.calls"] = row["calls"] / rounds
            layers[f"{name}.self_s"] = row["self_s"] / rounds
        for name in tracing.COUNTERS:
            layers[name] = tracer.counters.get(name, 0) / rounds
        layers["separation.sep_lower_bound.below_oracle"] = below_oracle(tracer) / rounds
        result["traced_rounds"] = rounds
        result["traced_wall_s"] = statistics.fmean(traced_walls)
        result["warm_wall_s"] = wall_s
        result["layers"] = layers
        if args.trace_file:
            tracer.write(args.trace_file)
    return result


if __name__ == "__main__":
    sys.exit(main())
