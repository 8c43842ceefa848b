"""Benchmark of the henon-morse command line, one workload per run.

    python3 perfbench/run.py --workload {point,battery} --seed N \
        --seconds S --trace {0,1}

Every operation enters the program in this process through
``henon_morse.cli.main``, serially (a closed loop with one client).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import program  # noqa: F401  (first: pins thread pools, finds the sources)

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

from henon_morse import cli

import spans
import workloads

HERE = Path(__file__).resolve().parent

# Rounds every run holds at least: about 60 s of work on point and 25 s on
# battery.  The reference machine's speed drifts by 15-25 % over tens of
# seconds (README), so shorter runs scatter by about as much.  Both give a
# p90 of alpha-point latency ten or more samples beyond it (point: 119 per
# round, battery: 15).
MIN_ROUNDS = {"point": 2, "battery": 10}
# Rounds of each half of a traced run; counts repeat exactly between runs.
TRACE_ROUNDS = {"point": 1, "battery": 7}
SETUP_SAMPLES = 2  # before the timed rounds, and as many again after them
SETUP_CHILD_TIMEOUT_S = 60


def measure_setup(tmp: Path) -> list:
    """Set-up times of fresh interpreters: from spawn until ``import
    henon_morse`` and the warm-up operation are done."""
    samples = []
    for i in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(tmp / f"setup{i}.json")],
            capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S)
        if child.returncode != 0:
            sys.exit(f"perfbench: set-up sample failed:\n{child.stderr}")
        samples.append(float(child.stdout.split()[-1]) - spawned)
    return samples


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    all order statistics, so one sample near the middle cannot move it."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def _error_name(stderr: str) -> str:
    for line in reversed(stderr.strip().splitlines()):
        try:
            return json.loads(line)["error"]
        except (ValueError, KeyError, TypeError):
            continue
    return "unknown"


class Runner:
    """Runs rounds of one workload and keeps what the metrics need."""

    def __init__(self, workload, seed, tmp, tracer=None):
        self.workload = workload
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.tracer = tracer
        self.checker = workloads.Checker()
        self.ops = []  # (op_id, operation, start, end, error name or None)
        self.unexpected = []

    def run_op(self, op):
        op_id = len(self.ops)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if self.tracer is None:
                code = cli.main(list(op.argv))
            else:
                code = self.tracer.operation(op_id, cli.main, list(op.argv))
            end = time.perf_counter()
        error = None if code == 0 else _error_name(err.getvalue())
        self.ops.append((op_id, op, start, end, error))
        if error is None:
            self.checker.check(op)
        elif workloads.EXPECTED_FAILURES.get(op.key) != error:
            self.unexpected.append(f"{' '.join(op.argv)} -> exit {code} {error}")

    def run_round(self):
        for op in workloads.make_round(self.workload, self.rng, self.tmp):
            self.run_op(op)
        if self.workload == "point":
            self.checker.end_point_round()

    def run(self, seconds=None, rounds=None):
        """Run ``rounds`` rounds, or at least MIN_ROUNDS and then more while
        the next round is expected to end within ``seconds``.  Returns
        their total wall time."""
        started = time.perf_counter()
        done = 0
        while True:
            self.run_round()
            done += 1
            elapsed = time.perf_counter() - started
            if rounds is not None:
                if done >= rounds:
                    return elapsed
            elif (done >= MIN_ROUNDS[self.workload]
                  and elapsed * (done + 1) / done > seconds):
                return elapsed

    def result(self, metrics):
        attempted = len(self.ops)
        failed = sum(1 for op in self.ops if op[4] is not None)
        for line in self.checker.problems + self.unexpected:
            print("perfbench:", line, file=sys.stderr)
        if self.checker.unchecked:
            print(f"perfbench: {self.checker.unchecked} points within the "
                  "threshold margin were not checked in closed form",
                  file=sys.stderr)
        return {"correct": not self.checker.problems, "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


def point_latencies(runner, clock) -> list:
    """Latency of each alpha point that succeeded.  On ``point`` an alpha
    point is one morse operation.  Inside a battery it runs from the start
    of one profile solve to the start of the next, or to the end of the
    command; ``clock`` holds those solve spans."""
    if clock is None:
        return [end - start for _, _, start, end, error in runner.ops
                if error is None]
    starts = {}
    for _, name, start, _, _, op_id, _ in clock.spans:
        if name == "radial.solve_nodal":
            starts.setdefault(op_id, []).append(start)
    latencies = []
    for op_id, _, _, end, error in runner.ops:
        if error is None:
            marks = starts.get(op_id, []) + [end]
            latencies.extend(b - a for a, b in zip(marks, marks[1:]))
    return latencies


def end_to_end(args, tmp):
    setup = measure_setup(tmp)
    clock = None
    if args.workload != "point":
        clock = spans.Tracer(targets=[t for t in spans.TARGETS
                                      if t[1] == "solve_nodal"])
        clock.install()
    runner = Runner(args.workload, args.seed, tmp, tracer=clock)
    runner.run(seconds=args.seconds)
    if clock is not None:
        clock.remove()
    setup += measure_setup(tmp)

    latencies = point_latencies(runner, clock)
    op_walls = [end - start for _, _, start, end, _ in runner.ops]
    busy = sum(end - start for _, _, start, end, error in runner.ops
               if error is None)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (quantile(latencies, 0.5), "s"),
        "latency_p90_s": (quantile(latencies, 0.9), "s"),
        "points_per_s": (len(latencies) / busy, "1/s"),
        "wall_s": (statistics.median(op_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
    }
    return runner.result(metrics)


def traced(args, tmp):
    """TRACE_ROUNDS rounds untraced, then as many traced; spans go to
    ``perfbench/out/trace-<workload>.jsonl``."""
    rounds = TRACE_ROUNDS[args.workload]
    runner = Runner(args.workload, args.seed, tmp)
    plain_s = runner.run(rounds=rounds)

    tracer = runner.tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s = runner.run(rounds=rounds)
    finally:
        tracer.remove()

    own_zero = {op_id for op_id, op, *_ in runner.ops if op.asks_alpha_zero}
    metrics = spans.layer_metrics(tracer.spans, own_zero,
                                  100.0 * (traced_s / plain_s - 1.0))
    tracer.write_jsonl(program.OUT / f"trace-{args.workload}.jsonl")
    return runner.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("point", "battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=program.OUT))
    try:
        if cli.main(program.warm_up_argv(tmp / "warm-up.json")) != 0:
            sys.exit("perfbench: the warm-up operation failed")
        result = traced(args, tmp) if args.trace else end_to_end(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
