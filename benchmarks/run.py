"""Benchmark of chasekit: chase throughput, time to verdict and query answering.

    python3 benchmarks/run.py --workload chase-grow --seed 1 --seconds 25 --trace 0

Runs one workload (see README.md) in this process as a closed loop with
one caller: it sets up the inputs from the seed several times, then runs
whole rounds of the workload's operations until the next round would pass
``--seconds``, checks the outputs of the last round, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced rounds alternate; the metrics are the per-layer
figures of the traced rounds and the tracing overhead.  Times are
normalised seconds (clock.py).  Raw results, in measured and normalised
seconds, and the kept spans go to ``benchmarks/out/``.

``--workload all`` runs the four workloads one after the other, each in a
fresh process, and prints their metrics by name and unit.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# set-up runs again until it has taken this long, and at least SETUP_REPS times
SETUP_SECONDS = 1.5
SETUP_REPS = 5
WORKLOAD_NAMES = ("chase-grow", "analyze-ring", "analyze-union", "query-qbf")


def import_program():
    """Import chasekit from this checkout's ``src``; None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import chasekit
    except ImportError:
        return None
    if Path(chasekit.__file__).resolve().parent.parent != SRC.resolve():
        return None
    sys.path.insert(0, str(HERE))
    return chasekit


def run_round(workload, inputs, tracer=None, sampler=None) -> tuple:
    """One round, with the sampler of clock.py running if one is given;
    returns it with its wall time in seconds."""
    import workloads
    gc.collect()
    rec = workloads.Recorder(tracer, sampler)
    start = perf_counter()
    try:
        with sampler if sampler is not None else nullcontext():
            workload.round(inputs, rec)
    finally:
        wall = perf_counter() - start
        gc.unfreeze()
    if sampler is not None:
        rec.normalise()
    return rec.round, wall


def timed_setup(workload, seed: int, size: dict, sampler=None) -> tuple:
    """Build the inputs; returns them with the set-up time in seconds,
    normalised if the running sampler of clock.py is given."""
    probes = sampler.spent if sampler is not None else 0.0
    start = perf_counter()
    inputs = workload.setup(seed, size)
    end = perf_counter()
    if sampler is None:
        return inputs, end - start
    return inputs, (end - start - sampler.spent + probes) * sampler.scale(start, end)


class Runs:
    """Everything measured over the rounds of one run."""

    def __init__(self):
        self.untraced: list = []     # per round: the operations, without outputs
        self.traced: list = []       # per traced round: (per-layer figures, spans)
        self.traced_sums: list = []  # per traced round: seconds of its operations
        self.walls: list = []        # wall seconds of every round, in order
        self.prints: set = set()
        self.attempted = 0
        self.failed = 0
        self.last = None             # the last round, with its outputs

    def add(self, rnd, wall: float) -> None:
        import workloads
        self.walls.append(wall)
        self.prints.add(workloads.fingerprint(rnd))
        self.attempted += rnd.attempted
        self.failed += len(rnd.failed)
        self.last = rnd


def measure(workload, inputs, seconds: float, sampler, tracer=None) -> Runs:
    """Untraced rounds, normalised by ``sampler``, until the next one would
    pass ``seconds``; with a tracer, an untraced and a traced round
    alternate instead.  Traced rounds run without the sampler."""
    import tracing
    runs = Runs()
    rnd = None
    while True:
        # the previous round's outputs go before the next round starts, so
        # the peak memory is that of one round whatever the round count
        runs.last = rnd = None
        rnd, wall = run_round(workload, inputs, sampler=sampler)
        runs.add(rnd, wall)
        runs.untraced.append([dataclasses.replace(op, output=None) for op in rnd.ops])
        if tracer is not None:
            runs.last = rnd = None
            tracer.install()
            try:
                rnd, wall = run_round(workload, inputs, tracer)
            finally:
                tracer.uninstall()
            runs.add(rnd, wall)
            taken = tracer.take()
            runs.traced.append((tracing.round_metrics(taken), taken[3]))
            runs.traced_sums.append(sum(op.total for op in rnd.ops))
        per_pair = len(runs.walls) // len(runs.untraced)
        if sum(runs.walls) + per_pair * median(runs.walls) > seconds:
            return runs


def end_to_end(runs: Runs, setup_times: list) -> dict:
    """The end-to-end metrics, in normalised seconds (clock.py).  Each
    operation counts with its mean time over all its runs in all rounds."""
    ops = {}
    for rnd in runs.untraced:
        for op in rnd:
            if op.label in ops:
                ops[op.label].total += op.total
                ops[op.label].norm += op.norm
                ops[op.label].runs += op.runs
            else:
                ops[op.label] = dataclasses.replace(op)

    def seconds(*kinds: str) -> list:
        return [op.seconds for op in ops.values() if op.kind in kinds]

    def mean(xs: list) -> float:
        return sum(xs) / len(xs)

    values = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (sum(op.norm for op in ops.values()) / len(runs.untraced), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "chase_steps_per_s": (sum(op.steps for op in ops.values())
                              / sum(seconds("chase", "query-full")), "steps/s"),
        "analyze_s": (sum(seconds("analyze")), "s"),
        "query_full_s": (mean(seconds("query-full")), "s"),
        "query_guided_s": (mean(seconds("query-guided")), "s"),
        "guided_max_atoms": (max(op.max_atoms for op in ops.values()), "atoms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(runs: Runs, setup_taken: tuple, factor: float, problems: list) -> dict:
    import tracing
    figures = [m for m, _spans in runs.traced]
    metrics = {}
    for key, unit in tracing.ROUND_METRICS.items():
        values = [m[key] for m in figures]
        if unit == "s":
            value = factor * median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{key} differs between identical traced rounds: {values}")
        metrics[key] = {"value": value, "unit": unit}
    for key, value in tracing.setup_metrics(setup_taken).items():
        metrics[key] = {"value": factor * value, "unit": tracing.SETUP_METRICS[key]}
    untraced = median(sum(op.total for op in ops) for ops in runs.untraced)
    overhead = (median(runs.traced_sums) / untraced - 1.0) * 100.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def main(argv=None, sizes: str = "full") -> int:
    """Run one workload; ``sizes`` picks the input sizes ("tiny" in the
    self-test)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_program() is None:
        print(f"benchmark: no chasekit package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import clock
    import tracing
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload]
    size = SIZES[sizes][args.workload]
    tracer = tracing.Tracer() if args.trace else None

    sampler = clock.Sampler()
    setup_times = []
    if tracer is None:
        with sampler:
            while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_SECONDS:
                inputs, elapsed = timed_setup(workload, args.seed, size, sampler)
                setup_times.append(elapsed)
    else:
        tracer.install()
        try:
            inputs, _elapsed = timed_setup(workload, args.seed, size)
        finally:
            tracer.uninstall()
        setup_taken = tracer.take()

    runs = measure(workload, inputs, args.seconds, sampler, tracer)
    factor = sampler.factor()
    if tracer is None:
        metrics = end_to_end(runs, setup_times)    # reads the peak memory first
    problems = workload.check(inputs, runs.last)
    if len(runs.prints) != 1:
        problems.append(f"rounds on the same inputs gave {len(runs.prints)} "
                        f"different outputs")
    if tracer is not None:
        metrics = per_layer(runs, setup_taken, factor, problems)
    result = {"correct": not problems, "attempted": runs.attempted,
              "failed": runs.failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = dict(result, problems=problems, failures=sorted(set(runs.last.failed)),
               factor=factor, round_walls=runs.walls, setup_times=setup_times,
               rounds=[[{"kind": op.kind, "label": op.label, "seconds": op.total,
                         "normalised": op.norm, "runs": op.runs, "steps": op.steps}
                        for op in ops]
                       for ops in runs.untraced])
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n")
    if tracer is not None:
        spans = {"fields": ["id", "parent", "name", "start", "end"],
                 "setup": setup_taken[3], "last_traced_round": runs.traced[-1][1]}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for line in problems[:20]:
        print(f"check: {line}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload, each in a fresh process, one after the other;
    print each one's metrics by name and unit, then all results as one
    JSON object."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        results[name] = result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
