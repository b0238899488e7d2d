"""Speed-normalised timing.

The cores of a shared machine change speed by up to 2x for seconds to
minutes at a time, which shows in CPU time as much as in wall time.  While
a run measures, a timer signal therefore interrupts the process every
PERIOD_S seconds and times a short probe task.  Each timed execution of an
operation, minus the probes that ran inside it, is reported as

    normalised seconds = measured seconds * PROBE_S / mean(probe times around it)

where the probes around it are those that started inside it or within
WINDOW_S of its ends: the speed of the core is taken from the time the
operation ran, not from the run as a whole.  One process, one thread: the
probe runs in the signal handler, between two bytecodes of the program.

The probe enumerates the paths of length two through a fixed random graph
with a backtracking join over a tuple-keyed index: the same kind of work
the program does, but over plain strings in tuples and in code of its own.
It imports nothing of ``chasekit``, so a change to the program, its term
classes included, moves normalised and raw time alike.
"""

from __future__ import annotations

import random
import signal
from bisect import bisect_left, bisect_right
from collections import defaultdict
from time import perf_counter

PROBE_S = 0.0023     # mean probe time on the machine this was written on
PERIOD_S = 0.05
WINDOW_S = 0.1


def _probe_inputs() -> tuple:
    """The graph's edges as ("e", (source, target)) facts, indexed by
    predicate and by (predicate, position, term); the path query, whose
    variables are ints."""
    rng = random.Random(0)
    nodes = [f"c{i}" for i in range(60)]
    facts = sorted({("e", (rng.choice(nodes), rng.choice(nodes))) for _ in range(240)})
    by_pred, by_arg = defaultdict(list), defaultdict(list)
    for pred, args in facts:
        by_pred[pred].append(args)
        for i, t in enumerate(args):
            by_arg[(pred, i, t)].append(args)
    path = (("e", (0, 1)), ("e", (1, 2)))
    return dict(by_pred), dict(by_arg), path


_BY_PRED, _BY_ARG, _PATH = _probe_inputs()


def _walk(atoms: tuple, k: int, binding: dict):
    if k == len(atoms):
        yield binding
        return
    pred, args = atoms[k]
    fixed = [(i, binding[v] if type(v) is int else v) for i, v in enumerate(args)
             if type(v) is not int or v in binding]
    binds = [(i, v) for i, v in enumerate(args) if type(v) is int and v not in binding]
    candidates = min((_BY_ARG.get((pred, i, t), ()) for i, t in fixed), key=len,
                     default=_BY_PRED.get(pred, ()))
    for row in candidates:
        if any(row[i] != t for i, t in fixed):
            continue
        for i, v in binds:
            binding[v] = row[i]
        yield from _walk(atoms, k + 1, binding)
    for _i, v in binds:
        binding.pop(v, None)


def probe() -> float:
    """Seconds taken by one run of the probe task."""
    start = perf_counter()
    for _binding in _walk(_PATH, 0, {}):
        pass
    return perf_counter() - start


class Sampler:
    """Times the probe every PERIOD_S seconds while entered.  ``spent`` is
    the time all probes took, for subtracting from what they interrupted."""

    def __init__(self):
        self.starts: list = []
        self.times: list = []
        self.spent = 0.0
        self._previous = None

    def _on_timer(self, _signum=None, _frame=None) -> None:
        start = perf_counter()
        elapsed = probe()
        self.starts.append(start)
        self.times.append(elapsed)
        self.spent += perf_counter() - start

    def __enter__(self):
        self._on_timer()     # so that every window has a probe to fall back on
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Scale from measured to normalised seconds for what ran from
        ``start`` to ``end``; the whole run's probes if none is near."""
        i = bisect_left(self.starts, start - WINDOW_S)
        j = bisect_right(self.starts, end + WINDOW_S)
        times = self.times[i:j] or self.times
        return PROBE_S * len(times) / sum(times)

    def factor(self) -> float:
        """One scale for the whole run, for figures whose spans are not
        normalised one by one."""
        return PROBE_S * len(self.times) / sum(self.times)
