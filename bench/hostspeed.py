"""Host-speed probe: times a fixed slice of pure-Python work at a steady
pace while an operation runs, so that the operation's host time can be
rescaled to a reference host speed.

On a shared host the same operation can run 1.5 to 2 times slower in one
minute than in the next, with CPU time equal to wall time and no steal
time recorded. The probe measures that drift with work that never
changes: a SIGALRM handler runs one slice every PERIOD_S seconds of the
operation, in the same thread, and records how long it took. The slice
is mostly the simulator's own kind of work, a walk of a small
set-associative LRU cache built from lists (membership tests, removals,
appends), followed by a short integer loop.

The operation's time is its wall time minus the time spent in the
handler; its normalised time is that time multiplied by the mean of
REF_SLICE_S / slice over the slices taken during it, i.e. the time it
would have taken on a host where one slice takes REF_SLICE_S.

Nothing here depends on the simulator, so a change to the simulator
moves the normalised time exactly as it moves the wall time.
"""
from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter_ns

PERIOD_S = 0.25

# The time one slice takes on the reference host (about the fast phases
# of the 2-vCPU Xeon VM the benchmark was written on). Any fixed value
# works; this one keeps normalised rates close to wall-clock rates there.
REF_SLICE_S = 0.005

_SETS = 16
_WAYS = 8
_rng = random.Random(20201203)
# 4096 line addresses: a hot loop over 64 lines mixed with random lines
# of a 512-line range, so that about half the lookups hit.
_LINES = [_rng.randrange(512) if _rng.random() < 0.5 else i % 64 for i in range(4096)]
_WAYS_OF = [[] for _ in range(_SETS)]
# The LRU walk takes about six times as long as the integer loop.
_LRU_PASSES = 6
_INT_STEPS = 10_000


def _slice() -> int:
    """One fixed unit of work; allocates no tracked objects."""
    for s in _WAYS_OF:
        s.clear()
    hits = 0
    for _ in range(_LRU_PASSES):
        for line in _LINES:
            s = _WAYS_OF[line & (_SETS - 1)]
            if line in s:
                s.remove(line)
                hits += 1
            elif len(s) >= _WAYS:
                del s[0]
            s.append(line)
    x = 0
    for i in range(_INT_STEPS):
        x = (x * 31 + i) & 0xFFFF
    return hits + x


class Probe:
    """Context manager around one timed stretch of work.

    After it exits, `wall_ns` is the stretch's wall time without the
    probe's own slices, `samples` the slice times in seconds (one before,
    one after, and one per period in between) and `norm_s` the stretch's
    time rescaled to the reference host speed.
    """

    def __enter__(self) -> "Probe":
        self.samples: list[float] = []
        self._in_slices_ns = 0
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = perf_counter_ns()
        signal.signal(signal.SIGALRM, self._old)
        self.wall_ns = end - self._start - self._in_slices_ns
        self._sample()

    def _sample(self) -> int:
        t0 = perf_counter_ns()
        _slice()
        dt = perf_counter_ns() - t0
        self.samples.append(dt / 1e9)
        return dt

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = perf_counter_ns()
        self._sample()
        self._in_slices_ns += perf_counter_ns() - t0

    @property
    def speed(self) -> float:
        """Mean host speed during the stretch, relative to the reference."""
        return statistics.fmean(REF_SLICE_S / s for s in self.samples)

    @property
    def norm_s(self) -> float:
        return self.wall_ns / 1e9 * self.speed
