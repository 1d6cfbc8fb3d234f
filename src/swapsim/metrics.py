"""Per-interval statistics, per-phase accuracy, and reuse-distance
histograms of the L2-bound stream.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass


@dataclass
class IntervalRecord:
    interval_index: int
    phase_id: int
    directive: str  # "base" or the swapped model kind value
    accuracy: float | None
    l1_hits: int
    l2_hits: int
    l3_hits: int
    mem_accesses: int
    cycles: int


# Distances at or beyond this share the histogram's overflow bucket, so
# the tracker need not tell them apart.
REUSE_CAP = 500

# Reuse distances are sampled (SHARDS, Waldspurger et al., 2015): a
# hierarchy tracks a line iff the top SAMPLE_BITS bits of its Fibonacci
# hash, line * SAMPLE_HASH mod 2**64, are zero, so R = 2**-SAMPLE_BITS of
# the lines, and scales each sampled distance by 1/R.
SAMPLE_BITS = 3
SAMPLE_HASH = 0x9E3779B97F4A7C15
SAMPLE_MASK = ((1 << SAMPLE_BITS) - 1) << (64 - SAMPLE_BITS)


class ReuseDistanceTracker:
    """LRU stack distance over distinct lines (Mattson et al., 1970), cut
    off at REUSE_CAP: the stack holds only the REUSE_CAP most recent
    distinct lines, so a line's depth in it is its exact distance, and a
    line that fell off reports REUSE_CAP. The depth is the count of later
    last-access times (Olken, 1981): one bisection of the sorted `_times`."""

    def __init__(self):
        self._stack: list[int] = []  # oldest first
        self._times: list[int] = []  # last-access time of each stack line
        self._last: dict[int, int] = {}  # every line seen -> its time, -1 once off the stack
        self._now = 0  # time of the latest access

    def observe_all(self, lines) -> list[int | None]:
        """Record line-granular accesses in order; for each, the number of
        distinct lines seen since that line's previous access, capped at
        REUSE_CAP, or None on first touch."""
        stack = self._stack
        times = self._times
        last = self._last
        get = last.get
        push_line = stack.append
        push_time = times.append
        t = self._now
        out: list[int | None] = []
        append = out.append
        for line in lines:
            prev = get(line, -2)
            if prev == t:  # the latest access again: on top, nothing moves
                append(0)
                continue
            if prev >= 0:
                i = bisect_left(times, prev)
                append(len(times) - 1 - i)
                del stack[i], times[i]
            else:
                append(REUSE_CAP if prev == -1 else None)
                if len(stack) == REUSE_CAP:
                    last[stack[0]] = -1
                    del stack[0], times[0]
            t += 1
            push_line(line)
            push_time(t)
            last[line] = t
        self._now = t
        return out


class ReuseHistogram:
    """Histogram of reuse distances; distances at or beyond REUSE_CAP
    share one overflow bucket, first touches count separately."""

    def __init__(self):
        self.cap = REUSE_CAP
        self.buckets: dict[int, int] = {}
        self.cold_count = 0

    def add_all(self, distances) -> None:
        cap = self.cap
        buckets = self.buckets
        for distance, count in Counter(distances).items():
            if distance is None:
                self.cold_count += count
                continue
            key = distance if distance < cap else cap
            buckets[key] = buckets.get(key, 0) + count

    @property
    def total(self) -> int:
        return self.cold_count + sum(self.buckets.values())

    def to_rows(self) -> list[tuple[int, int]]:
        return sorted(self.buckets.items())


def per_phase_accuracy(records: list[IntervalRecord]) -> dict[int, tuple[float, float]]:
    """Mean and stddev of interval accuracies grouped by phase id. Phases
    with no accuracy data are omitted; only intervals run under a swapped
    model contribute (the model's real predictions)."""
    grouped: dict[int, list[float]] = {}
    for r in records:
        if r.accuracy is None or r.phase_id < 0 or r.directive == "base":
            continue
        grouped.setdefault(r.phase_id, []).append(r.accuracy)
    out = {}
    for pid, vals in grouped.items():
        mean = math.fsum(vals) / len(vals)
        var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
        out[pid] = (mean, math.sqrt(var))
    return out
