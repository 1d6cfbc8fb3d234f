"""Per-interval statistics, reuse-distance histograms of the L2-bound
stream, and run-to-run comparison helpers.
"""
from __future__ import annotations

import math
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


class ReuseDistanceTracker:
    """LRU stack distance over distinct lines (Bennett & Kruskal, 1975;
    Olken, 1981). Every access takes a position; a position dies when its
    line is touched again. The lines seen between a reuse at `t` and its
    previous access `prev` are the live positions in (prev, t), so the
    distance is (t - prev - 1) minus the dead positions there, which a
    Fenwick tree of dead markers counts with one prefix walk.

    When the positions run out, the live ones are renumbered 0..d-1 in
    last-access order and the tree restarts empty at the smallest power
    of two >= 2d + 2 (at least 1024), so it stays within 4x the distinct
    lines however long the stream is."""

    def __init__(self):
        self._last: dict[int, int] = {}  # line -> position of its last access
        self._tree = [0] * 1024
        self._n = 0  # next position
        self._dead = 0  # dead positions below _n

    def _compact(self) -> None:
        last = self._last
        for pos, line in enumerate(sorted(last, key=last.__getitem__)):
            last[line] = pos
        live = len(last)
        self._tree = [0] * max(1024, 1 << (2 * live + 1).bit_length())
        self._n = live
        self._dead = 0

    def observe_all(self, lines) -> list[int | None]:
        """Record line-granular accesses in order; for each, the number of
        distinct lines seen since that line's previous access, or None on
        first touch."""
        last = self._last
        tree = self._tree
        size = len(tree)
        t = self._n
        dead = self._dead
        out: list[int | None] = []
        append = out.append
        for line in lines:
            if t + 1 >= size:
                self._n = t
                self._compact()
                tree = self._tree
                size = len(tree)
                t = self._n
                dead = 0
            prev = last.get(line)
            last[line] = t
            t += 1
            if prev is None:
                append(None)
                continue
            # Dead positions in [0, prev], then mark prev dead.
            i = prev + 1
            below = 0
            while i:
                below += tree[i]
                i &= i - 1
            append(t - prev - 2 - dead + below)
            i = prev + 1
            while i < size:
                tree[i] += 1
                i += i & -i
            dead += 1
        self._n = t
        self._dead = dead
        return out

    def observe(self, line: int) -> int | None:
        """`observe_all` for a single access."""
        return self.observe_all((line,))[0]


class ReuseHistogram:
    """Histogram of reuse distances; distances at or beyond `cap` share
    one overflow bucket, first touches count separately."""

    def __init__(self, cap: int = 500):
        self.cap = cap
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
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        out[pid] = (mean, math.sqrt(var))
    return out


def percent_change(model_totals: dict, base_totals: dict) -> dict[str, float | None]:
    """(model - base)/base for each shared statistic; None where the base
    value is zero."""
    out: dict[str, float | None] = {}
    for key in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses", "cycles"):
        base = base_totals.get(key)
        if base is None:
            continue
        out[key] = None if base == 0 else (model_totals[key] - base) / base
    return out
