"""Per-interval statistics, reuse-distance histograms of the L2-bound
stream, and run-to-run comparison helpers.
"""
from __future__ import annotations

import math
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
    """LRU stack distance over distinct lines, computed with a Fenwick
    tree of last-occurrence markers: O(log n) per access."""

    def __init__(self):
        self._last: dict[int, int] = {}
        self._tree = [0] * 1024
        self._n = 0

    def _add(self, i: int, delta: int) -> None:
        tree = self._tree
        n = len(tree)
        i += 1
        while i < n:
            tree[i] += delta
            i += i & (-i)

    def _prefix(self, i: int) -> int:
        # Sum of markers at positions [0, i].
        tree = self._tree
        total = 0
        i += 1
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def observe(self, line: int) -> int | None:
        """Record one line-granular access; returns the number of distinct
        lines seen since this line's previous access, or None on first
        touch."""
        t = self._n
        self._n += 1
        if t + 1 >= len(self._tree):
            # Doubling invalidates Fenwick ranges; rebuild from the
            # surviving last-occurrence markers.
            self._tree = [0] * (len(self._tree) * 2)
            for pos in self._last.values():
                self._add(pos, 1)
        prev = self._last.get(line)
        if prev is None:
            self._add(t, 1)
            self._last[line] = t
            return None
        distance = self._prefix(t - 1) - self._prefix(prev)
        self._add(prev, -1)
        self._add(t, 1)
        self._last[line] = t
        return distance


class ReuseHistogram:
    """Histogram of reuse distances; distances at or beyond `cap` share
    one overflow bucket, first touches count separately."""

    def __init__(self, cap: int = 500):
        self.cap = cap
        self.buckets: dict[int, int] = {}
        self.cold_count = 0

    def add(self, distance: int | None) -> None:
        if distance is None:
            self.cold_count += 1
            return
        key = distance if distance < self.cap else self.cap
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def total(self) -> int:
        return self.cold_count + sum(self.buckets.values())

    def to_rows(self) -> list[tuple[int, int]]:
        return sorted(self.buckets.items())


def per_phase_accuracy(
    records: list[IntervalRecord], swapped_only: bool = True
) -> dict[int, tuple[float, float]]:
    """Mean and stddev of interval accuracies grouped by phase id. Phases
    with no accuracy data are omitted; by default only intervals run under
    a swapped model contribute (the model's real predictions)."""
    grouped: dict[int, list[float]] = {}
    for r in records:
        if r.accuracy is None or r.phase_id < 0:
            continue
        if swapped_only and r.directive == "base":
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
