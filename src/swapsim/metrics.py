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


# Distances at or beyond this share the histogram's overflow bucket, so
# the tracker need not tell them apart.
REUSE_CAP = 500


class ReuseDistanceTracker:
    """LRU stack distance over distinct lines (Mattson et al., 1970), cut
    off at REUSE_CAP: the stack holds only the REUSE_CAP most recent
    distinct lines, so a line's depth in it is its exact distance, and a
    line that fell off reports REUSE_CAP."""

    def __init__(self):
        self._stack: list[int] = []  # most recent first
        self._in_stack: dict[int, bool] = {}  # every line seen -> on the stack

    def observe_all(self, lines) -> list[int | None]:
        """Record line-granular accesses in order; for each, the number of
        distinct lines seen since that line's previous access, capped at
        REUSE_CAP, or None on first touch."""
        stack = self._stack
        in_stack = self._in_stack
        out: list[int | None] = []
        append = out.append
        for line in lines:
            if in_stack.get(line):
                d = stack.index(line)
                del stack[d]
            else:
                d = REUSE_CAP if line in in_stack else None
                in_stack[line] = True
                if len(stack) == REUSE_CAP:
                    in_stack[stack.pop()] = False
            stack.insert(0, line)
            append(d)
        return out

    def observe(self, line: int) -> int | None:
        """`observe_all` for a single access."""
        return self.observe_all((line,))[0]


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
