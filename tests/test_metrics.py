"""Reuse-distance tracking, histograms and run comparison helpers."""
import random

import pytest

from swapsim.metrics import (
    REUSE_CAP,
    IntervalRecord,
    ReuseDistanceTracker,
    ReuseHistogram,
    per_phase_accuracy,
)
from oracles import percent_change, quadratic_reuse_distances


def test_simple_sequences():
    assert ReuseDistanceTracker().observe_all([10, 11, 10]) == [None, None, 1]  # A B A
    assert ReuseDistanceTracker().observe_all([5, 5]) == [None, 0]  # A A
    assert ReuseDistanceTracker().observe_all([1, 2, 3, 1])[-1] == 2


def test_matches_quadratic_oracle():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randrange(100, 2000)
        universe = rng.randrange(4, 200)
        stream = [rng.randrange(universe) for _ in range(n)]
        assert ReuseDistanceTracker().observe_all(stream) == quadratic_reuse_distances(stream)


def test_tracker_matches_oracle_over_few_lines():
    # A stream far longer than the cap over a few lines.
    stream = [i % 7 for i in range(5000)]
    assert ReuseDistanceTracker().observe_all(stream) == quadratic_reuse_distances(stream)


@pytest.mark.parametrize("k", [1, REUSE_CAP - 1, REUSE_CAP, REUSE_CAP + 1, 3000])
def test_tracker_stack_bounded_by_cap(k):
    # 200 000 accesses over k lines: the stack never holds more than the
    # cap, however many lines or accesses there are.
    rng = random.Random(k)
    t = ReuseDistanceTracker()
    largest = 0
    for _ in range(20):
        t.observe_all([rng.randrange(k) for _ in range(10_000)])
        largest = max(largest, len(t._stack))
    assert largest <= REUSE_CAP


def test_tracker_cap_boundary():
    # Line 0 is reused after k distinct other lines: exact below the cap,
    # REUSE_CAP once it fell off the stack.
    for k in (REUSE_CAP - 1, REUSE_CAP):
        t = ReuseDistanceTracker()
        assert t.observe_all([0, *range(1, k + 1), 0])[-1] == k
    # After the REUSE_CAP case line 0 is back on the stack, so its next
    # reuse is exact again; line 1 fell off when line 0 came back.
    assert t.observe_all([REUSE_CAP, 0, 0, 1]) == [1, 1, 0, REUSE_CAP]


def test_tracker_keeps_times_for_stack_lines_only():
    # 200 000 accesses over 3 000 lines: a line that fell off the stack
    # keeps no last-access time, so at most REUSE_CAP of them stay live.
    rng = random.Random(3000)
    t = ReuseDistanceTracker()
    for _ in range(20):
        t.observe_all([rng.randrange(3000) for _ in range(10_000)])
    live = sum(1 for v in t._last.values() if v >= 0)
    assert live == len(t._stack) == len(t._times) <= REUSE_CAP
    assert len(t._last) == 3000


def test_histogram_buckets_and_cap():
    h = ReuseHistogram()
    assert h.cap == REUSE_CAP
    cap = REUSE_CAP
    h.add_all([0, 0, 3, cap - 1, cap, cap + 1, 10 * cap, None, None])
    assert h.cold_count == 2
    assert h.buckets[0] == 2
    assert h.buckets[3] == 1
    assert h.buckets[cap - 1] == 1
    assert h.buckets[cap] == 3  # overflow bucket collects everything >= cap
    assert h.total == 9
    assert h.to_rows() == [(0, 2), (3, 1), (cap - 1, 1), (cap, 3)]


def rec(idx, pid, directive, acc):
    return IntervalRecord(idx, pid, directive, acc, 0, 0, 0, 0, 0)


def test_per_phase_accuracy_grouping():
    records = [
        rec(0, -1, "base", 1.0),  # unstable: excluded
        rec(1, 0, "base", 0.2),  # base interval: excluded
        rec(2, 0, "markov8", 0.8),
        rec(3, 0, "markov8", 0.6),
        rec(4, 1, "fixed-rate", 0.9),
        rec(5, 1, "fixed-rate", None),  # no validation data: excluded
    ]
    out = per_phase_accuracy(records)
    assert set(out) == {0, 1}
    mean, sd = out[0]
    assert mean == 0.7
    assert sd == pytest.approx(0.1)
    assert out[1] == (0.9, 0.0)


def test_per_phase_accuracy_sums_exactly():
    # Summed left to right, ten 0.1s make 0.9999999999999999; the mean and
    # variance must not depend on how a Python version rounds a float sum.
    out = per_phase_accuracy([rec(i, 0, "markov8", 0.1) for i in range(10)])
    assert out == {0: (0.1, 0.0)}


def test_percent_change():
    base = {"l1_hits": 200, "l2_hits": 50, "l3_hits": 0, "mem_accesses": 10, "cycles": 1000}
    model = {"l1_hits": 210, "l2_hits": 45, "l3_hits": 5, "mem_accesses": 10, "cycles": 900}
    out = percent_change(model, base)
    assert out["l1_hits"] == 0.05
    assert out["l2_hits"] == -0.1
    assert out["l3_hits"] is None  # zero base reported as not-applicable
    assert out["mem_accesses"] == 0.0
    assert out["cycles"] == -0.1


def test_percent_change_identical_runs():
    t = {"l1_hits": 5, "l2_hits": 4, "l3_hits": 3, "mem_accesses": 2, "cycles": 1}
    assert all(v == 0.0 for v in percent_change(t, dict(t)).values())
