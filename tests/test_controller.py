"""Swap controller state machine and directive handling."""
import dataclasses
import random
import tracemalloc

import pytest

from swapsim.cache import Hierarchy
from swapsim.controller import ControllerConfig, Directive, PhaseModelState, SwapController
from swapsim.metrics import IntervalRecord
from swapsim.models import ModelKind, contexts, make_model


def make_controller(**kwargs):
    return SwapController(Hierarchy(), ControllerConfig(**kwargs), rng=random.Random(0))


def train_accesses(ctrl, phase_id, n=50, base=0x1000):
    return ctrl.run_interval(phase_id, bytes(n), [base + (i % 16) * 8 for i in range(n)])


def run_labeled(ctrl, phase_id, n=50, base=0x1000):
    """One interval in the order Runner.step takes: run it under its label,
    then close it with its record (counters zero: the controller reads
    none). Returns the directive it ran under, which closing it leaves in
    place."""
    train_accesses(ctrl, phase_id, n, base)
    d = ctrl.directive
    assert ctrl.on_interval_end(IntervalRecord(0, phase_id, "base", None, 0, 0, 0, 0, 0)) is None
    assert ctrl.directive is d
    return d


def served(totals):
    return sum(totals[k] for k in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses"))


def test_rng_is_required():
    # Without one the first draw would fail, long after construction.
    with pytest.raises(TypeError):
        SwapController(Hierarchy(), ControllerConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(train_intervals=0)
    with pytest.raises(ValueError):
        ControllerConfig(candidate_kinds=())
    cfg = ControllerConfig(candidate_kinds=(ModelKind.MARKOV4,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.candidate_kinds = (ModelKind.MARKOV8,)


def test_duplicate_candidate_kinds_rejected():
    for kinds in ((ModelKind.MARKOV8, ModelKind.MARKOV8),
                  (ModelKind.FIXED_RATE, ModelKind.MARKOV4, ModelKind.FIXED_RATE)):
        with pytest.raises(ValueError, match="distinct"):
            ControllerConfig(candidate_kinds=kinds)


def test_candidate_kinds_without_a_model_rejected():
    # At construction, not when the first phase is cataloged after
    # intervals have already run.
    for kinds in ((ModelKind.BASE,), (ModelKind.MARKOV8, "markov8")):
        with pytest.raises(ValueError, match="no swappable model"):
            ControllerConfig(candidate_kinds=kinds)


def test_initial_directive_is_base():
    ctrl = make_controller()
    assert ctrl.directive.swapped_kind is None
    assert ctrl.directive.phase_id == -1
    assert not ctrl.directive.training


def test_unstable_interval_keeps_base():
    ctrl = make_controller()
    d = run_labeled(ctrl, -1)
    assert d == Directive(-1, None) and not d.training
    assert not ctrl.phases


def test_training_then_swap_on_schedule():
    ctrl = make_controller(train_intervals=2)
    # Phase 0's first labeled interval is its first trained one.
    d = run_labeled(ctrl, 0)
    assert d == Directive(0, None) and d.training
    assert ctrl.phases[0].intervals_trained == 1
    d = run_labeled(ctrl, 0)  # 2nd trained interval done: swap
    assert d.training and d.swapped_kind is None and d.phase_id == 0
    chosen = ctrl.phases[0].chosen
    assert chosen is not None
    assert set(ctrl.phases[0].score_vectors) == set(ctrl.config.candidate_kinds)
    d = run_labeled(ctrl, 0)
    assert d == Directive(0, chosen) and not d.training


def test_swap_persists_on_reentry():
    ctrl = make_controller(train_intervals=1)
    run_labeled(ctrl, 0)
    run_labeled(ctrl, -1)
    d = run_labeled(ctrl, 0)
    assert d.swapped_kind is not None  # no retraining on re-entry


def test_base_cache_frozen_while_swapped():
    ctrl = make_controller(train_intervals=1)
    run_labeled(ctrl, 0)
    fp = ctrl.hierarchy.l1.fingerprint()
    misses = ctrl.run_interval(0, bytes(200), [0x1000 + i * 8 for i in range(200)])
    assert ctrl.directive.swapped_kind is not None
    assert all(0 <= i < 200 for i in misses)
    assert served(ctrl.hierarchy.totals()) == 250
    assert ctrl.hierarchy.l1.fingerprint() == fp


def test_base_cache_updates_when_not_swapped():
    ctrl = make_controller()
    fp = ctrl.hierarchy.l1.fingerprint()
    assert ctrl.run_interval(-1, bytes(1), [0x1000]) == [0]
    assert ctrl.hierarchy.l1.fingerprint() != fp


def test_counters_advance_under_swap():
    ctrl = make_controller(train_intervals=1, candidate_kinds=(ModelKind.FIXED_RATE,))
    run_labeled(ctrl, 0)  # high-hit training stream
    before = ctrl.hierarchy.totals()
    misses = train_accesses(ctrl, 0, n=100)
    assert ctrl.directive.swapped_kind is not None
    after = ctrl.hierarchy.totals()
    assert after["cycles"] > before["cycles"]
    assert served(after) - served(before) == 100
    assert after["l1_hits"] - before["l1_hits"] == 100 - len(misses)


def test_long_training_budget_swaps_on_its_last_interval():
    # A phase trains until it swaps: the unlabeled intervals between its
    # own do not count, and nothing ends its training early.
    ctrl = make_controller(train_intervals=30)
    for i in range(29):
        assert run_labeled(ctrl, 0).training
        run_labeled(ctrl, -1)
    assert ctrl.phases[0].chosen is None and ctrl.phases[0].intervals_trained == 29
    assert not ctrl.phases[0].score_vectors
    assert run_labeled(ctrl, 0).training
    assert ctrl.phases[0].chosen is not None
    assert run_labeled(ctrl, 0).swapped_kind is ctrl.phases[0].chosen


def test_single_candidate_is_the_only_model_trained_and_swapped():
    ctrl = make_controller(train_intervals=1, candidate_kinds=(ModelKind.MARKOV4,))
    run_labeled(ctrl, 0)
    d = run_labeled(ctrl, 0)
    assert d.swapped_kind is ModelKind.MARKOV4
    assert list(ctrl.phases[0].models) == [ModelKind.MARKOV4]


def test_independent_phases_get_independent_models():
    ctrl = make_controller(train_intervals=2)
    run_labeled(ctrl, 0, base=0x1000)
    run_labeled(ctrl, 1, base=0x900000)
    run_labeled(ctrl, 1, base=0x900000)
    assert ctrl.phases[0].chosen is None
    assert ctrl.phases[0].intervals_trained == 1
    assert ctrl.phases[0].refs == 50
    assert ctrl.phases[1].chosen is not None
    assert ctrl.phases[0].models is not ctrl.phases[1].models


def test_shadow_train_counts_the_detailed_side_once_per_phase():
    ctrl = make_controller()
    st = PhaseModelState(ctrl.config.candidate_kinds)
    ctrl._prev_address = 0x1000
    # Near, near, near, far; the last two miss. The detailed L1's near
    # misses are the near references that missed: only the third here.
    addrs = [0x1000, 0x1008, 0x1010, 0x2000]
    ctrl._shadow_train(st, bytes(4), addrs, [2, 3])
    assert (st.refs, st.base_near_misses) == (4, 1)
    # A candidate keeps only its own expected counts.
    ctxs = contexts(bytes(4), addrs, 0x1000)
    for kind in st.models:
        assert st.shadow[kind] == make_model(kind).shadow_interval(ctxs, b"\0\0\1\1", b"\1\1\1\0")


def test_shadow_train_sums_over_intervals():
    rng = random.Random(11)
    ctrl = make_controller()
    st = PhaseModelState(ctrl.config.candidate_kinds)
    twins = {kind: make_model(kind) for kind in st.models}
    want = {kind: (0.0, 0.0) for kind in st.models}
    want_refs = want_near_misses = 0
    for n in (3_000, 7_000):
        addrs = [0x1000 + rng.randrange(64) * 32 for _ in range(n)]
        ops = bytes(rng.randrange(2) for _ in range(n))
        misses = [i for i in range(n) if rng.random() < 0.3]
        prev = ctrl._prev_address
        ctrl._shadow_train(st, ops, addrs, misses)
        # The same interval, counted one reference at a time, and each
        # candidate's interval sums added to its running sums in order.
        # Line -1, before the first interval, matches no reference's line.
        lines = [prev >> 6, *(a >> 6 for a in addrs)]
        near = bytes(lines[i] == lines[i + 1] for i in range(n))
        missed = set(misses)
        miss = bytes(i in missed for i in range(n))
        want_refs += n
        want_near_misses += sum(m and nr for m, nr in zip(miss, near))
        for kind, twin in twins.items():
            c, m = twin.shadow_interval(contexts(ops, addrs, prev), miss, near)
            want[kind] = (want[kind][0] + c, want[kind][1] + m)
        ctrl._prev_address = addrs[-1]
    assert (st.refs, st.base_near_misses) == (want_refs, want_near_misses)
    assert st.shadow == want


# The transient memory of one shadow interval, per reference: `contexts`
# copies the addresses, a list here, into an array and that into bytes
# (16 B), then works on byte planes and their ints (about 6 B). The
# contexts, outcomes and near flags take a byte each, and a candidate's
# expected counts are summed as its loop streams, with no float held per
# reference. Measured: 22.3 B per reference of a 10 000-reference
# interval with three candidates. A list of one candidate's hit
# probabilities, a float and a list slot each, would alone take 32 B per
# reference.
SHADOW_BYTES_PER_REF = 32


def test_shadow_interval_transient_memory_is_bounded():
    n = 10_000
    rng = random.Random(5)
    ctrl = make_controller()
    st = PhaseModelState(ctrl.config.candidate_kinds)
    assert len(st.models) == 3
    intervals = []
    for _ in range(2):
        addrs = [0x1000 + rng.randrange(1 << 12) * 16 for _ in range(n)]
        ops = bytes(rng.randrange(2) for _ in range(n))
        intervals.append((ops, addrs, [i for i in range(n) if rng.random() < 0.3]))
    # The measured interval is the phase's second, as most are.
    ctrl._shadow_train(st, *intervals[0])
    ctrl._prev_address = intervals[0][1][-1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctrl._shadow_train(st, *intervals[1])
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= SHADOW_BYTES_PER_REF * n
    # What stays is the models' new counts, not a byte per reference.
    assert current - before < n
