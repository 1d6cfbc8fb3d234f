"""Property tests of the interval-level paths against their per-reference
definitions: the access contexts, the compiled Markov table, shadow
training's expected-value counters, the interval signature, the detailed L1 across swapped and base
intervals, the batched reuse tracker, and the synthetic generator's
draws; and the whole-run invariants of the simulation's totals."""
import dataclasses
import random
from array import array
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapsim import phase
from swapsim.cache import DEFAULT_L1, CacheConfig, Hierarchy, HierarchyConfig, SetAssociativeCache
from swapsim.controller import ControllerConfig, PhaseModelState, SwapController
from swapsim.metrics import REUSE_CAP, IntervalRecord, ReuseDistanceTracker
from swapsim.models import SWAP_KINDS, FixedHitRateModel, MarkovModel, ModelKind, contexts
from swapsim.phase import (
    SAMPLE_REFS,
    SAMPLE_RUNS,
    PhaseDetector,
    PhaseDetectorConfig,
    interval_signature,
)
from swapsim.sim import Runner, run_simulation
from swapsim.trace import (
    PhaseKind,
    SyntheticPhaseSpec,
    Trace,
    _draw,
    generate_blocks,
    generate_trace,
)
from oracles import (
    FixedU,
    ReferenceLRU,
    generate as oracle_generate,
    hit_probability,
    predict,
    quadratic_reuse_distances,
    train,
)

U_GRID = [k / 8 for k in range(8)] + [0.999]
ADDR = 0x1040  # 64-byte line 0x41


# Small addresses share 64 B lines often; large ones reach the top of the
# address range.
ADDRESS = st.one_of(st.integers(0, 255), st.integers(0, 2**64 - 1))


@settings(max_examples=100, deadline=None)
@given(refs=st.lists(st.tuples(st.integers(0, 1), ADDRESS), max_size=100),
       prev_address=st.one_of(st.just(-1), ADDRESS),
       packed=st.booleans())
@example(refs=[], prev_address=-1, packed=True)
@example(refs=[(0, 0)], prev_address=-1, packed=False)  # -1 makes line 0 far
@example(refs=[(1, 0x1040), (0, 0x107F)], prev_address=0x1050, packed=True)  # carry: near
def test_contexts_match_per_reference_definition(refs, prev_address, packed):
    ops = [w for w, _ in refs]
    addrs = [a for _, a in refs]
    prev = [prev_address, *addrs]
    want = [ops[i] << 1 | (addrs[i] >> 6 != prev[i] >> 6) for i in range(len(refs))]
    # run_simulation passes each interval as array("B") and array("Q") slices.
    if packed:
        ops, addrs = array("B", ops), array("Q", addrs)
    assert list(contexts(ops, addrs, prev_address)) == want


def contexts_per_reference(ops, addrs, prev_address):
    prev = [prev_address, *addrs]
    return bytes(ops[i] << 1 | (addrs[i] >> 6 != prev[i] >> 6) for i in range(len(addrs)))


# Distinct bytes in every plane, so a flipped plane is the only change.
BYTES = 0x0123456789ABCDEF


def test_contexts_byte_plane_edge_cases():
    top = 2**64 - 1
    cases = [
        # An address that differs from its predecessor only in plane j.
        *(([BYTES, BYTES ^ 0x5A << 8 * j], -1) for j in range(1, 8)),
        *(([BYTES ^ 1 << 8 * j + 7], BYTES) for j in range(1, 8)),
        # Only bits 6-7 of byte 0 differ (far), only bits 0-5 (near).
        ([BYTES, BYTES ^ 0x40, BYTES ^ 0xC0, BYTES ^ 0x80], BYTES),
        ([BYTES, BYTES ^ 0x3F, BYTES ^ 0x01, BYTES ^ 0x20], BYTES),
        # The top of the address range as the predecessor.
        ([top, top - 63, top - 64, 0], top),
        ([0], top),
        # Upper planes constant over the interval and its predecessor,
        # so they are skipped, and the same with a different predecessor.
        ([0x7F00_1000 + 8 * i for i in range(40)], 0x7F00_0FC0),
        ([0x7F00_1000 + 8 * i for i in range(40)], 0x7E00_1000),
        ([0x7F00_1000 + 8 * i for i in range(40)], -1),
        # Intervals of length 0 and 1.
        *(([], p) for p in (-1, 0, top)),
        *(([a], p) for a in (0, 0x40, top) for p in (-1, 0, 0x3F, top)),
    ]
    for addrs, prev_address in cases:
        for ops in ([0] * len(addrs), [1] * len(addrs), [i & 1 for i in range(len(addrs))]):
            want = contexts_per_reference(ops, addrs, prev_address)
            assert contexts(ops, addrs, prev_address) == want
            assert contexts(array("B", ops), array("Q", addrs), prev_address) == want
    assert contexts([0, 0], [BYTES, BYTES ^ 0x5A << 8], -1) == b"\x01\x01"
    assert contexts([0], [BYTES ^ 0x3F], BYTES) == b"\x00"


def test_context_is_its_table_column():
    for w in (False, True):
        for near in (False, True):
            assert contexts([w], [ADDR], ADDR if near else -1)[0] == w << 1 | (not near)


def markov(n, counts, zero_rows, zero_pairs):
    m = MarkovModel(n)
    m.counts = [0 if r in zero_rows or c // 2 in zero_pairs else counts[r * n + c]
                for r in range(n) for c in range(n)]
    return m


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([4, 8]),
       counts=st.lists(st.sampled_from([0, 0, 1, 3, 17]), min_size=64, max_size=64),
       zero_rows=st.sets(st.integers(0, 7)),
       zero_pairs=st.sets(st.integers(0, 3)))
# Row 1 empty: marginal fallback; columns 2 and 3 empty: the write
# context is unseen (-1.0, no draw).
@example(n=4, counts=[1] * 64, zero_rows={1}, zero_pairs={1})
def test_compiled_markov_matches_predict(n, counts, zero_rows, zero_pairs):
    for row in [None, *range(n)]:
        for is_write in (0, 1):
            for near in (False, True):
                for u in U_GRID:
                    ref = markov(n, counts, zero_rows, zero_pairs)
                    got = markov(n, counts, zero_rows, zero_pairs)
                    ref.last_state = got.last_state = row
                    ref_rng, got_rng = FixedU(u), FixedU(u)
                    hit = predict(ref, is_write << 1 | (not near), ref_rng)
                    prev_address = ADDR if near else -1
                    misses = got.predict_interval([is_write], [ADDR], prev_address, got_rng)
                    assert (misses == []) == hit
                    assert got.last_state == ref.last_state
                    assert got_rng.draws == ref_rng.draws


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 8]),
       counts=st.lists(st.sampled_from([0, 0, 1, 3, 17]), min_size=64, max_size=64),
       zero_rows=st.sets(st.integers(0, 7)),
       zero_pairs=st.sets(st.integers(0, 3)),
       stream=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7)), max_size=60),
       last=st.one_of(st.none(), st.integers(0, 7)),
       prev_address=st.one_of(st.just(-1), st.integers(0x3F00, 0x4100)),
       cut=st.integers(0, 60),
       seed=st.integers(0, 2**32 - 1))
# Writes unseen, and a cut between two of them: the chain's state crosses
# the cut through references that leave the loop.
@example(n=8, counts=[1] * 64, zero_rows=set(), zero_pairs={1, 3}, last=5, prev_address=0x4000,
         stream=[(0, 1), (1, 0), (1, 2), (0, 0), (1, 1), (0, 2)], cut=2, seed=0)
def test_compiled_markov_matches_predict_over_a_stream(n, counts, zero_rows, zero_pairs, stream,
                                                       last, prev_address, cut, seed):
    # Addresses walk 32-byte steps, so neighbours are near or far. The
    # stream runs as two intervals cut at `cut`, the chain's state and the
    # address before the second carried across.
    addrs = [0x4000 + 32 * sum(step for _, step in stream[:i + 1]) for i in range(len(stream))]
    ops = [w for w, _ in stream]
    ref = markov(n, counts, zero_rows, zero_pairs)
    got = markov(n, counts, zero_rows, zero_pairs)
    ref.last_state = got.last_state = None if last is None else last % n
    ref_rng, got_rng = random.Random(seed), random.Random(seed)
    want, prev = [], prev_address >> 6
    for i, (w, a) in enumerate(zip(ops, addrs)):
        if not predict(ref, w << 1 | (a >> 6 != prev), ref_rng):
            want.append(i)
        prev = a >> 6
    cut = min(cut, len(ops))
    first = got.predict_interval(ops[:cut], addrs[:cut], prev_address, got_rng)
    second = got.predict_interval(ops[cut:], addrs[cut:], addrs[cut - 1] if cut else prev_address,
                                  got_rng)
    assert first + [cut + i for i in second] == want
    assert got.last_state == ref.last_state
    assert got_rng.random() == ref_rng.random()


@settings(max_examples=60, deadline=None)
@given(counts=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       ops=st.lists(st.integers(0, 1), max_size=60),
       seed=st.integers(0, 2**32 - 1))
@example(counts=(0, 0), ops=[0, 1] * 10, seed=0)  # untrained: every reference misses
@example(counts=(3, 0), ops=[1, 0] * 10, seed=0)  # certain hit
def test_fixed_rate_predict_interval_matches_predict(counts, ops, seed):
    addrs = [ADDR + 32 * i for i in range(len(ops))]
    ref, got = FixedHitRateModel(), FixedHitRateModel()
    ref.counts, got.counts = list(counts), list(counts)
    ref_rng, got_rng = random.Random(seed), random.Random(seed)
    want = [i for i, w in enumerate(ops) if not predict(ref, w << 1, ref_rng)]
    assert got.predict_interval(ops, addrs, -1, got_rng) == want
    assert got_rng.random() == ref_rng.random()
    assert got.counts == list(counts)
    if not counts[0]:
        assert want == list(range(len(ops)))
    elif not counts[1]:
        assert want == []
    # One draw per reference, whatever the rate.
    u = FixedU(0.5)
    got.predict_interval(ops, addrs, -1, u)
    assert u.draws == len(ops)


def per_reference_inputs(ops, addresses, misses, prev_address):
    """Each reference's context, detailed L1 outcome and near flag, one
    reference at a time."""
    missed = set(misses)
    prev = prev_address >> 6
    out = []
    for i, address in enumerate(addresses):
        line = address >> 6
        near = line == prev
        prev = line
        out.append((ops[i] << 1 | (not near), i not in missed, near))
    return out


def shadow_train_per_reference(st_, refs):
    """Shadow training one reference at a time: the phase counts every
    reference and every detailed near miss once, and each candidate in
    turn scores `predict`'s expected value at every reference of the
    interval, then trains on it. A candidate's expected counts are summed
    over the interval in reference order and then added to its sums."""
    for ctx, hit, near in refs:
        st_.refs += 1
        st_.base_near_misses += near and not hit
    for kind, model in st_.models.items():
        correct = near_misses = 0.0
        for ctx, hit, near in refs:
            # 0 at an unseen context, where `predict` draws nothing.
            p = hit_probability(model, ctx) or 0.0
            correct += p if hit else 1.0 - p
            if near:
                near_misses += 1.0 - p
            train(model, ctx, hit)
        total = st_.shadow[kind]
        st_.shadow[kind] = (total[0] + correct, total[1] + near_misses)


def model_state(model):
    if isinstance(model, MarkovModel):
        return model.counts, model.last_state
    return model.counts


@st.composite
def shadow_runs(draw):
    """Candidates in any order, and a stream cut into at least three
    intervals. The first interval only reads, so the write column pairs
    are still unseen after it and later intervals reach the references
    where a Markov chain's hit probability is 0."""
    subset = draw(st.permutations(SWAP_KINDS))[:draw(st.integers(1, len(SWAP_KINDS)))]
    ref = st.tuples(st.integers(0, 1), st.integers(0, 7), st.booleans())
    first = draw(st.lists(ref.map(lambda r: (0, *r[1:])), max_size=30))
    rest = draw(st.lists(ref, max_size=90))
    cuts = sorted(draw(st.lists(st.integers(0, len(rest)), min_size=1, max_size=4)))
    return tuple(subset), first, rest, cuts


PREV_ADDRESS = st.one_of(st.just(-1), st.integers(0x3F00, 0x4100))


@settings(max_examples=80, deadline=None)
@given(run=shadow_runs(), prev_address=PREV_ADDRESS)
@example(run=((ModelKind.MARKOV8, ModelKind.FIXED_RATE), [(0, 0, False)] * 3,
              [(1, 1, True), (1, 2, False), (0, 0, True)], [1]),
         prev_address=-1)
@example(run=(SWAP_KINDS, [], [], [0]), prev_address=-1)
def test_shadow_train_any_candidate_order(run, prev_address):
    got, want = shadow_train_in_intervals(run, prev_address, seed=0)
    assert (got.refs, got.base_near_misses) == (want.refs, want.base_near_misses)
    for kind in run[0]:
        assert got.shadow[kind] == want.shadow[kind]


# Shadow training makes no draw: the models train on the detailed
# outcomes alone, and swapped intervals draw the same numbers whatever
# was trained before them.
@settings(max_examples=60, deadline=None)
@given(run=shadow_runs(), prev_address=PREV_ADDRESS, seed=st.integers(0, 2**32 - 1))
def test_shadow_train_models_match_oracle_and_leave_rng_untouched(run, prev_address, seed):
    shadow_train_in_intervals(run, prev_address, seed)


def shadow_train_in_intervals(run, prev_address, seed):
    """Shadow-train a run interval by interval with `_shadow_train` and
    with the per-reference oracle. After every interval both leave the
    models in the same state, and the controller's rng where it started.
    Returns both phase states."""
    kinds, first, rest, cuts = run
    refs = first + rest
    # Addresses walk 32-byte steps, so neighbours are near or far.
    addrs = [0x4000 + 32 * sum(step for _, step, _ in refs[:i + 1]) for i in range(len(refs))]
    ops = bytes(w for w, _, _ in refs)
    bounds = [0, len(first), *(len(first) + c for c in cuts), len(refs)]
    ctrl = SwapController(Hierarchy(), ControllerConfig(candidate_kinds=kinds),
                          rng=random.Random(seed))
    rng_state = ctrl.rng.getstate()
    got = PhaseModelState(kinds)
    want = PhaseModelState(kinds)
    ctrl._prev_address = prev = prev_address
    for lo, hi in zip(bounds, bounds[1:]):
        misses = [i - lo for i in range(lo, hi) if refs[i][2]]
        ctrl._shadow_train(got, ops[lo:hi], addrs[lo:hi], misses)
        inputs = per_reference_inputs(ops[lo:hi], addrs[lo:hi], misses, prev)
        shadow_train_per_reference(want, inputs)
        if hi > lo:
            ctrl._prev_address = prev = addrs[hi - 1]
        assert list(got.models) == list(kinds)
        for kind in kinds:
            assert model_state(got.models[kind]) == model_state(want.models[kind])
        assert ctrl.rng.getstate() == rng_state
    return got, want


def splitmix64(x):
    """The SplitMix64 finalizer, one 64-bit value at a time."""
    m64 = (1 << 64) - 1
    x &= m64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & m64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & m64
    x ^= x >> 31
    return x


def test_splitmix64_oracle_reference_vector():
    assert splitmix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    assert splitmix64(0) == 0
    assert splitmix64(1) == 0x5692161D100B05E5


# A DROP_BITS of 64, which drops every bit, and the top of the address
# range check that no lane of the whole-interval hash leaks into its
# neighbour.
@settings(max_examples=100, deadline=None)
@given(addrs=st.lists(st.integers(0, 2**64 - 1), max_size=200),
       sig_bits=st.sampled_from([0, 1, 6, 10, 16]),
       drop_bits=st.integers(0, 64),
       packed=st.booleans())
@example(addrs=[], sig_bits=10, drop_bits=3, packed=True)
@example(addrs=[1, 2**64 - 1], sig_bits=10, drop_bits=64, packed=False)
@example(addrs=[2**64 - 1, 2**63, 5], sig_bits=16, drop_bits=0, packed=True)
def test_interval_signature_is_or_of_hashes(addrs, sig_bits, drop_bits, packed):
    expected = 0
    for a in addrs:
        expected |= 1 << (splitmix64(a >> drop_bits) >> 64 - sig_bits)
    # run_simulation passes each interval as an array("Q") slice.
    interval = array("Q", addrs) if packed else addrs
    with pytest.MonkeyPatch.context() as m:
        m.setattr(phase, "SIG_BITS", sig_bits)
        m.setattr(phase, "DROP_BITS", drop_bits)
        assert interval_signature(interval) == expected
        det = PhaseDetector(PhaseDetectorConfig(interval_len=max(1, len(addrs))))
        det.observe_interval(interval)
    assert det._last_sig == expected


@pytest.mark.parametrize("n", [5_001, 10_000, 10_007])
@pytest.mark.parametrize("packed", [False, True])
def test_long_interval_signature_hashes_only_its_sample(n, packed, monkeypatch):
    # Above 2 * SAMPLE_REFS references, only SAMPLE_RUNS runs of
    # SAMPLE_REFS // SAMPLE_RUNS references, one every n // SAMPLE_RUNS,
    # set bits. A 2**24-bit signature shows any address hashed outside
    # them; the default 1024 bits fill up at about 2 500 random addresses.
    assert n > 2 * SAMPLE_REFS
    rng = random.Random(n)
    addrs = [rng.getrandbits(64) for _ in range(n + 6)]
    monkeypatch.setattr(phase, "SIG_BITS", 24)
    monkeypatch.setattr(phase, "DROP_BITS", 0)
    run, step = SAMPLE_REFS // SAMPLE_RUNS, n // SAMPLE_RUNS
    expected = 0
    for start in range(0, SAMPLE_RUNS * step, step):
        for a in addrs[3 + start:3 + start + run]:
            expected |= 1 << (splitmix64(a) >> 40)
    interval = array("Q", addrs)[3:3 + n] if packed else addrs[3:3 + n]
    assert interval_signature(interval) == expected


# (sets, ways, line_bytes), 1-set and 1-way caches included.
GEOMETRIES = [(1, 1, 16), (1, 4, 16), (4, 1, 32), (4, 2, 16), (8, 4, 64)]


def shortcut_stream(geometry, steps):
    """Addresses heavy in repeats: each step touches the previous line
    again, another line of the previous set (from a pool of ways + 2
    tags), or a line drawn afresh."""
    sets, ways, line_bytes = geometry
    addrs, line = [], 0
    for kind, v in steps:
        if kind == "set":
            line = (v % (ways + 2)) * sets + (line & (sets - 1))
        elif kind == "new":
            line = v
        addrs.append(line * line_bytes + v % line_bytes)
    return addrs


@settings(max_examples=150, deadline=None)
@given(geometry=st.sampled_from(GEOMETRIES),
       steps=st.lists(st.tuples(st.sampled_from(["line", "line", "set", "new"]),
                                st.integers(0, 63)), max_size=200),
       cuts=st.lists(st.integers(0, 200), max_size=6))
@example(geometry=(1, 1, 16), steps=[("new", 1), ("new", 2), ("line", 3), ("new", 1)], cuts=[2])
@example(geometry=(4, 2, 16), steps=[("new", 0), ("set", 1), ("set", 0), ("set", 2), ("set", 1)],
         cuts=[1, 3])
# Two lines in different sets, referenced alternately: each reference
# goes to its set's dict, although its line is that set's MRU.
@example(geometry=(4, 1, 16), steps=[("new", 0), ("new", 1), ("new", 0), ("new", 1)], cuts=[])
# Cuts between two references to one line: nothing is carried between
# misses calls, so the second reference goes to the dict.
@example(geometry=(4, 2, 16), steps=[("new", 5), ("line", 3), ("line", 7), ("new", 9), ("line", 1)],
         cuts=[1, 2, 4])
def test_previous_line_shortcut_matches_reference_lru(geometry, steps, cuts):
    sets, ways, line_bytes = geometry
    config = CacheConfig(sets * ways * line_bytes, ways, line_bytes, 1)
    addrs = shortcut_stream(geometry, steps)
    ref = ReferenceLRU(config)
    want = [i for i, a in enumerate(addrs) if not ref.hit_check(a)]
    # Split the stream into misses calls; every other piece runs through
    # misses one reference at a time.
    cache = SetAssociativeCache(config)
    bounds = [0, *sorted(min(c, len(addrs)) for c in cuts), len(addrs)]
    got = []
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if j % 2:
            got += [i for i in range(lo, hi) if cache.misses((addrs[i],))]
        else:
            got += [lo + i for i in cache.misses(addrs[lo:hi])]
    assert got == want
    assert [list(s) for s in cache._sets] == ref.sets


ADDRS = st.lists(st.integers(0, 1 << 22), min_size=1, max_size=300)


@settings(max_examples=50, deadline=None)
@given(addrs=ADDRS, kind=st.sampled_from(SWAP_KINDS), seed=st.integers(0, 1000))
def test_detailed_l1_frozen_across_swapped_interval(addrs, kind, seed):
    ctrl = SwapController(Hierarchy(), ControllerConfig(train_intervals=1,
                                                        candidate_kinds=(kind,)),
                          rng=random.Random(seed))
    ctrl.run_interval(0, bytes(64), [0x1000 + (i % 24) * 8 for i in range(64)])
    ctrl.on_interval_end(IntervalRecord(0, 0, "base", None, 0, 0, 0, 0, 0))
    assert ctrl.phases[0].chosen is kind
    fp = ctrl.hierarchy.l1.fingerprint()
    l1_hits = ctrl.hierarchy.l1_hits
    misses = ctrl.run_interval(0, bytes(a & 1 for a in addrs), addrs)
    assert ctrl.directive.swapped_kind is kind
    assert ctrl.hierarchy.l1.fingerprint() == fp
    assert ctrl.hierarchy.l1_hits - l1_hits == len(addrs) - len(misses)


@settings(max_examples=50, deadline=None)
@given(addrs=ADDRS)
def test_detailed_l1_advances_across_base_interval(addrs):
    ctrl = SwapController(Hierarchy(), ControllerConfig(), rng=random.Random(0))
    fp = ctrl.hierarchy.l1.fingerprint()
    ref = SetAssociativeCache(DEFAULT_L1)
    want = ref.misses(addrs)
    assert ctrl.run_interval(-1, bytes(len(addrs)), addrs) == want
    assert ctrl.hierarchy.l1.fingerprint() == ref.fingerprint() != fp


def observe_in_chunks(stream, rng, max_chunk):
    """One tracker over the stream, fed in random chunks (empty ones too)."""
    tracker = ReuseDistanceTracker()
    got = []
    start = 0
    while start < len(stream):
        size = rng.randrange(max_chunk + 1)
        got += tracker.observe_all(stream[start:start + size])
        start += size
    return got


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), universe=st.integers(1, 400),
       n=st.integers(3100, 5000), max_chunk=st.integers(1, 700))
def test_reuse_tracker_chunks_match_oracle(seed, universe, n, max_chunk):
    rng = random.Random(seed)
    hot = rng.randrange(1, universe + 1)
    stream = [rng.randrange(hot if rng.random() < 0.5 else universe) for _ in range(n)]
    assert observe_in_chunks(stream, rng, max_chunk) == quadratic_reuse_distances(stream)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), universe=st.integers(REUSE_CAP + 1, 3 * REUSE_CAP),
       n=st.integers(3000, 6000), max_chunk=st.integers(1, 700))
def test_reuse_tracker_caps_distances(seed, universe, n, max_chunk):
    # Universes past the cap: lines fall off the stack and come back. The
    # closing permutation, played twice, reuses every line at distance
    # universe - 1 >= REUSE_CAP.
    rng = random.Random(seed)
    hot = rng.randrange(1, universe + 1)
    stream = [rng.randrange(hot if rng.random() < 0.5 else universe) for _ in range(n)]
    stream += rng.sample(range(universe), universe) * 2
    got = observe_in_chunks(stream, rng, max_chunk)
    want = [d if d is None else min(d, REUSE_CAP) for d in quadratic_reuse_distances(stream)]
    assert got == want
    assert REUSE_CAP in got


# Small enough that a trace of a few hundred references hits every level.
SMALL_HIERARCHY = HierarchyConfig(CacheConfig(256, 2, 32, 4), CacheConfig(1024, 2, 64, 12),
                                  CacheConfig(4096, 4, 64, 40), 200)


@st.composite
def phased_runs(draw):
    """A trace of intervals that repeat a few short patterns, so phases
    recur and get swapped, ending in a partial interval; its detector
    config; and a cut of the trace into blocks, which may be empty, span
    several intervals, or end inside the partial interval. Each block's
    ops are an `array("B")` slice, `bytes` or a `list`, all of which
    check_references takes."""
    interval_len = draw(st.sampled_from([8, 16, 40]))
    ref = st.tuples(st.integers(0, 1), st.integers(0, 1 << 14))
    patterns = draw(st.lists(st.lists(ref, min_size=1, max_size=12), min_size=1, max_size=3))
    order = draw(st.lists(st.integers(0, len(patterns) - 1), max_size=12))
    refs = [patterns[k][i % len(patterns[k])] for k in order for i in range(interval_len)]
    refs += draw(st.lists(ref, min_size=1, max_size=interval_len - 1))
    trace = Trace(array("B", [w for w, _ in refs]), array("Q", [a for _, a in refs]))
    cuts = sorted(draw(st.lists(st.integers(0, len(refs)), max_size=8)))
    as_ops = st.sampled_from([lambda ops: ops, bytes, list])
    blocks = [(draw(as_ops)(trace.ops[a:b]), trace.addresses[a:b])
              for a, b in zip([0, *cuts], [*cuts, len(refs)])]
    return trace, PhaseDetectorConfig(interval_len=interval_len,
                                      stable_min=draw(st.integers(1, 2))), blocks


def simulate(run, hierarchy, seed):
    trace, detector, _ = run
    return run_simulation(trace, hierarchy, detector, ControllerConfig(train_intervals=1),
                          seed=seed, validate=True)


@settings(max_examples=60, deadline=None)
@given(run=phased_runs(), hierarchy=st.sampled_from([HierarchyConfig(), SMALL_HIERARCHY]),
       seed=st.integers(0, 2**32))
def test_totals_count_every_reference_once(run, hierarchy, seed):
    result = simulate(run, hierarchy, seed)
    latencies = [hierarchy.l1.hit_latency, hierarchy.l2.hit_latency,
                 hierarchy.l3.hit_latency, hierarchy.memory_latency]
    for totals in (result.totals, result.base_totals):
        counts = [totals[k] for k in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses")]
        assert sum(counts) == len(run[0])
        assert totals["cycles"] == sum(map(mul, counts, latencies))


def comparable(result):
    def hists(h):
        return None if h is None else {pid: vars(x) for pid, x in h.items()}
    return dataclasses.replace(result, reuse=hists(result.reuse),
                               base_reuse=hists(result.base_reuse))


@settings(max_examples=30, deadline=None)
@given(run=phased_runs(), hierarchy=st.sampled_from([HierarchyConfig(), SMALL_HIERARCHY]),
       seed=st.integers(0, 2**32))
def test_same_seed_same_result(run, hierarchy, seed):
    # And the same whatever blocks the trace is cut into.
    _, detector, blocks = run
    cut = Runner(hierarchy, detector, ControllerConfig(train_intervals=1), seed=seed,
                 validate=True).run(blocks)
    assert comparable(simulate(run, hierarchy, seed)) == comparable(simulate(run, hierarchy, seed)) \
        == comparable(cut)


# Line counts from 1 to past 2**64: powers of two and their neighbours
# (a draw of `bit_length()` bits is accepted about half the time at 2**m
# and 2**m + 1, and nearly always at 2**m - 1), and counts past 2**32,
# which `getrandbits` draws from more than one Mersenne Twister word.
# Only a direct call reaches those: a phase's working set has far fewer
# lines.
LINE_COUNTS = st.one_of(
    st.integers(1, 2**70),
    st.builds(lambda m, d: max(1, 2**m + d), st.integers(0, 70), st.integers(-1, 1)))


@settings(max_examples=300, deadline=None)
@given(n=LINE_COUNTS, count=st.integers(0, 40), p_write=st.floats(0, 1),
       seed=st.integers(0, 2**64 - 1))
@example(n=1, count=20, p_write=0.5, seed=0)
@example(n=2**32 - 1, count=20, p_write=0.5, seed=0)
@example(n=2**32, count=20, p_write=0.5, seed=0)
@example(n=2**32 + 1, count=20, p_write=0.5, seed=0)
def test_draw_matches_randrange(n, count, p_write, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    lines, writes = _draw(rng, n, count, p_write)
    assert list(zip(lines, map(bool, writes))) == [
        (ref.randrange(n), ref.random() < p_write) for _ in range(count)]
    assert rng.getstate() == ref.getstate()


PHASE_SPECS = st.builds(
    SyntheticPhaseSpec, kind=st.sampled_from(PhaseKind), length=st.integers(1, 20_000),
    seed=st.integers(0, 2**32),
    working_set_bytes=st.one_of(st.just(0), st.integers(1, 2 * 1024 * 1024)))


@settings(max_examples=300, deadline=None)
@given(specs=st.lists(PHASE_SPECS, min_size=1, max_size=3), iterations=st.integers(1, 3),
       marker_spec=st.none() | PHASE_SPECS)
def test_generated_trace_matches_per_reference_oracle(specs, iterations, marker_spec):
    t = generate_trace(specs, iterations, marker_spec)
    assert list(zip(t.ops, t.addresses)) == oracle_generate(specs, iterations, marker_spec)


class IntervalRecorder(Runner):
    """A Runner that keeps the intervals it cuts instead of running them."""

    def __init__(self, interval_len):
        super().__init__(detector_config=PhaseDetectorConfig(interval_len=interval_len))
        self.pieces = []

    def _step(self, ops, addresses):
        self.pieces.append((bytes(ops), array("Q", addresses)))


@settings(max_examples=30, deadline=None)
@given(kinds=st.lists(st.sampled_from(PhaseKind), min_size=1, max_size=3),
       lengths=st.lists(st.integers(1, 20_000), min_size=3, max_size=3),
       iterations=st.integers(1, 2), marker=st.booleans(), interval_len=st.integers(1, 30_000))
@example(kinds=[PhaseKind.MARKER], lengths=[8192, 1, 1], iterations=2, marker=False,
         interval_len=8192)  # every block fills an interval exactly
def test_generated_intervals_are_the_generated_trace(kinds, lengths, iterations, marker,
                                                     interval_len):
    # The intervals a Runner cuts from the generated blocks.
    specs = [SyntheticPhaseSpec(k, n, seed=i) for i, (k, n) in enumerate(zip(kinds, lengths))]
    marker_spec = SyntheticPhaseSpec(PhaseKind.MARKER, 300, seed=9) if marker else None
    whole = generate_trace(specs, iterations, marker_spec)
    runner = IntervalRecorder(interval_len)
    runner.run(generate_blocks(specs, iterations, marker_spec))
    pieces = runner.pieces
    assert [len(a) for _, a in pieces] == [
        min(interval_len, len(whole) - start) for start in range(0, len(whole), interval_len)]
    assert [len(o) for o, _ in pieces] == [len(a) for _, a in pieces]
    assert b"".join(o for o, _ in pieces) == whole.ops.tobytes()
    assert array("Q", b"".join(a.tobytes() for _, a in pieces)) == whole.addresses
