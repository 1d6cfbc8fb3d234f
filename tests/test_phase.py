"""Phase detector: hashing, signature distance and interval labeling."""
import random
from functools import reduce
from operator import or_

import pytest

from swapsim import phase
from swapsim.phase import (
    SAMPLE_REFS,
    PhaseDetector,
    PhaseDetectorConfig,
    interval_signature,
    signature_diff,
)
from swapsim.trace import PhaseKind, SyntheticPhaseSpec, build_preset, generate_trace


def bits(*idx):
    v = 0
    for i in idx:
        v |= 1 << i
    return v


def test_splitmix64_reference_vector(monkeypatch):
    # First output of the published SplitMix64 sequence from seed 0: the
    # finalizer applied to seed + 0x9E3779B97F4A7C15. With no bits dropped
    # a 2**24-bit signature sets the bit named by the top 24 bits of the hash.
    monkeypatch.setattr(phase, "SIG_BITS", 24)
    monkeypatch.setattr(phase, "DROP_BITS", 0)
    assert interval_signature([0x9E3779B97F4A7C15]) == bits(0xE220A8)
    assert interval_signature([0]) == bits(0)
    assert interval_signature([1]) == bits(0x569216)
    # Both in one interval: each address hashes in its own lane.
    assert interval_signature([1, 0x9E3779B97F4A7C15]) == bits(0x569216, 0xE220A8)


def test_hash_address_golden_values():
    # One address sets one signature bit.
    assert interval_signature([0x0]) == bits(0)
    assert interval_signature([0x8]) == bits(346)
    assert interval_signature([0x7FFF0040]) == bits(165)
    assert interval_signature([0xDEADBEEF]) == bits(167)


def test_hash_address_range_and_granularity():
    for a in range(0, 4096, 64):
        sig = interval_signature([a])
        assert sig.bit_count() == 1 and sig < 1 << 2**phase.SIG_BITS
    # DROP_BITS=3 makes all addresses within one 8-byte word collide
    assert interval_signature([0x100, 0x107]) == interval_signature([0x100])


def test_hash_avalanche():
    # Neighboring granules should scatter across the signature.
    assert interval_signature(range(0, 8 * 500, 8)).bit_count() > 300


def test_signature_diff_examples():
    assert signature_diff(0, 0) == 0.0
    assert signature_diff(bits(1, 2, 3), bits(1, 2, 3)) == 0.0
    assert signature_diff(bits(1, 2, 3), bits(2, 3, 4)) == 0.5
    assert signature_diff(bits(0), bits(1)) == 1.0
    assert signature_diff(bits(5), 0) == 1.0


def test_signature_diff_properties():
    rng = random.Random(4)
    for _ in range(200):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        d = signature_diff(a, b)
        assert 0.0 <= d <= 1.0
        assert d == signature_diff(b, a)
        assert (d == 0.0) == (a == b)


def test_config_validation():
    with pytest.raises(ValueError):
        PhaseDetectorConfig(interval_len=0)
    with pytest.raises(ValueError):
        PhaseDetectorConfig(stable_min=0)


def loop_addresses(n, base=0x1000, words=64):
    return [base + (i % words) * 8 for i in range(n)]


def feed(det, addrs):
    """Observe every full interval of addrs; returns their labels."""
    n = det.config.interval_len
    return [det.observe_interval(addrs[k:k + n]) for k in range(0, len(addrs) - n + 1, n)]


def test_tight_loop_phase_lifecycle():
    # First boundary diffs against the empty signature (distance 1.0), so
    # it is always unstable; the phase is cataloged only after stable_min
    # consecutive similar intervals.
    cfg = PhaseDetectorConfig(interval_len=1000, stable_min=5)
    det = PhaseDetector(cfg)
    assert feed(det, loop_addresses(8000)) == [-1, -1, -1, -1, -1, 0, 0, 0]
    assert len(det.table) == 1


def test_reentry_reuses_id():
    cfg = PhaseDetectorConfig(interval_len=1000, stable_min=2)
    det = PhaseDetector(cfg)
    labels = []
    for base in (0x10000, 0x900000, 0x10000):
        labels += feed(det, loop_addresses(4000, base=base))
    assert 0 in labels and 1 in labels
    # the second visit to the first loop reuses id 0 immediately: its
    # signature matches the catalog even at the unstable boundary
    assert labels[-3:] == [0, 0, 0]
    assert len(det.table) == 2


def test_unstable_interval_takes_the_closest_cataloged_phase():
    # These four addresses set bits 0, 346, 165 and 167 (see above).
    addrs = [0x0, 0x8, 0x7FFF0040, 0xDEADBEEF]
    for table, want in (
        ([bits(0, 346, 165), bits(0, 346, 165, 167)], 1),  # distances 0.25, 0
        ([bits(0, 346, 165), bits(0, 346, 167)], 0),  # a tie: the lowest id wins
        ([bits(1, 2, 3)], -1),  # nothing below the threshold
    ):
        det = PhaseDetector()
        det.table = list(table)
        assert det.observe_interval(addrs) == want


def test_alternating_content_never_stabilizes():
    cfg = PhaseDetectorConfig(interval_len=1000, stable_min=2)
    det = PhaseDetector(cfg)
    labels = []
    for i in range(10):
        base = 0x10000 if i % 2 == 0 else 0x900000
        labels += feed(det, loop_addresses(1000, base=base))
    assert labels == [-1] * 10
    assert det.table == []


def test_detector_is_deterministic():
    rng = random.Random(7)
    addrs = [rng.randrange(1 << 40) for _ in range(30000)]
    cfg = PhaseDetectorConfig(interval_len=1000, stable_min=2)
    d1, d2 = PhaseDetector(cfg), PhaseDetector(cfg)
    ev1 = feed(d1, addrs)
    ev2 = feed(d2, addrs)
    assert len(ev1) == 30
    assert ev1 == ev2
    assert d1.table == d2.table


def test_observe_matches_hash_address():
    cfg = PhaseDetectorConfig(interval_len=4)
    det = PhaseDetector(cfg)
    addrs = [0x7FFF0040, 0xDEADBEEF, 0x8, 0x0]
    assert det.observe_interval(addrs) == -1
    # the closed interval's signature, the golden bits of its addresses,
    # becomes the comparison baseline
    assert det._last_sig == bits(165, 167, 346, 0)


def exact_signature(addresses):
    """The signature of every reference: the OR of the signatures of
    chunks short enough to be hashed whole."""
    chunk = 2 * SAMPLE_REFS
    return reduce(or_, (interval_signature(addresses[k:k + chunk])
                        for k in range(0, len(addresses), chunk)), 0)


def detect(trace, signature, monkeypatch):
    """(labels, signatures, cataloged phases) of the default detector run
    over the full intervals of `trace`, hashing each with `signature`."""
    det = PhaseDetector()
    n = det.config.interval_len
    a = trace.addresses
    intervals = [a[k:k + n] for k in range(0, len(a) - n + 1, n)]
    with monkeypatch.context() as m:
        m.setattr(phase, "interval_signature", signature)
        labels = [det.observe_interval(i) for i in intervals]
    return labels, [signature(i) for i in intervals], len(det.table)


def distances(sigs):
    """Each signature's distance from its predecessor's (the first from 0)."""
    return [signature_diff(s, p) for s, p in zip(sigs, [0] + sigs)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampling_survives_misaligned_phases(seed, monkeypatch):
    # Phase lengths that are not multiples of 4 shift where each
    # high-locality burst of 4 words starts. A position stride of 4
    # (addresses[::4]) changes 22 of the 79 labels here and catalogs 6
    # phases; contiguous runs move only labels near the threshold.
    kinds = ((PhaseKind.HIGH_LOCALITY, 60_001), (PhaseKind.RANDOM_ACCESS, 60_002),
             (PhaseKind.VECTOR_ADD, 60_003))
    specs = [SyntheticPhaseSpec(k, n, seed * 1000 + i) for i, (k, n) in enumerate(kinds, 1)]
    trace = generate_trace(specs, 4, SyntheticPhaseSpec(PhaseKind.MARKER, 6_101, seed * 1000 + 4))
    exact, exact_sigs, exact_phases = detect(trace, exact_signature, monkeypatch)
    sampled, _, sampled_phases = detect(trace, interval_signature, monkeypatch)
    assert len(exact) == 79
    assert sampled_phases == exact_phases
    for d, e, s in zip(distances(exact_sigs), exact, sampled):
        assert e == s or abs(d - phase.THRESHOLD) <= 0.1


@pytest.mark.parametrize("preset", ["meabo3-small", "locality"])
@pytest.mark.parametrize("seed", [1, 9973])
def test_sampled_signature_keeps_its_margin(preset, seed, monkeypatch):
    # Exact distances between similar consecutive intervals are about
    # 0.003 on these presets, sampled ones 0.17-0.19, against the 0.5
    # threshold.
    trace = build_preset(preset, seed)
    exact, exact_sigs, _ = detect(trace, exact_signature, monkeypatch)
    sampled, sampled_sigs, _ = detect(trace, interval_signature, monkeypatch)
    assert sampled == exact
    for e, s in zip(distances(exact_sigs), distances(sampled_sigs)):
        assert e >= phase.THRESHOLD or s <= 0.25


def test_sampled_detector_catalogs_no_churn_phase(monkeypatch):
    # Phases of 2.5 intervals never stay stable for stable_min intervals.
    kinds = (PhaseKind.HIGH_LOCALITY, PhaseKind.RANDOM_ACCESS, PhaseKind.VECTOR_ADD)
    trace = generate_trace([SyntheticPhaseSpec(k, 25_000, 9973 * 1000 + i)
                            for i, k in zip((1, 3, 2), kinds)], iterations=10)
    assert detect(trace, interval_signature, monkeypatch)[2] == 0
