"""Detailed cache model and hierarchy accounting."""
import random

import pytest

from swapsim.cache import (
    DEFAULT_L1,
    DEFAULT_L2,
    DEFAULT_L3,
    MAX_SETS,
    CacheConfig,
    Hierarchy,
    HierarchyConfig,
    SetAssociativeCache,
)
from swapsim.metrics import ReuseDistanceTracker, ReuseHistogram
from oracles import ReferenceLRU

LEVELS = ("l1_hits", "l2_hits", "l3_hits", "mem_accesses")


def test_config_validation():
    with pytest.raises(ValueError, match="divisible by associativity"):
        CacheConfig(1000, 8, 32, 4)  # not divisible into sets
    with pytest.raises(ValueError, match="line_bytes must be a power of two"):
        CacheConfig(49152, 8, 48, 4)  # 128 sets; line size not a power of two
    with pytest.raises(ValueError, match="set count must be a power of two"):
        CacheConfig(3 * 32 * 1024, 8, 32, 4)  # 384 sets, not a power of two
    with pytest.raises(ValueError, match="hit_latency must be positive"):
        CacheConfig(32 * 1024, 8, 32, 0)
    with pytest.raises(ValueError, match="associativity and line_bytes must be positive"):
        CacheConfig(32 * 1024, 0, 32, 4)  # no ways
    with pytest.raises(ValueError, match="associativity and line_bytes must be positive"):
        CacheConfig(32 * 1024, 8, 0, 4)  # no line
    assert CacheConfig(1 << 30, 16, 64, 40).set_count == MAX_SETS  # 1 GiB, 16-way
    for total in (1 << 31, 1 << 40):  # sets are allocated up front
        with pytest.raises(ValueError, match=r"2\*\*20"):
            CacheConfig(total, 16, 64, 40)


def test_default_geometry():
    assert DEFAULT_L1.set_count == 128
    assert DEFAULT_L2.set_count == 512
    assert DEFAULT_L3.set_count == 2048


def test_hierarchy_latency_ordering_enforced():
    with pytest.raises(ValueError):
        HierarchyConfig(l1=CacheConfig(32 * 1024, 8, 32, 12))  # ties L2


def test_cold_miss_then_hit():
    c = SetAssociativeCache(DEFAULT_L1)
    # 0x40 misses, then hits, as does 0x5F on its 32-byte line; 0x60, the
    # next line, misses.
    assert c.misses([0x40, 0x40, 0x5F, 0x60]) == [0, 3]


def test_ninth_line_evicts_lru_way():
    c = SetAssociativeCache(DEFAULT_L1)
    stride = DEFAULT_L1.set_count * DEFAULT_L1.line_bytes  # same-set stride
    # Nine lines of one set miss, the ninth evicting line 0; line 0 then
    # misses again and in turn evicts line 1.
    assert c.misses([*(i * stride for i in range(9)), 0]) == list(range(10))
    # Line 2 still hits; line 1 is gone and misses.
    assert c.misses([2 * stride, stride]) == [1]


def test_hit_promotes_to_mru():
    c = SetAssociativeCache(DEFAULT_L1)
    stride = DEFAULT_L1.set_count * DEFAULT_L1.line_bytes
    # Promote the oldest line, so the ninth line evicts line 1 instead.
    c.misses([*(i * stride for i in range(8)), 0, 8 * stride])
    assert c.misses([0, stride]) == [1]


@pytest.mark.parametrize(
    "config",
    [
        CacheConfig(1024, 2, 32, 4),
        CacheConfig(2048, 4, 64, 4),
        CacheConfig(4096, 8, 32, 4),
        CacheConfig(512, 1, 64, 4),
    ],
)
def test_matches_reference_lru(config):
    rng = random.Random(hash((config.total_bytes, config.associativity)))
    for trial in range(100):
        fast = SetAssociativeCache(config)
        ref = ReferenceLRU(config)
        addrs = [rng.randrange(0, 16 * config.total_bytes) for _ in range(400)]
        assert fast.misses(addrs) == [i for i, a in enumerate(addrs) if not ref.hit_check(a)]


def test_fingerprint_tracks_state():
    c = SetAssociativeCache(DEFAULT_L1)
    f0 = c.fingerprint()
    c.misses([0x40])
    f1 = c.fingerprint()
    assert f0 != f1
    assert c.fingerprint() == f1  # fingerprint() does not mutate


def serve(h, address):
    """Run one reference through the hierarchy; returns the counter it
    advanced and the cycles it added."""
    before = h.totals()
    h.run_detailed([address], -1)
    after = h.totals()
    level = next(k for k in LEVELS if after[k] != before[k])
    return level, after["cycles"] - before["cycles"]


def test_hierarchy_levels_and_cycles():
    h = Hierarchy()
    assert serve(h, 0x40) == ("mem_accesses", 200)
    assert serve(h, 0x40) == ("l1_hits", 4)
    # Line 0x40..0x5f shares the 64-byte L2/L3 line with 0x60 but not the
    # 32-byte L1 line, so the neighbor hits L2.
    assert serve(h, 0x60) == ("l2_hits", 12)
    assert h.totals() == {
        "l1_hits": 1,
        "l2_hits": 1,
        "l3_hits": 0,
        "mem_accesses": 1,
        "cycles": 200 + 4 + 12,
    }


def test_l3_hit_after_l2_eviction():
    h = Hierarchy()
    serve(h, 0x40)
    # Evict the line from L2 (512 sets, 8 ways) without evicting it from
    # L3 (2048 sets, 16 ways): walk same-L2-set lines spread over L3 sets.
    l2_stride = 512 * 64
    h.run_detailed([0x40 + i * l2_stride for i in range(1, 9)], -1)
    assert serve(h, 0x40) == ("l3_hits", 40)


def test_cycles_recompute_from_counts():
    h = Hierarchy()
    rng = random.Random(1)
    addrs = [rng.randrange(0, 1 << 22) for _ in range(5000)]
    misses = h.run_detailed(addrs, -1)
    t = h.totals()
    # One batch per level gives what one reference at a time gives.
    one = Hierarchy()
    assert [i for i, a in enumerate(addrs) if one.run_detailed([a], -1)] == misses
    assert one.totals() == t
    assert t["cycles"] == (
        4 * t["l1_hits"] + 12 * t["l2_hits"] + 40 * t["l3_hits"] + 200 * t["mem_accesses"]
    )
    assert t["l1_hits"] + t["l2_hits"] + t["l3_hits"] + t["mem_accesses"] == 5000


def test_serve_misses_leaves_l1_untouched():
    # A swapped-in model's predicted hits are counted without touching
    # the detailed L1; its predicted misses still allocate in L2 and L3.
    h = Hierarchy()
    f = h.l1.fingerprint()
    h.serve_misses([0x40, 0x80], [1], -1)
    assert h.l1.fingerprint() == f
    assert h.totals() == {"l1_hits": 1, "l2_hits": 0, "l3_hits": 0, "mem_accesses": 1,
                          "cycles": 4 + 200}
    assert h.l2.misses([0x80, 0x40]) == [1]
    assert h.l3.misses([0x80]) == []


def test_hierarchy_records_reuse_of_lines_sent_to_l2():
    # Distances are filed under each call's label, from one tracker that
    # runs across the calls, over L2 lines (64 B), not L1 lines (32 B).
    assert Hierarchy().reuse is None
    rng = random.Random(3)
    addrs = [rng.randrange(1 << 17) for _ in range(3000)]
    addrs2 = [rng.randrange(1 << 17) for _ in range(3000)]
    misses2 = sorted(rng.sample(range(3000), 900))
    h = Hierarchy(collect_reuse=True)
    misses = h.run_detailed(addrs, 3)
    h.serve_misses(addrs2, misses2, 5)
    sent = [addrs[i] >> 6 for i in misses], [addrs2[i] >> 6 for i in misses2]
    distances = ReuseDistanceTracker().observe_all(sent[0] + sent[1])
    want = ReuseHistogram(), ReuseHistogram()
    want[0].add_all(distances[:len(sent[0])])
    want[1].add_all(distances[len(sent[0]):])
    assert list(h.reuse) == [3, 5]
    for got, w in zip((h.reuse[3], h.reuse[5]), want):
        assert (got.cold_count, got.buckets) == (w.cold_count, w.buckets)
    assert h.reuse[3].total == len(misses) and h.reuse[5].total == len(misses2)
    # Some distances cross from the second call's lines back to the first's.
    assert h.reuse[5].cold_count < len(set(sent[1]))


def test_label_that_sends_no_line_to_l2_gets_an_empty_histogram():
    # A swapped phase whose model never misses still has its key in `reuse`.
    h = Hierarchy(collect_reuse=True)
    h.serve_misses([0x40, 0x80, 0xc0], [], 7)
    assert list(h.reuse) == [7]
    assert h.reuse[7].total == 0 and h.reuse[7].to_rows() == []
