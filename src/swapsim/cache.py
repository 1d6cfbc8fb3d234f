"""Set-associative LRU caches and the three-level hierarchy with cycle accounting.

The hierarchy works on one interval of references at a time. Its L1
outcomes are a list of the positions that missed, whether they come from
the detailed L1 or from a swapped-in statistical model; the missed
references then go down through L2 and L3 in order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .metrics import SAMPLE_BITS, SAMPLE_HASH, SAMPLE_MASK, ReuseDistanceTracker, ReuseHistogram


# Sets are allocated up front, one dict each: 2**20 sets (a 1 GiB 16-way
# cache of 64 B lines) take about 80 MiB, and 2**30 would take 80 GiB.
MAX_SETS = 1 << 20


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    total_bytes: int
    associativity: int
    line_bytes: int
    hit_latency: int

    def __post_init__(self):
        if self.associativity <= 0 or self.line_bytes <= 0:
            raise ValueError("associativity and line_bytes must be positive")
        if self.total_bytes % (self.associativity * self.line_bytes) != 0:
            raise ValueError("total_bytes must be divisible by associativity * line_bytes")
        if not _is_pow2(self.set_count):
            raise ValueError("set count must be a power of two")
        if self.set_count > MAX_SETS:
            raise ValueError(f"set count {self.set_count} exceeds the limit of 2**20 sets")
        if not _is_pow2(self.line_bytes):
            raise ValueError("line_bytes must be a power of two")
        if self.hit_latency <= 0:
            raise ValueError("hit_latency must be positive")

    @property
    def set_count(self) -> int:
        return self.total_bytes // (self.associativity * self.line_bytes)


# Default geometry. L1D keeps the 128-set layout (32 KiB, 8-way, 32 B
# lines) so its tag footprint is 8 KiB; L2/L3 use 64 B lines. Latencies
# are plausible defaults and fully configurable.
DEFAULT_L1 = CacheConfig(32 * 1024, 8, 32, 4)
DEFAULT_L2 = CacheConfig(256 * 1024, 8, 64, 12)
DEFAULT_L3 = CacheConfig(2 * 1024 * 1024, 16, 64, 40)
DEFAULT_MEMORY_LATENCY = 200


@dataclass(frozen=True)
class HierarchyConfig:
    l1: CacheConfig = DEFAULT_L1
    l2: CacheConfig = DEFAULT_L2
    l3: CacheConfig = DEFAULT_L3
    memory_latency: int = DEFAULT_MEMORY_LATENCY

    def __post_init__(self):
        lat = [self.l1.hit_latency, self.l2.hit_latency, self.l3.hit_latency, self.memory_latency]
        if any(a >= b for a, b in zip(lat, lat[1:])):
            raise ValueError("latencies must strictly increase from L1 to memory")


class SetAssociativeCache:
    """Detailed LRU cache. Misses allocate (write-allocate), hits promote
    to MRU. Each set is an insertion-ordered dict of line ids, oldest first."""

    __slots__ = ("config", "_sets", "_line_shift", "_set_mask")

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets = [dict() for _ in range(config.set_count)]
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.set_count - 1

    def misses(self, addresses) -> list[int]:
        """Look up each address in turn; returns the positions that missed.
        A hit promotes its line to MRU, a miss allocates it and evicts the
        LRU way of a full set. A reference to the line of the reference
        just before it is a hit that moves nothing, so it skips the dict."""
        sets = self._sets
        shift = self._line_shift
        mask = self._set_mask
        ways = self.config.associativity
        out = []
        prev = -1
        for i, address in enumerate(addresses):
            line = address >> shift
            if line == prev:
                continue
            prev = line
            s = sets[line & mask]
            if line in s:
                del s[line]
            else:
                out.append(i)
                if len(s) >= ways:
                    del s[next(iter(s))]
            s[line] = None
        return out

    def fingerprint(self) -> int:
        """Order-sensitive hash of the sets, the cache's whole state; used to
        assert the detailed model stays frozen during swapped intervals."""
        return hash(tuple(tuple(s) for s in self._sets))


class Hierarchy:
    """Three-level inclusive-allocation hierarchy with per-level hit counters;
    cycles follow from the counts. `reuse` (None unless `collect_reuse`) maps
    each interval label to the reuse distances, in L2 lines, of the sampled
    lines sent to L2 under it, an empty histogram if none. Single-threaded
    per instance."""

    def __init__(self, config: HierarchyConfig | None = None, collect_reuse: bool = False):
        self.config = config or HierarchyConfig()
        self.l1 = SetAssociativeCache(self.config.l1)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.l3 = SetAssociativeCache(self.config.l3)
        self.l1_hits = 0
        self.l2_hits = 0
        self.l3_hits = 0
        self.mem_accesses = 0
        self.reuse: dict[int, ReuseHistogram] | None = {} if collect_reuse else None
        self._tracker = ReuseDistanceTracker() if collect_reuse else None

    @property
    def cycles(self) -> int:
        c = self.config
        return (self.l1_hits * c.l1.hit_latency + self.l2_hits * c.l2.hit_latency
                + self.l3_hits * c.l3.hit_latency + self.mem_accesses * c.memory_latency)

    def run_detailed(self, addresses, label: int) -> list[int]:
        """Run an interval labeled `label` through the detailed L1 and the
        miss path; returns the positions that missed L1."""
        misses = self.l1.misses(addresses)
        self.serve_misses(addresses, misses, label)
        return misses

    def serve_misses(self, addresses, misses: list[int], label: int) -> None:
        """Count an interval's L1 hits, and send the references at the
        missed positions, in order, through L2, L3 and memory, allocating
        at every level that missed, and file the reuse distances of their
        sampled lines under `label`, scaled to all lines. L2 sees only the
        L1 miss stream and L3 only the L2 miss stream, so each level runs
        as one batch."""
        self.l1_hits += len(addresses) - len(misses)
        to_l2 = [addresses[i] for i in misses]
        if self.reuse is not None:
            shift = self.l2._line_shift
            sampled = [line for a in to_l2
                       if not (line := a >> shift) * SAMPLE_HASH & SAMPLE_MASK]
            self.reuse.setdefault(label, ReuseHistogram()).add_all(
                [d if d is None else d << SAMPLE_BITS
                 for d in self._tracker.observe_all(sampled)])
        to_l3 = [to_l2[i] for i in self.l2.misses(to_l2)]
        to_mem = self.l3.misses(to_l3)
        self.l2_hits += len(to_l2) - len(to_l3)
        self.l3_hits += len(to_l3) - len(to_mem)
        self.mem_accesses += len(to_mem)

    def totals(self) -> dict:
        return {
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "l3_hits": self.l3_hits,
            "mem_accesses": self.mem_accesses,
            "cycles": self.cycles,
        }
