"""Online phase detection from hashed working-set bit-vector signatures.

Every distinct address of an interval's sample sets one bit in its
signature, so a signature does not depend on access order or repeats (a
working-set signature). An interval of at most 2 * SAMPLE_REFS references
is its own sample; a longer one is sampled as SAMPLE_RUNS contiguous runs
spread evenly over it. At each interval boundary the signature is compared
with the previous one; enough consecutive similar intervals get cataloged
as a new phase, and unstable intervals are matched against the catalog or
labeled -1.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import or_

# One 128-bit lane: a 64-bit value in the low half, zeros above it.
_LANE = b"\xff" * 8 + b"\x00" * 8
_SWAP = sys.byteorder == "big"  # lanes are read as little-endian bytes

# Two signatures are similar below THRESHOLD, by signature_diff. Each
# distinct address, its low DROP_BITS dropped (one 8-byte word), sets one
# of the 2**SIG_BITS (1024) signature bits.
THRESHOLD = 0.5
SIG_BITS = 10
DROP_BITS = 3

# An interval longer than 2 * SAMPLE_REFS is hashed from SAMPLE_RUNS runs of
# SAMPLE_REFS // SAMPLE_RUNS contiguous references, spread evenly over it.
# Runs, not a position stride: a stride of 4 sees one word of each 4-word
# burst, and which word depends on where the phase starts.
SAMPLE_REFS = 2500
SAMPLE_RUNS = 16


@dataclass(frozen=True)
class PhaseDetectorConfig:
    interval_len: int = 10_000
    stable_min: int = 5

    def __post_init__(self):
        if self.interval_len <= 0:
            raise ValueError("interval_len must be positive")
        if self.stable_min < 1:
            raise ValueError("stable_min must be >= 1")


def _sample(addresses) -> set:
    """The distinct addresses of the interval's sample: all of them up to
    2 * SAMPLE_REFS references, else those of the runs that start every
    n // SAMPLE_RUNS references."""
    n = len(addresses)
    if n <= 2 * SAMPLE_REFS:
        return set(addresses)
    sample = set()
    run = SAMPLE_REFS // SAMPLE_RUNS
    step = n // SAMPLE_RUNS
    for start in range(0, SAMPLE_RUNS * step, step):
        sample.update(addresses[start:start + run])
    return sample


def interval_signature(addresses) -> int:
    """OR of one bit per distinct 64-bit address of the interval's sample
    (see SAMPLE_REFS): the top SIG_BITS bits of its SplitMix64 finalizer
    hash, its low DROP_BITS dropped.

    The distinct addresses are hashed all at once, each in its own 128-bit
    lane of one int. A lane value below 2**64 times a 64-bit constant stays
    below 2**128, and every shifted term of the finalizer is masked back
    to the low halves, so no lane's bits reach another lane's value."""
    distinct = array("Q", _sample(addresses))
    n = len(distinct)
    lanes = array("Q", bytes(16 * n))
    lanes[::2] = distinct
    if _SWAP:
        lanes.byteswap()
    m = int.from_bytes(_LANE * n, "little")
    x = int.from_bytes(lanes, "little") >> DROP_BITS & m
    x ^= x >> 30 & m
    x = x * 0xBF58476D1CE4E5B9 & m
    x ^= x >> 27 & m
    # The finalizer's last step, x ^= x >> 31, leaves the top 31 bits as
    # they are, and a signature reads the top SIG_BITS of them. Shifted
    # down, they land in the low half of their lane; the high half, which
    # takes the next lane's low bits, is not read.
    x = (x * 0x94D049BB133111EB & m) >> 64 - SIG_BITS
    lanes = array("Q", x.to_bytes(16 * n, "little"))
    if _SWAP:
        lanes.byteswap()
    return reduce(or_, map((1).__lshift__, set(lanes[::2])), 0)


def signature_diff(a: int, b: int) -> float:
    """Jaccard distance of two bit-set signatures: popcount(XOR)/popcount(OR).

    Two empty signatures are defined as identical (0.0)."""
    union = a | b
    if union == 0:
        return 0.0
    return (a ^ b).bit_count() / union.bit_count()


class PhaseDetector:
    """Single-threaded interval classifier; feed it the addresses of each
    full interval and it returns that interval's phase id."""

    def __init__(self, config: PhaseDetectorConfig | None = None):
        self.config = config or PhaseDetectorConfig()
        self.table: list[int] = []  # cataloged signatures, index = phase id
        self._last_sig = 0
        self._stable = 0
        self._phase = -1

    def _similar(self, a: int, b: int) -> bool:
        return signature_diff(a, b) < THRESHOLD

    def observe_interval(self, addresses) -> int:
        """Close one full interval given its addresses; returns its phase
        id, -1 for an unstable, unclassified interval."""
        sig = interval_signature(addresses)
        if self._similar(sig, self._last_sig):
            self._stable += 1
            if self._stable >= self.config.stable_min and self._phase == -1:
                self.table.append(sig)
                self._phase = len(self.table) - 1
        else:
            self._stable = 0
            # The closest similar cataloged phase, the lowest id on ties, or -1.
            similar = [pid for pid, known in enumerate(self.table) if self._similar(sig, known)]
            self._phase = min(similar, key=lambda pid: signature_diff(sig, self.table[pid]),
                              default=-1)
        self._last_sig = sig
        return self._phase
