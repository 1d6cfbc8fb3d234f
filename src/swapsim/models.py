"""Statistical L1D approximations: fixed hit rate, 4-state and 8-state
Markov chains with restricted prediction.

All three share the train-on-observation / predict-hit interface. They
predict a whole interval at once with `predict_interval` while swapped
in, which matches `predict` applied one reference at a time. They
shadow-train on a run of references at once with `shadow_interval`,
which matches `train` one reference at a time and returns the expected
counts of `predict` before each `train`, summed in reference order with
no draw. With p the hit probability `predict` draws against, a reference
adds p to the correct predictions at a detailed hit and 1 - p at a miss,
and 1 - p to the near misses if it is near. The Markov chains keep
transition counts as the source of truth; the compiled prediction table
is derived from them and rebuilt after training.
"""
from __future__ import annotations

import enum
import sys
from array import array

from .cache import CacheConfig

# An access is near when it touches the same 64 B line as the previous
# one; the granularity is fixed, independent of cache geometry.
NEAR_LINE_SHIFT = 6

# Maps an op byte (0 read, 1 write) to its write bit in a context column.
_WRITE_BIT = bytes.maketrans(b"\x01", b"\x02")
# Maps byte 0 of an address to its bits 6-7, the part of it in the line.
_LINE_BITS = bytes(b >> NEAR_LINE_SHIFT for b in range(256))
# Maps every nonzero byte to 1.
_ONE = bytes((0,)) + bytes((1,)) * 255
# Maps a context column to 1 if its reference is near (far bit clear).
NEAR = bytes.maketrans(bytes(range(4)), bytes((1, 0, 1, 0)))
_SWAP = sys.byteorder == "big"  # planes are read from little-endian bytes


class ModelKind(enum.Enum):
    BASE = "base"
    FIXED_RATE = "fixed-rate"
    MARKOV4 = "markov4"
    MARKOV8 = "markov8"


# Smallest model first: `scoring.select_best` breaks score ties in this order.
SWAP_KINDS = (ModelKind.FIXED_RATE, ModelKind.MARKOV4, ModelKind.MARKOV8)


def contexts(ops, addresses, prev_address: int) -> bytes:
    """The access context of every reference of an interval: its column
    `(is_write << 1) | far` of the compiled Markov table, where far means
    another 64 B line than the reference before. `prev_address` is the
    address before the interval; -1 (whose line is -1) makes the first
    reference far.

    A reference is far when `(a[i] ^ a[i-1]) >> 6 != 0`. That is computed
    one byte plane at a time: plane j holds byte j of every address (plane
    0 only its bits 6-7), read as one little-endian int and XORed with
    itself shifted up one byte, the predecessor's byte shifted in. A plane
    constant over the interval and its predecessor adds nothing and is
    skipped. The ORed planes have a nonzero byte exactly at the far
    references; the far bytes (0 or 1) and the write bytes (0 or 2) are
    ORed as two little-endian ints, so no bit carries between bytes."""
    n = len(addresses)
    # -1 differs from every line: the first reference is far whatever its
    # own bytes, which then stand in as its predecessor's.
    far = int(prev_address < 0)
    if far and n:
        prev_address = addresses[0]
    # An array("Q") slice, as the simulation passes, is read without a copy.
    a = addresses if isinstance(addresses, array) else array("Q", addresses)
    if _SWAP:
        a = array("Q", a)
        a.byteswap()
    raw = a.tobytes()
    for j in range(8):
        plane = raw[j::8]
        b = prev_address >> 8 * j & 0xFF
        if not j:
            plane = plane.translate(_LINE_BITS)
            b >>= NEAR_LINE_SHIFT
        if plane.count(b) != n:
            x = int.from_bytes(plane, "little")
            far |= x ^ (x << 8 | b)
    far = int.from_bytes(far.to_bytes(n + 1, "little")[:n].translate(_ONE), "little")
    write = int.from_bytes(bytes(ops).translate(_WRITE_BIT), "little")
    return (far | write).to_bytes(n, "little")


def _pair_p(counts, n: int, cell: int) -> float:
    """Restricted hit probability of the pair `(cell, cell + 1)` of counts
    flattened from `n` columns; -1.0 when neither column was ever seen."""
    a, b = counts[cell], counts[cell + 1]
    if a + b:
        return a / (a + b)
    # Degenerate pair: neither legal state was ever reached from this row,
    # so the row carries no information about this context. Fall back to
    # the column marginals, the model's aggregate behavior for the
    # context; conditioning on the row alone would strand the chain in
    # untrained states.
    ch, cm = sum(counts[cell % n::n]), sum(counts[cell % n + 1::n])
    return ch / (ch + cm) if ch + cm else -1.0


def _shadow_sums(counts, n, cells, tos, near, correct, near_misses) -> tuple[float, float]:
    """The shadow loop of every candidate. Reference i predicts from the
    pair at `cells[i]` of counts flattened from `n` columns, p `_pair_p`'s
    clamped at 0; adds p to `correct` at a hit (`tos[i] == cells[i]`) and
    1 - p at a miss and to `near_misses` if near; then bumps `tos[i]`."""
    for cell, to, is_near in zip(cells, tos, near):
        a = counts[cell]
        try:
            p = a / (a + counts[cell + 1])
        except ZeroDivisionError:
            p = max(_pair_p(counts, n, cell), 0.0)
        correct += p if to == cell else 1.0 - p
        if is_near:
            near_misses += 1.0 - p
        counts[to] += 1
    return correct, near_misses


class FixedHitRateModel:
    """Counts hits and misses during training; predicts hit with the
    observed rate. Untrained, it predicts miss."""

    __slots__ = ("hit_count", "total_count", "hit_rate")

    def __init__(self):
        self.hit_count = 0
        self.total_count = 0
        self.hit_rate = 0.0

    def train(self, ctx: int, hit: bool) -> None:
        self.total_count += 1
        if hit:
            self.hit_count += 1
        self.hit_rate = self.hit_count / self.total_count

    def predict(self, ctx: int, rng) -> bool:
        return rng.random() < self.hit_rate

    def predict_interval(self, ops, addresses, prev_address: int, rng) -> list[int]:
        """Predict every reference of an interval, one draw each; returns
        the positions predicted to miss."""
        rand = rng.random
        p = self.hit_rate
        return [i for i in range(len(addresses)) if not rand() < p]

    def shadow_interval(self, ctxs: bytes, miss, near) -> tuple[float, float]:
        """`_shadow_sums` on a one-row chain `[hits, misses]`: each reference
        predicts from cell 0, its p the rate `train` leaves, 0 untrained,
        and bumps the cell its miss byte names."""
        counts = [self.hit_count, self.total_count - self.hit_count]
        sums = _shadow_sums(counts, 2, bytes(len(miss)), miss, near, 0.0, 0.0)
        self.hit_count, self.total_count = counts[0], counts[0] + counts[1]
        self.hit_rate = self.hit_count / self.total_count if self.total_count else 0.0
        return sums


# State encoding: bit 1 = write, bit 0 = miss, giving RH=0, RM=1, WH=2,
# WM=3. The 8-state model adds +4 for far accesses. `_HIT_STATES[n][ctx]`
# is the hit state legal for context column `ctx` in an n-state chain; its
# miss state is one above.
_HIT_STATES = {4: (0, 0, 2, 2), 8: (0, 4, 2, 6)}

# Per chain size, two translate tables for `shadow_interval`: a context
# column to its hit state, and a state to the first cell of its row in the
# flattened counts.
_SHADOW_TABLES = {n: (bytes(hits).ljust(256, b"\0"), bytes(range(0, n * n, n)).ljust(256, b"\0"))
                  for n, hits in _HIT_STATES.items()}


class MarkovModel:
    """Transition-count Markov chain over cache access outcomes.

    Prediction is restricted to the pair of states legal for the incoming
    request (read/write, and near/far for 8 states), renormalized over
    that pair, and resolved with one uniform draw.
    """

    __slots__ = ("n_states", "counts", "last_state", "_table", "_hits")

    def __init__(self, n_states: int):
        if n_states not in (4, 8):
            raise ValueError("n_states must be 4 or 8")
        self.n_states = n_states
        self.counts = [[0] * n_states for _ in range(n_states)]
        self.last_state = None
        self._table: list[float] | None = None
        self._hits = _HIT_STATES[n_states]

    def train(self, ctx: int, hit: bool) -> None:
        s = self._hits[ctx] + (0 if hit else 1)
        if self.last_state is not None:
            self.counts[self.last_state][s] += 1
            self._table = None
        self.last_state = s

    def _p_hit(self, row_state: int, h: int) -> float:
        """`_pair_p` of the pair (h, h + 1) from `row_state`."""
        n = self.n_states
        return _pair_p([x for row in self.counts for x in row], n, row_state * n + h)

    def predict(self, ctx: int, rng) -> bool:
        h = self._hits[ctx]
        p_hit = self._p_hit(self.last_state if self.last_state is not None else h, h)
        if p_hit < 0.0:
            # Context never observed at all: predict miss, let the
            # detailed L2 resolve it, and keep the chain where it is.
            return False
        if rng.random() < p_hit:
            self.last_state = h
            return True
        self.last_state = h + 1
        return False

    def _compiled(self) -> list[float]:
        """`_p_hit` for every row and context, flattened: entry
        `(row << 2) | (is_write << 1) | far`, where row `n_states` stands
        for "no last state" and predicts from the context's hit state."""
        if self._table is None:
            self._table = [self._p_hit(row if row < self.n_states else h, h)
                           for row in range(self.n_states + 1) for h in self._hits]
        return self._table

    def predict_interval(self, ops, addresses, prev_address: int, rng) -> list[int]:
        """Predict every reference of an interval as `predict` would, from
        the compiled table; returns the positions predicted to miss.
        `prev_address` is the reference before the interval (-1 for none)."""
        table = self._compiled()
        # The state is held as the offset of its row in the table.
        hit_row = [h << 2 for h in self._hits]
        miss_row = [h + 1 << 2 for h in self._hits]
        none = self.n_states << 2
        r = none if self.last_state is None else self.last_state << 2
        rand = rng.random
        misses = []
        for i, ctx in enumerate(contexts(ops, addresses, prev_address)):
            p_hit = table[r | ctx]
            if p_hit < 0.0:
                misses.append(i)  # unseen context: miss, no draw, state kept
            elif rand() < p_hit:
                r = hit_row[ctx]
            else:
                r = miss_row[ctx]
                misses.append(i)
        self.last_state = None if r == none else r >> 2
        return misses

    def shadow_interval(self, ctxs: bytes, miss, near) -> tuple[float, float]:
        """The expected correct predictions and near misses of an interval,
        `miss` holding the detailed L1's outcomes (1 miss, 0 hit) and `near`
        1 at each near reference, summed by `_shadow_sums`.

        After every `train`, `last_state` is the true state, so the true
        states alone fix which row each reference predicts from: the
        previous reference's. Its `train` then counts a transition from
        that same row into the same column pair, so one reference reads
        and bumps one cell of the flattened counts, `row * n + h`."""
        n = self.n_states
        k = len(ctxs)
        if not k:
            return 0.0, 0.0
        hit_states, row_cells = _SHADOW_TABLES[n]
        h = int.from_bytes(ctxs.translate(hit_states), "little")
        m = int.from_bytes(miss, "little")
        states = (h | m).to_bytes(k, "little")
        rows = bytes((self.last_state or 0,)) + states[:-1]
        cells = int.from_bytes(rows.translate(row_cells), "little") | h
        counts = [x for row in self.counts for x in row]
        # A fresh chain's first reference has p = 0 and counts no transition.
        start = int(self.last_state is None)
        first = (float(miss[0]), float(near[0])) if start else (0.0, 0.0)
        correct, near_misses = _shadow_sums(counts, n, cells.to_bytes(k, "little")[start:],
                                            (cells | m).to_bytes(k, "little")[start:],
                                            near[start:], *first)
        self.counts = [counts[r:r + n] for r in range(0, n * n, n)]
        self.last_state = states[-1]
        self._table = None
        return correct, near_misses


def make_model(kind: ModelKind):
    if kind is ModelKind.FIXED_RATE:
        return FixedHitRateModel()
    if kind is ModelKind.MARKOV4:
        return MarkovModel(4)
    if kind is ModelKind.MARKOV8:
        return MarkovModel(8)
    raise ValueError(f"no swappable model for {kind}")


def model_size_bytes(kind: ModelKind, base_config: CacheConfig) -> int:
    """Storage cost of a model. The base cache's cost is its tag array of
    8-byte tags. A Markov chain counts as three NxN matrices of 8-byte
    values: the paper's storage accounting, which criterion 1 of the
    acceptance suite pins, not the memory this code uses."""
    if kind is ModelKind.BASE:
        return base_config.set_count * base_config.associativity * 8
    if kind is ModelKind.FIXED_RATE:
        return 16  # 8 B hit count + 8 B hit rate
    n = 4 if kind is ModelKind.MARKOV4 else 8
    return 3 * n * n * 8


def model_hit_check_comparisons(kind: ModelKind, base_config: CacheConfig) -> int:
    """Comparisons per hit check: the base cache scans its ways twice
    (search + eviction), the restricted Markov prediction needs one draw
    comparison, plus a near/far check for the 8-state model."""
    if kind is ModelKind.BASE:
        return 2 * base_config.associativity
    if kind is ModelKind.MARKOV8:
        return 2
    return 1

