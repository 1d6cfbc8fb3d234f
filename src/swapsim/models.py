"""Statistical L1D approximations: fixed hit rate, 4-state and 8-state
Markov chains with restricted prediction.

Each model has one runtime path per role. While swapped in,
`predict_interval` predicts a whole interval, one draw per reference
against the hit probability p of the reference's restricted pair. While
its phase trains, `shadow_interval` runs it beside the detailed L1's
outcomes: a reference adds p to the expected correct predictions at a
detailed hit and 1 - p at a miss, and 1 - p to the near misses if it is
near, with no draw; then it counts the reference's outcome. Every model
keeps its counts as one flat row-major list, `row * n + col`, the
layout `_pair_p` and `_shadow_sums` read: fixed-rate is the one-row
chain `[hits, misses]`, and a Markov chain's counts are the source of
truth for its compiled prediction table, rebuilt after training.
"""
from __future__ import annotations

import enum
import sys
from array import array
from functools import partial

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
    """Restricted hit probability of the pair `(cell, cell + 1)` of
    row-major counts of `n` columns; -1.0 when neither column was ever seen."""
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
    pair at `cells[i]` of row-major counts of `n` columns, p `_pair_p`'s
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
    """A one-row chain `[hits, misses]` of the detailed L1's outcomes:
    predicts hit with the observed rate. Untrained, it predicts miss."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = [0, 0]

    def predict_interval(self, ops, addresses, prev_address: int, rng) -> list[int]:
        """Predict every reference of an interval, one draw each; returns
        the positions predicted to miss."""
        rand = rng.random
        p = max(_pair_p(self.counts, 2, 0), 0.0)
        return [i for i in range(len(addresses)) if not rand() < p]

    def shadow_interval(self, ctxs: bytes, miss, near) -> tuple[float, float]:
        """`_shadow_sums` on the one-row chain: each reference predicts from
        cell 0, its p the rate before it, 0 untrained, and bumps the cell
        its miss byte names."""
        return _shadow_sums(self.counts, 2, bytes(len(miss)), miss, near, 0.0, 0.0)


# State encoding: bit 1 = write, bit 0 = miss, giving RH=0, RM=1, WH=2,
# WM=3. The 8-state model adds +4 for far accesses. `_HIT_STATES[n][ctx]`
# is the hit state legal for context column `ctx` in an n-state chain; its
# miss state is one above.
_HIT_STATES = {4: (0, 0, 2, 2), 8: (0, 4, 2, 6)}

# Per chain size, two translate tables for `shadow_interval`: a context
# column to its hit state, and a state to the first cell of its row.
_SHADOW_TABLES = {n: (bytes(hits).ljust(256, b"\0"), bytes(range(0, n * n, n)).ljust(256, b"\0"))
                  for n, hits in _HIT_STATES.items()}


class MarkovModel:
    """Transition-count Markov chain over cache access outcomes.

    Prediction is restricted to the pair of states legal for the incoming
    request (read/write, and near/far for 8 states), renormalized over
    that pair, and resolved with one uniform draw. `counts[row * n + col]`
    counts the transitions from state `row` to state `col`.
    """

    __slots__ = ("n_states", "counts", "last_state", "_table", "_hits")

    def __init__(self, n_states: int):
        if n_states not in (4, 8):
            raise ValueError("n_states must be 4 or 8")
        self.n_states = n_states
        self.counts = [0] * (n_states * n_states)
        self.last_state = None
        self._table: list[float] | None = None
        self._hits = _HIT_STATES[n_states]

    def _compiled(self) -> list[float]:
        """`_pair_p` of every row and context, flattened: entry
        `(row << 2) | (is_write << 1) | far`, where row `n_states` stands
        for "no last state" and predicts from the context's hit state."""
        if self._table is None:
            n = self.n_states
            self._table = [_pair_p(self.counts, n, (row if row < n else h) * n + h)
                           for row in range(n + 1) for h in self._hits]
        return self._table

    def predict_interval(self, ops, addresses, prev_address: int, rng) -> list[int]:
        """Predict every reference of an interval from the compiled table,
        moving the chain to each drawn state; returns the positions predicted
        to miss. `prev_address` is the reference before the interval (-1 for none)."""
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

        Each reference predicts from the row of the true state before it
        and then counts a transition from that row into the same column
        pair, so one reference reads and bumps one cell, `row * n + h`;
        `last_state` ends on the interval's last true state."""
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
        # A fresh chain's first reference has p = 0 and counts no transition.
        start = int(self.last_state is None)
        first = (float(miss[0]), float(near[0])) if start else (0.0, 0.0)
        correct, near_misses = _shadow_sums(self.counts, n, cells.to_bytes(k, "little")[start:],
                                            (cells | m).to_bytes(k, "little")[start:],
                                            near[start:], *first)
        self.last_state = states[-1]
        self._table = None
        return correct, near_misses


# Per swappable kind, smallest first (`controller.select_best` breaks score
# ties in this order): constructor, the paper's storage bytes (hit count
# and rate; three NxN matrices of 8 B values) and comparisons per hit check.
_SWAPPABLE = {
    ModelKind.FIXED_RATE: (FixedHitRateModel, 16, 1),
    ModelKind.MARKOV4: (partial(MarkovModel, 4), 3 * 4 * 4 * 8, 1),
    ModelKind.MARKOV8: (partial(MarkovModel, 8), 3 * 8 * 8 * 8, 2),
}
SWAP_KINDS = tuple(_SWAPPABLE)


def make_model(kind: ModelKind):
    if kind not in _SWAPPABLE:
        raise ValueError(f"no swappable model for {kind}")
    return _SWAPPABLE[kind][0]()


def model_size_bytes(kind: ModelKind, base_config: CacheConfig) -> int:
    """Storage cost of a model: the base cache's tag array of 8-byte tags,
    or its `_SWAPPABLE` row. The paper's accounting, which criterion 1 of
    the acceptance suite pins, not the memory this code uses."""
    if kind is ModelKind.BASE:
        return base_config.set_count * base_config.associativity * 8
    return _SWAPPABLE[kind][1]


def model_hit_check_comparisons(kind: ModelKind, base_config: CacheConfig) -> int:
    """Comparisons per hit check: the base cache scans its ways twice
    (search + eviction); a swapped model one draw, plus near/far for 8 states."""
    if kind is ModelKind.BASE:
        return 2 * base_config.associativity
    return _SWAPPABLE[kind][2]
