"""Statistical L1D models: training through `shadow_interval`, restricted
prediction through `predict_interval`, cost accounting."""
import random

import pytest

from swapsim.cache import DEFAULT_L1, CacheConfig
from swapsim.models import (
    NEAR,
    SWAP_KINDS,
    FixedHitRateModel,
    MarkovModel,
    ModelKind,
    make_model,
    model_hit_check_comparisons,
    model_size_bytes,
)
from oracles import FixedU

ADDR = 0x1040


def ctx(is_write=False, near=False):
    return is_write << 1 | (not near)


def train(model, stream):
    """Shadow-train `model` on one interval of (context, hit) pairs."""
    ctxs = bytes(c for c, _ in stream)
    model.shadow_interval(ctxs, bytes(not hit for _, hit in stream), ctxs.translate(NEAR))


def predict(model, c, rng):
    """`predict_interval` on a one-reference interval at context `c`, made
    near or far by the reference before it; True on a predicted hit."""
    return not model.predict_interval([c >> 1], [ADDR], -1 if c & 1 else ADDR, rng)


def markov(n, cells, last_state=None):
    """A chain of `n` states with `cells[(row, col)]` transitions counted."""
    m = MarkovModel(n)
    for (row, col), count in cells.items():
        m.counts[row * n + col] = count
    m.last_state = last_state
    return m


def test_near_far_classification():
    # Read counts that make every far read a hit and every near read a
    # miss, so the predicted misses are exactly the near accesses.
    m = markov(8, {(0, 1): 1,  # RM near
                   (0, 4): 1})  # RH far
    addrs = [0x100, 0x13F, 0x140, 0x141]  # far, same 64-byte line, far, near
    assert m.predict_interval(bytes(4), addrs, -1, random.Random(0)) == [1, 3]
    # The reference before the interval carries over.
    assert m.predict_interval(bytes(4), addrs, 0x100, random.Random(0)) == [0, 1, 3]


def test_fixed_rate_training_and_prediction():
    m = FixedHitRateModel()
    train(m, [(ctx(), hit) for hit in [True, True, True, False]])
    assert m.counts == [3, 1]
    assert predict(m, ctx(), FixedU(0.74)) is True
    assert predict(m, ctx(), FixedU(0.76)) is False


def test_fixed_rate_untrained_predicts_miss():
    m = FixedHitRateModel()
    assert predict(m, ctx(), FixedU(0.0)) is False


def test_fixed_rate_certain_hit():
    m = FixedHitRateModel()
    train(m, [(ctx(), True)])
    assert m.counts == [1, 0]
    rng = random.Random(0)
    assert all(predict(m, ctx(), rng) for _ in range(100))


def test_markov_state_encoding():
    # Hit state per context column (is_write << 1) | far.
    m = MarkovModel(4)
    assert m._hits[ctx(is_write=False, near=True)] == 0  # RH
    assert m._hits[ctx(is_write=True, near=True)] == 2  # WH
    assert m._hits[ctx(is_write=True, near=False)] == 2  # near/far ignored with 4 states
    m8 = MarkovModel(8)
    assert m8._hits[ctx(is_write=False, near=False)] == 4  # RH far
    assert m8._hits[ctx(is_write=True, near=False)] == 6  # WH far
    assert m8._hits[ctx(is_write=False, near=True)] == 0  # near keeps the low block
    # Training files each outcome under the hit state, + 1 for a miss.
    train(m8, [(ctx(is_write=True, near=False), False),  # WM far
               (ctx(is_write=False, near=True), False),  # RM near
               (ctx(is_write=False, near=False), True)])  # RH far
    assert m8.counts[7 * 8 + 1] == 1 and m8.counts[1 * 8 + 4] == 1


def test_markov_invalid_size():
    with pytest.raises(ValueError):
        MarkovModel(6)


def test_markov4_counts_from_alternating_stream():
    m = MarkovModel(4)
    train(m, [(ctx(), i % 2 == 0) for i in range(10)])  # RH, RM, RH, ...
    assert m.counts[0 * 4 + 1] == 5  # RH -> RM
    assert m.counts[1 * 4 + 0] == 4  # RM -> RH
    assert sum(m.counts) == 9  # first observation has no source


def test_markov4_restricted_renormalization_example():
    # From last state RM with counts {RH: 30, RM: 70} on a read, the
    # restricted hit probability is 0.3.
    m = markov(4, {(1, 0): 30, (1, 1): 70}, last_state=1)
    assert predict(m, ctx(is_write=False), FixedU(0.29)) is True
    m.last_state = 1
    assert predict(m, ctx(is_write=False), FixedU(0.31)) is False


def test_markov_restricted_pair_legality():
    # A prediction moves the chain only to the hit state or the miss state
    # (hit state + 1) legal for the request.
    for n, w, near, h in ((4, False, True, 0), (4, True, True, 2),
                          (8, False, True, 0), (8, True, False, 6)):
        m = markov(n, {(h, h): 1, (h, h + 1): 1}, last_state=h)
        assert m._hits[ctx(is_write=w, near=near)] == h
        assert predict(m, ctx(is_write=w, near=near), FixedU(0.4)) is True
        assert m.last_state == h
        assert predict(m, ctx(is_write=w, near=near), FixedU(0.6)) is False
        assert m.last_state == h + 1


def test_markov_prediction_updates_last_state():
    m = markov(4, {(0, 0): 1}, last_state=0)
    assert predict(m, ctx(), FixedU(0.5)) is True
    assert m.last_state == 0
    m = markov(4, {(0, 0): 1, (0, 1): 3}, last_state=m.last_state)
    assert predict(m, ctx(), FixedU(0.9)) is False
    assert m.last_state == 1


def test_markov_degenerate_falls_back_to_marginals():
    # Row WM has no read observations; the column marginals over (RH, RM)
    # decide instead, and the chain moves to the drawn state.
    m = markov(4, {(0, 0): 9, (0, 1): 1}, last_state=3)
    assert predict(m, ctx(is_write=False), FixedU(0.85)) is True
    assert m.last_state == 0


def test_markov_unseen_context_predicts_miss_and_stays():
    m = markov(4, {(0, 0): 5}, last_state=0)  # only read hits ever seen
    assert predict(m, ctx(is_write=True), FixedU(0.0)) is False
    assert m.last_state == 0  # chain not moved into an untrained state


def test_markov_hit_frequency_preserved():
    # Trained on a stream with a 70% hit rate and replayed against the
    # same context distribution, the chain's long-run hit frequency stays
    # within one percentage point.
    rng = random.Random(5)
    m = MarkovModel(4)
    train(m, [(ctx(is_write=rng.random() < 0.25), rng.random() < 0.7) for _ in range(20000)])
    hits = sum(predict(m, ctx(is_write=rng.random() < 0.25), rng) for _ in range(20000))
    assert abs(hits / 20000 - 0.7) < 0.01


def test_make_model_and_kinds():
    assert isinstance(make_model(ModelKind.FIXED_RATE), FixedHitRateModel)
    assert make_model(ModelKind.MARKOV4).n_states == 4
    assert make_model(ModelKind.MARKOV8).n_states == 8
    with pytest.raises(ValueError):
        make_model(ModelKind.BASE)


def test_size_and_complexity_accounting():
    assert model_size_bytes(ModelKind.BASE, DEFAULT_L1) == 8192
    assert model_size_bytes(ModelKind.FIXED_RATE, DEFAULT_L1) == 16
    assert model_size_bytes(ModelKind.MARKOV4, DEFAULT_L1) == 384
    assert model_size_bytes(ModelKind.MARKOV8, DEFAULT_L1) == 1536
    assert model_hit_check_comparisons(ModelKind.BASE, DEFAULT_L1) == 16
    assert model_hit_check_comparisons(ModelKind.FIXED_RATE, DEFAULT_L1) == 1
    assert model_hit_check_comparisons(ModelKind.MARKOV4, DEFAULT_L1) == 1
    assert model_hit_check_comparisons(ModelKind.MARKOV8, DEFAULT_L1) == 2
    small = CacheConfig(16 * 1024, 4, 64, 4)
    assert model_size_bytes(ModelKind.BASE, small) == 64 * 4 * 8
    assert model_hit_check_comparisons(ModelKind.BASE, small) == 8
    # `controller.select_best` breaks exact ties in SWAP_KINDS order, the smaller model first.
    assert SWAP_KINDS == tuple(sorted(SWAP_KINDS, key=lambda k: (
        model_size_bytes(k, DEFAULT_L1), model_hit_check_comparisons(k, DEFAULT_L1))))


def test_prediction_deterministic_under_seed():
    stream = []
    rng = random.Random(8)
    for _ in range(500):
        stream.append((rng.random() < 0.3, rng.random() < 0.8))
    out = []
    for _ in range(2):
        m = MarkovModel(8)
        r = random.Random(99)
        train(m, [(ctx(w, near=True), hit) for w, hit in stream])
        out.append([predict(m, ctx(w, near=True), r) for w, _ in stream])
    assert out[0] == out[1]
