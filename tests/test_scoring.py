"""Score vectors, scalar distance and model selection."""
import math
import random

import pytest

from swapsim.cache import DEFAULT_L1
from swapsim.models import ModelKind
from swapsim.scoring import (
    IDEAL_VECTOR,
    ScoreVector,
    ShadowStats,
    near_miss_ratio,
    score,
    select_best,
)


def test_record_shadow_counting():
    s = ShadowStats()
    # The model's expected counts are added as they are; the base's near
    # misses are the near references that missed: only the third here.
    s.add_interval(2.5, 1.25, hit=[1, 1, 0, 0], near=[1, 1, 1, 0])
    assert s.total_predictions == 4
    assert s.correct_predictions == 2.5
    assert s.model_near_misses == 1.25
    assert s.base_near_misses == 1


def test_record_shadow_bulk_recount():
    rng = random.Random(11)
    s = ShadowStats()
    events = [(rng.random(), rng.random() < 0.7, rng.random() < 0.5) for _ in range(10_000)]
    # Two intervals in the byte form the controller passes, with their
    # expected counts summed in reference order: the counters add up.
    want_correct = want_near = 0.0
    for part in (events[:3_000], events[3_000:]):
        correct = near_misses = 0.0
        for p, a, n in part:
            correct += p if a else 1.0 - p
            if n:
                near_misses += 1.0 - p
        a, n = (bytes(column) for column in list(zip(*part))[1:])
        s.add_interval(correct, near_misses, bytearray(a), n)
        want_correct += correct
        want_near += near_misses
    assert s.total_predictions == len(events)
    assert s.correct_predictions == want_correct
    assert s.model_near_misses == want_near
    assert s.base_near_misses == sum((not a) and n for _, a, n in events)


def test_near_miss_ratio_paths():
    assert near_miss_ratio(ShadowStats(0, 10, 4, 8)) == 0.5
    assert near_miss_ratio(ShadowStats(0, 10, 0, 0)) == 1.0
    # zero base near misses but spurious model ones: penalized above 1
    assert near_miss_ratio(ShadowStats(0, 10, 5, 0)) == 1.5


def test_ideal_vector_scores_zero():
    v = ScoreVector(1.0, 1.0, 0.0, 0.0)
    assert v == IDEAL_VECTOR
    assert v.distance_from_ideal() == 0.0


def test_all_ones_vector_scores_sqrt2():
    assert ScoreVector(1.0, 1.0, 1.0, 1.0).distance_from_ideal() == pytest.approx(math.sqrt(2))


def test_score_vector_composition():
    stats = ShadowStats(correct_predictions=75, total_predictions=100,
                        model_near_misses=3, base_near_misses=4)
    vec = score(stats, ModelKind.MARKOV4, DEFAULT_L1)
    assert vec == (0.75, 0.75, 384 / 8192, 1 / 16)
    assert vec.accuracy == 0.75
    assert vec.near_miss_ratio == 0.75
    assert vec.size_fraction == 384 / 8192
    assert vec.complexity_fraction == 1 / 16
    assert vec.distance_from_ideal() > 0


def test_score_requires_predictions():
    with pytest.raises(ValueError):
        score(ShadowStats(), ModelKind.FIXED_RATE, DEFAULT_L1)


def test_trivial_phase_prefers_fixed_rate():
    # On an always-hit phase every model is perfectly accurate, so the
    # smaller, simpler model must win on size and complexity alone.
    perfect = ShadowStats(10_000, 10_000, 0, 0)
    scores = {}
    for kind in (ModelKind.FIXED_RATE, ModelKind.MARKOV4, ModelKind.MARKOV8):
        scores[kind] = score(perfect, kind, DEFAULT_L1).distance_from_ideal()
    assert select_best(scores) is ModelKind.FIXED_RATE
    assert scores[ModelKind.FIXED_RATE] < scores[ModelKind.MARKOV4] < scores[ModelKind.MARKOV8]


def test_select_best_argmin_and_ties():
    assert select_best({ModelKind.FIXED_RATE: 0.9, ModelKind.MARKOV8: 0.2}) is ModelKind.MARKOV8
    tie = {ModelKind.MARKOV8: 0.4, ModelKind.FIXED_RATE: 0.4, ModelKind.MARKOV4: 0.4}
    assert select_best(tie) is ModelKind.FIXED_RATE
    with pytest.raises(ValueError):
        select_best({})


def test_select_best_ignores_dominated_model():
    base = {ModelKind.MARKOV8: 0.3, ModelKind.FIXED_RATE: 0.5}
    with_dominated = {**base, ModelKind.MARKOV4: 0.9}
    assert select_best(base) is select_best(with_dominated)
