"""Score vectors, scalar distance and model selection."""
import math

import pytest

from swapsim.cache import DEFAULT_L1
from swapsim.models import ModelKind
from swapsim.scoring import (
    ACCURACY_GATE,
    IDEAL_VECTOR,
    ScoreVector,
    near_miss_ratio,
    score,
    select_best,
)


def test_near_miss_ratio_paths():
    assert near_miss_ratio(4, 8, 10) == 0.5
    assert near_miss_ratio(0, 0, 10) == 1.0
    # zero base near misses but spurious model ones: penalized above 1
    assert near_miss_ratio(5, 0, 10) == 1.5


def test_ideal_vector_scores_zero():
    v = ScoreVector(1.0, 1.0, 0.0, 0.0)
    assert v == IDEAL_VECTOR
    assert v.distance_from_ideal() == 0.0


def test_all_ones_vector_scores_sqrt2():
    assert ScoreVector(1.0, 1.0, 1.0, 1.0).distance_from_ideal() == pytest.approx(math.sqrt(2))


def test_score_vector_composition():
    # 100 references, 4 detailed near misses; 75 expected correct
    # predictions and 3 expected near misses.
    vec = score(100, 4, (75.0, 3.0), ModelKind.MARKOV4, DEFAULT_L1)
    assert vec == (0.75, 0.75, 384 / 8192, 1 / 16)
    assert vec.accuracy == 0.75
    assert vec.near_miss_ratio == 0.75
    assert vec.size_fraction == 384 / 8192
    assert vec.complexity_fraction == 1 / 16
    assert vec.distance_from_ideal() > 0


def test_score_requires_predictions():
    with pytest.raises(ValueError):
        score(0, 0, (0.0, 0.0), ModelKind.FIXED_RATE, DEFAULT_L1)


def test_trivial_phase_prefers_fixed_rate():
    # On an always-hit phase every model is perfectly accurate, so the
    # smaller, simpler model must win on size and complexity alone.
    vectors = {kind: score(10_000, 0, (10_000.0, 0.0), kind, DEFAULT_L1)
               for kind in (ModelKind.FIXED_RATE, ModelKind.MARKOV4, ModelKind.MARKOV8)}
    scores = {k: v.distance_from_ideal() for k, v in vectors.items()}
    assert select_best(vectors) is ModelKind.FIXED_RATE
    assert scores[ModelKind.FIXED_RATE] < scores[ModelKind.MARKOV4] < scores[ModelKind.MARKOV8]


def at(distance):
    """A perfectly accurate vector at `distance` from the ideal."""
    return ScoreVector(1.0, 1.0, distance, 0.0)


def test_select_best_argmin_and_ties():
    assert select_best({ModelKind.FIXED_RATE: at(0.9), ModelKind.MARKOV8: at(0.2)}) \
        is ModelKind.MARKOV8
    tie = {ModelKind.MARKOV8: at(0.4), ModelKind.FIXED_RATE: at(0.4), ModelKind.MARKOV4: at(0.4)}
    assert select_best(tie) is ModelKind.FIXED_RATE
    with pytest.raises(ValueError):
        select_best({})


def test_select_best_ignores_dominated_model():
    base = {ModelKind.MARKOV8: at(0.3), ModelKind.FIXED_RATE: at(0.5)}
    with_dominated = {**base, ModelKind.MARKOV4: at(0.9)}
    assert select_best(base) is select_best(with_dominated)


def test_select_best_gates_on_accuracy():
    # locality seed 1's vector-add phase at a 64 B L1 line: markov4 is
    # nearer the ideal but 7.7 pp less accurate, so markov8 is chosen.
    m8 = ScoreVector(0.9999, 1.0001, 0.375, 0.125)
    m4 = ScoreVector(0.9231, 1.0384, 0.0938, 0.0625)
    assert m4.distance_from_ideal() < m8.distance_from_ideal()
    assert select_best({ModelKind.MARKOV4: m4, ModelKind.MARKOV8: m8}) is ModelKind.MARKOV8
    # Within the gate of the best accuracy, distance decides again.
    near = m4._replace(accuracy=m8.accuracy - ACCURACY_GATE / 2)
    assert select_best({ModelKind.MARKOV4: near, ModelKind.MARKOV8: m8}) is ModelKind.MARKOV4
    # Exact ties among gated-in vectors still go to the smaller model.
    tie = {ModelKind.MARKOV8: m8, ModelKind.MARKOV4: m8, ModelKind.FIXED_RATE: m4}
    assert select_best(tie) is ModelKind.MARKOV4
