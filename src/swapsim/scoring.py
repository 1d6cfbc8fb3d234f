"""Model-quality scoring: the 4-element score vector and its L2 distance
from the ideal [1, 1, 0, 0]. Lower distances are better.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .cache import CacheConfig
from .models import SWAP_KINDS, ModelKind, model_hit_check_comparisons, model_size_bytes

IDEAL_VECTOR = (1.0, 1.0, 0.0, 0.0)
# A candidate competes on distance only if its accuracy is within this of
# the best candidate's (a departure from the paper; see the README).
ACCURACY_GATE = 0.02


class ScoreVector(NamedTuple):
    accuracy: float
    near_miss_ratio: float
    size_fraction: float
    complexity_fraction: float

    def distance_from_ideal(self) -> float:
        return math.sqrt(math.fsum((v - i) ** 2 for v, i in zip(self, IDEAL_VECTOR)))


def near_miss_ratio(model_near_misses: float, base_near_misses: int, refs: int) -> float:
    """Model near misses over base near misses. A zero base count is
    treated as ratio 1 when the model also produced none, otherwise
    1 + model_near_misses/refs so spurious near misses are penalized
    boundedly instead of dividing by zero."""
    if base_near_misses == 0:
        if model_near_misses == 0:
            return 1.0
        return 1.0 + model_near_misses / refs
    return model_near_misses / base_near_misses


def score(refs: int, base_near_misses: int, sums: tuple[float, float], kind: ModelKind,
          base_config: CacheConfig) -> ScoreVector:
    """Score a candidate shadowed over `refs` references at which the
    detailed L1 made `base_near_misses` near misses. `sums` holds the
    candidate's expected correct predictions and near misses."""
    if refs == 0:
        raise ValueError("cannot score a model with no shadow predictions")
    correct, model_near_misses = sums
    return ScoreVector(
        accuracy=correct / refs,
        near_miss_ratio=near_miss_ratio(model_near_misses, base_near_misses, refs),
        size_fraction=model_size_bytes(kind, base_config)
        / model_size_bytes(ModelKind.BASE, base_config),
        complexity_fraction=model_hit_check_comparisons(kind, base_config)
        / model_hit_check_comparisons(ModelKind.BASE, base_config),
    )


def select_best(vectors: dict[ModelKind, ScoreVector]) -> ModelKind:
    """The kind nearest the ideal among those within ACCURACY_GATE of the best
    accuracy; exact ties go to the smaller model, the earlier in `SWAP_KINDS`."""
    if not vectors:
        raise ValueError("no scored models to select from")
    best = max(v.accuracy for v in vectors.values())
    return min((k for k, v in vectors.items() if best - v.accuracy <= ACCURACY_GATE),
               key=lambda k: (vectors[k].distance_from_ideal(), SWAP_KINDS.index(k)))
