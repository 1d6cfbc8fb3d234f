"""Model-quality scoring: the 4-element score vector and its L2 distance
from the ideal [1, 1, 0, 0]. Lower scalar scores are better.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .cache import CacheConfig
from .models import SWAP_KINDS, ModelKind, model_hit_check_comparisons, model_size_bytes

IDEAL_VECTOR = (1.0, 1.0, 0.0, 0.0)


@dataclass
class ShadowStats:
    """Counters accumulated while a candidate model runs alongside the
    detailed model during training intervals. The model's correct
    predictions and near misses are expected values, float sums."""

    correct_predictions: float = 0.0
    total_predictions: int = 0
    model_near_misses: float = 0.0
    base_near_misses: int = 0

    def add_interval(self, correct: float, model_near_misses: float, hit, near) -> None:
        """Count one interval: the model's expected counts, and per reference
        the detailed outcome (1 hit, 0 miss) and whether it was near (1) or
        far (0), each column read as one int of 0/1 bytes."""
        h, nr = (int.from_bytes(column, "little") for column in (hit, near))
        self.total_predictions += len(hit)
        self.correct_predictions += correct
        self.model_near_misses += model_near_misses
        self.base_near_misses += nr.bit_count() - (h & nr).bit_count()


class ScoreVector(NamedTuple):
    accuracy: float
    near_miss_ratio: float
    size_fraction: float
    complexity_fraction: float

    def distance_from_ideal(self) -> float:
        return math.sqrt(math.fsum((v - i) ** 2 for v, i in zip(self, IDEAL_VECTOR)))


def near_miss_ratio(stats: ShadowStats) -> float:
    """Model near misses over base near misses. A zero base count is
    treated as ratio 1 when the model also produced none, otherwise
    1 + model_near_misses/total so spurious near misses are penalized
    boundedly instead of dividing by zero."""
    if stats.base_near_misses == 0:
        if stats.model_near_misses == 0:
            return 1.0
        return 1.0 + stats.model_near_misses / stats.total_predictions
    return stats.model_near_misses / stats.base_near_misses


def score(stats: ShadowStats, kind: ModelKind, base_config: CacheConfig) -> ScoreVector:
    if stats.total_predictions == 0:
        raise ValueError("cannot score a model with no shadow predictions")
    return ScoreVector(
        accuracy=stats.correct_predictions / stats.total_predictions,
        near_miss_ratio=near_miss_ratio(stats),
        size_fraction=model_size_bytes(kind, base_config)
        / model_size_bytes(ModelKind.BASE, base_config),
        complexity_fraction=model_hit_check_comparisons(kind, base_config)
        / model_hit_check_comparisons(ModelKind.BASE, base_config),
    )


def select_best(scores: dict[ModelKind, float]) -> ModelKind:
    """Argmin over scalar scores; exact ties go to the smaller model, the
    earlier one in `SWAP_KINDS`."""
    if not scores:
        raise ValueError("no scored models to select from")
    return min(scores, key=lambda k: (scores[k], SWAP_KINDS.index(k)))
