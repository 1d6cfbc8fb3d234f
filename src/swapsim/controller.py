"""Per-phase swap state machine: shadow-train candidate models when a
phase is discovered, score them after the training budget, and swap the
best one into the L1D slot for all future intervals of that phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .cache import CacheConfig, Hierarchy
from .metrics import IntervalRecord
from .models import (NEAR, SWAP_KINDS, ModelKind, contexts, make_model,
                     model_hit_check_comparisons, model_size_bytes)

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


@dataclass(frozen=True)
class ControllerConfig:
    train_intervals: int = 2
    candidate_kinds: tuple[ModelKind, ...] = SWAP_KINDS

    def __post_init__(self):
        if self.train_intervals < 1:
            raise ValueError("train_intervals must be >= 1")
        if not self.candidate_kinds:
            raise ValueError("need at least one candidate model kind")
        if len(set(self.candidate_kinds)) != len(self.candidate_kinds):
            raise ValueError("candidate model kinds must be distinct")
        for kind in self.candidate_kinds:
            if kind not in SWAP_KINDS:
                raise ValueError(f"no swappable model for {kind!r}")


class PhaseModelState:
    """Everything the controller knows about one cataloged phase."""

    __slots__ = ("intervals_trained", "models", "refs", "base_near_misses", "shadow", "chosen",
                 "score_vectors")

    def __init__(self, kinds):
        self.intervals_trained = 0
        self.models = {k: make_model(k) for k in kinds}
        # The detailed L1's shadowed references and near misses, once per
        # phase; per candidate, its expected correct predictions and near misses.
        self.refs = self.base_near_misses = 0
        self.shadow = {k: (0.0, 0.0) for k in kinds}
        self.chosen: ModelKind | None = None  # the phase trains until this is set
        self.score_vectors: dict[ModelKind, ScoreVector] = {}


@dataclass(frozen=True)
class Directive:
    """What the L1D slot does for one interval."""

    phase_id: int  # the phase the detector labeled this interval; -1 none
    swapped_kind: ModelKind | None  # None means run the detailed base model

    @property
    def training(self) -> bool:
        """Shadow-train phase_id's candidates: its phase has no model yet."""
        return self.phase_id >= 0 and self.swapped_kind is None


class SwapController:
    """Owns the L1D slot of a hierarchy. For each interval, pass the
    detector's label and the references to run_interval, then the
    interval's record to on_interval_end."""

    def __init__(self, hierarchy: Hierarchy, config: ControllerConfig | None = None, *, rng):
        self.hierarchy = hierarchy
        self.config = config or ControllerConfig()
        self.rng = rng
        self.phases: dict[int, PhaseModelState] = {}
        self.directive = Directive(phase_id=-1, swapped_kind=None)
        self._prev_address = -1  # previous reference, for near/far; -1 for none

    # bench/tracer.py reads `record` and `directive` around this call (ROADMAP item 5).
    def on_interval_end(self, record: IntervalRecord) -> None:
        """Count the closing interval if it trained its phase, then score and
        swap once the budget is met. The directive stays the closing
        interval's."""
        if self.directive.training:
            st = self.phases[self.directive.phase_id]
            st.intervals_trained += 1
            if st.intervals_trained >= self.config.train_intervals:
                l1 = self.hierarchy.config.l1
                st.score_vectors = {k: score(st.refs, st.base_near_misses, st.shadow[k], k, l1)
                                    for k in self.config.candidate_kinds}
                st.chosen = select_best(st.score_vectors)

    def run_interval(self, phase_id: int, ops, addresses) -> list[int]:
        """Set the directive of an interval labeled `phase_id` (-1 for
        none), cataloging a phase labeled for the first time, then run its
        references under it and account them in the hierarchy. Returns the
        positions where the L1 slot (the detailed cache or the swapped
        model) missed."""
        st = self.phases.get(phase_id)
        if st is None and phase_id >= 0:
            st = self.phases[phase_id] = PhaseModelState(self.config.candidate_kinds)
        d = self.directive = Directive(phase_id, st.chosen if st else None)
        if d.swapped_kind is None:
            misses = self.hierarchy.run_detailed(addresses, phase_id)
            if d.training:
                self._shadow_train(st, ops, addresses, misses)
        else:
            model = st.models[d.swapped_kind]
            misses = model.predict_interval(ops, addresses, self._prev_address, self.rng)
            self.hierarchy.serve_misses(addresses, misses, phase_id)
        if addresses:
            self._prev_address = addresses[-1]
        return misses

    def _shadow_train(self, st: PhaseModelState, ops, addresses, misses: list[int]) -> None:
        """Run every candidate beside the detailed L1's outcomes: each
        predicts, then trains on, every reference, so accuracy measures
        generalization, not recall of the access being trained on. A
        prediction counts its expected value, so shadow training makes no
        draw and the scores depend on the trace alone."""
        ctxs = contexts(ops, addresses, self._prev_address)
        miss = bytearray(len(ctxs))
        for i in misses:
            miss[i] = 1
        near = ctxs.translate(NEAR)
        st.refs += len(ctxs)
        st.base_near_misses += (int.from_bytes(miss, "little")
                                & int.from_bytes(near, "little")).bit_count()
        for kind, model in st.models.items():
            total, interval = st.shadow[kind], model.shadow_interval(ctxs, miss, near)
            st.shadow[kind] = (total[0] + interval[0], total[1] + interval[1])
