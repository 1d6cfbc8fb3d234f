"""Per-phase swap state machine: shadow-train candidate models when a
phase is discovered, score them after the training budget, and swap the
best one into the L1D slot for all future intervals of that phase.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cache import Hierarchy
from .metrics import IntervalRecord
from .models import NEAR, SWAP_KINDS, ModelKind, contexts, make_model
from .scoring import ScoreVector, score, select_best


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
