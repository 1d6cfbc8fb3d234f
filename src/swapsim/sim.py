"""Full simulation pipeline: trace in, phase detection, model swapping,
metrics out. Validation mode runs a second fully detailed hierarchy in
lockstep as ground truth; it observes only and never feeds back into the
swapped run's decisions.

The trace is walked one interval at a time. The directive can change only
at an interval boundary, so each interval runs as one loop chosen by its
directive, and its L1 misses then go through L2/L3 and the reuse tracker
in order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cache import Hierarchy, HierarchyConfig
from .controller import ControllerConfig, PhaseState, SwapController
from .metrics import IntervalRecord, ReuseDistanceTracker, ReuseHistogram
from .phase import PhaseDetector, PhaseDetectorConfig
from .trace import Trace


@dataclass
class RunResult:
    seed: int
    interval_len: int
    intervals: list[IntervalRecord]
    totals: dict
    base_totals: dict | None
    phase_count: int
    chosen: dict[int, str]  # phase id -> chosen model kind value
    scores: dict[int, dict[str, float]]
    score_vectors: dict[int, dict[str, tuple[float, float, float, float]]]
    reuse: dict[int, ReuseHistogram] = field(default_factory=dict)
    base_reuse: dict[int, ReuseHistogram] | None = None

    @property
    def swapped_fraction(self) -> float:
        if not self.intervals:
            return 0.0
        swapped = sum(1 for r in self.intervals if r.directive != "base")
        return swapped / len(self.intervals)


def _add_distances(hists: dict[int, ReuseHistogram], phase_id: int,
                   tracker: ReuseDistanceTracker, addrs, misses: list[int]) -> None:
    hists.setdefault(phase_id, ReuseHistogram()).add_all(
        tracker.observe_all([addrs[i] >> 6 for i in misses]))


def run_simulation(
    trace: Trace,
    hierarchy_config: HierarchyConfig | None = None,
    detector_config: PhaseDetectorConfig | None = None,
    controller_config: ControllerConfig | None = None,
    seed: int = 0,
    validate: bool = False,
    collect_reuse: bool = True,
) -> RunResult:
    """Run the model-swapping simulation over a trace. Pure function of
    (trace, configs, seed)."""
    hcfg = hierarchy_config or HierarchyConfig()
    dcfg = detector_config or PhaseDetectorConfig()
    ccfg = controller_config or ControllerConfig()

    hierarchy = Hierarchy(hcfg)
    detector = PhaseDetector(dcfg)
    controller = SwapController(hierarchy, ccfg, rng=random.Random(seed))
    val_hier = Hierarchy(hcfg) if validate else None

    intervals: list[IntervalRecord] = []
    reuse: dict[int, ReuseHistogram] = {}
    base_reuse: dict[int, ReuseHistogram] = {}
    tracker = ReuseDistanceTracker() if collect_reuse else None
    base_tracker = ReuseDistanceTracker() if (collect_reuse and validate) else None

    snapshot = hierarchy.totals()
    interval_len = dcfg.interval_len
    ops = trace.ops
    addrs = trace.addresses

    for start in range(0, len(addrs), interval_len):
        iv_ops = ops[start:start + interval_len]
        iv_addrs = addrs[start:start + interval_len]
        directive = controller.directive
        misses = controller.run_interval(iv_ops, iv_addrs)
        if val_hier is not None:
            val_misses = val_hier.run_detailed(iv_addrs)
        if len(iv_addrs) < interval_len:
            break  # a trailing partial interval is counted in the totals only

        event = detector.observe_interval(iv_addrs)
        now = hierarchy.totals()
        accuracy = None
        if val_hier is not None:
            # The L1 outcomes differ exactly where one run missed and the other hit.
            wrong = len(set(misses).symmetric_difference(val_misses))
            accuracy = (interval_len - wrong) / interval_len
        intervals.append(
            IntervalRecord(
                interval_index=event.interval_index,
                phase_id=event.phase_id,
                directive="base" if directive.uses_base else directive.swapped_kind.value,
                accuracy=accuracy,
                l1_hits=now["l1_hits"] - snapshot["l1_hits"],
                l2_hits=now["l2_hits"] - snapshot["l2_hits"],
                l3_hits=now["l3_hits"] - snapshot["l3_hits"],
                mem_accesses=now["mem_accesses"] - snapshot["mem_accesses"],
                cycles=now["cycles"] - snapshot["cycles"],
            )
        )
        snapshot = now
        # Reuse distances of the L2-bound stream, filed under the phase
        # the detector gave the interval.
        if tracker is not None:
            _add_distances(reuse, event.phase_id, tracker, iv_addrs, misses)
        if base_tracker is not None:
            _add_distances(base_reuse, event.phase_id, base_tracker, iv_addrs, val_misses)
        controller.on_interval_end(event)

    chosen = {}
    scores = {}
    score_vectors = {}
    for pid, st in sorted(controller.phases.items()):
        if st.state is PhaseState.SWAPPED:
            chosen[pid] = st.chosen.value
        scores[pid] = {k.value: v for k, v in st.scores.items()}
        score_vectors[pid] = {k.value: vec.as_tuple() for k, vec in st.score_vectors.items()}

    return RunResult(
        seed=seed,
        interval_len=interval_len,
        intervals=intervals,
        totals=hierarchy.totals(),
        base_totals=val_hier.totals() if val_hier is not None else None,
        phase_count=len(detector.table),
        chosen=chosen,
        scores=scores,
        score_vectors=score_vectors,
        reuse=reuse,
        base_reuse=base_reuse if validate and collect_reuse else None,
    )
