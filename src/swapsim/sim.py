"""Full simulation pipeline: trace in, phase detection, model swapping,
metrics out. Validation mode runs a second fully detailed hierarchy in
lockstep as ground truth; it observes only and never feeds back into the
swapped run's decisions.

A Runner takes the trace one interval at a time: run_simulation slices
an in-memory Trace, and `swapsim run --trace` feeds it from
trace.read_intervals, so a trace file is never held whole. The detector
labels each interval before it runs (the paper decides at its end), and
the interval runs under the directive its label sets: one loop chosen by
it, whose L1 misses then go through L2/L3 and the reuse tracker in order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cache import Hierarchy, HierarchyConfig
from .controller import ControllerConfig, SwapController
from .metrics import IntervalRecord, ReuseDistanceTracker, ReuseHistogram
from .phase import PhaseDetector, PhaseDetectorConfig, PhaseEvent
from .scoring import ScoreVector
from .trace import Trace, check_references


@dataclass
class RunResult:
    seed: int
    interval_len: int
    intervals: list[IntervalRecord]
    totals: dict
    base_totals: dict | None
    phase_count: int
    chosen: dict[int, str]  # phase id -> chosen model kind value
    score_vectors: dict[int, dict[str, ScoreVector]]
    reuse: dict[int, ReuseHistogram] = field(default_factory=dict)
    base_reuse: dict[int, ReuseHistogram] | None = None

    @property
    def scores(self) -> dict[int, dict[str, float]]:
        """Each score vector's scalar score, its distance from the ideal."""
        return {pid: {kind: vec.distance_from_ideal() for kind, vec in vectors.items()}
                for pid, vectors in self.score_vectors.items()}

    @property
    def swapped_fraction(self) -> float:
        if not self.intervals:
            return 0.0
        swapped = sum(1 for r in self.intervals if r.directive != "base")
        return swapped / len(self.intervals)


def _add_distances(hists: dict[int, ReuseHistogram], phase_id: int,
                   tracker: ReuseDistanceTracker, addrs, misses: list[int], shift: int) -> None:
    hists.setdefault(phase_id, ReuseHistogram()).add_all(
        tracker.observe_all([addrs[i] >> shift for i in misses]))


class Runner:
    """One simulation, fed one interval at a time: `step` each interval's
    references in trace order, then `finish`. Pure function of (the
    references, configs, seed)."""

    def __init__(
        self,
        hierarchy_config: HierarchyConfig | None = None,
        detector_config: PhaseDetectorConfig | None = None,
        controller_config: ControllerConfig | None = None,
        seed: int = 0,
        validate: bool = False,
        collect_reuse: bool = True,
    ):
        hcfg = hierarchy_config or HierarchyConfig()
        dcfg = detector_config or PhaseDetectorConfig()
        self.seed = seed
        self.interval_len = dcfg.interval_len
        self.hierarchy = Hierarchy(hcfg)
        self.detector = PhaseDetector(dcfg)
        self.controller = SwapController(self.hierarchy, controller_config,
                                         rng=random.Random(seed))
        self.val_hier = Hierarchy(hcfg) if validate else None
        self.intervals: list[IntervalRecord] = []
        self.reuse: dict[int, ReuseHistogram] = {}
        self.base_reuse = {} if validate and collect_reuse else None
        self.tracker = ReuseDistanceTracker() if collect_reuse else None
        self.base_tracker = ReuseDistanceTracker() if self.base_reuse is not None else None
        self._l2_line_shift = hcfg.l2.line_bytes.bit_length() - 1
        self._snapshot = self.hierarchy.totals()
        self._event = PhaseEvent(-1, -1)  # the label of the last full interval
        self._ended = False  # a partial interval was stepped

    def step(self, ops, addresses) -> IntervalRecord | None:
        """Run the next interval and return its record. An interval shorter
        than `interval_len` must be the trace's last: it is counted in the
        totals and reuse histograms, gets no record and returns None."""
        interval_len = self.interval_len
        if self._ended:
            # The partial interval reached the caches but not the detector,
            # so the detector's intervals would no longer line up with them.
            raise ValueError("a partial interval must be the last one stepped")
        if len(addresses) > interval_len:
            raise ValueError(f"an interval holds at most {interval_len} references")
        # Only the last interval may be partial, so every earlier one is full.
        check_references(ops, addresses, len(self.intervals) * interval_len)
        controller = self.controller
        full = len(addresses) == interval_len
        if full:
            self._event = self.detector.observe_interval(addresses)
        # A trailing partial interval, which the detector does not label,
        # runs under the label of the last full one.
        event = self._event
        misses = controller.run_interval(event.phase_id, ops, addresses)
        swapped = controller.directive.swapped_kind
        if self.val_hier is not None:
            val_misses = self.val_hier.run_detailed(addresses)
        # The L2-bound stream's reuse distances in L2 lines, under the interval's label.
        shift = self._l2_line_shift
        if self.tracker is not None:
            _add_distances(self.reuse, event.phase_id, self.tracker, addresses, misses, shift)
        if self.base_tracker is not None:
            _add_distances(self.base_reuse, event.phase_id, self.base_tracker, addresses,
                           val_misses, shift)
        if not full:
            self._ended = True
            return None

        now = self.hierarchy.totals()
        accuracy = None
        if self.val_hier is not None:
            # The L1 outcomes differ exactly where one run missed and the other hit.
            wrong = len(set(misses).symmetric_difference(val_misses))
            accuracy = (interval_len - wrong) / interval_len
        record = IntervalRecord(
            interval_index=event.interval_index,
            phase_id=event.phase_id,
            directive="base" if swapped is None else swapped.value,
            accuracy=accuracy,
            **{k: now[k] - self._snapshot[k] for k in now},
        )
        self.intervals.append(record)
        self._snapshot = now
        controller.on_interval_end(event)
        return record

    def finish(self) -> RunResult:
        """The result of the intervals stepped so far."""
        chosen = {}
        score_vectors = {}
        for pid, st in sorted(self.controller.phases.items()):
            if st.chosen is not None:
                chosen[pid] = st.chosen.value
            score_vectors[pid] = {k.value: vec for k, vec in st.score_vectors.items()}

        return RunResult(
            seed=self.seed,
            interval_len=self.interval_len,
            intervals=self.intervals,
            totals=self.hierarchy.totals(),
            base_totals=self.val_hier.totals() if self.val_hier is not None else None,
            phase_count=len(self.detector.table),
            chosen=chosen,
            score_vectors=score_vectors,
            reuse=self.reuse,
            base_reuse=self.base_reuse,
        )


def run_simulation(trace: Trace, *args, **kwargs) -> RunResult:
    """Run the model-swapping simulation over a trace; takes the
    arguments of Runner after the trace. Pure function of (trace,
    configs, seed)."""
    runner = Runner(*args, **kwargs)
    n = runner.interval_len
    for start in range(0, len(trace), n):
        runner.step(trace.ops[start:start + n], trace.addresses[start:start + n])
    return runner.finish()
