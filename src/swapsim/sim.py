"""Full simulation pipeline: trace in, phase detection, model swapping,
metrics out. Validation mode runs a second fully detailed hierarchy in
lockstep as ground truth; it observes only and never feeds back into the
swapped run's decisions.

A Runner takes the trace as `(ops, addresses)` blocks and cuts them into
intervals itself, so only it knows the interval length: run_simulation
passes an in-memory Trace as one block, and `swapsim run` passes
trace.read_blocks or trace.generate_blocks, so a trace file or preset is
never held whole. The detector labels each interval before it runs (the
paper decides at its end), and the interval runs under the directive its
label sets: one loop chosen by it, whose L1 misses then go through L2 and
L3 in order; each hierarchy files the reuse distances of a sample of the
lines it sends to L2 under that label. After each full interval the
controller's on_interval_end gets its record.
"""
from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

from .cache import Hierarchy, HierarchyConfig
from .controller import ControllerConfig, ScoreVector, SwapController
from .metrics import IntervalRecord, ReuseHistogram
from .phase import PhaseDetector, PhaseDetectorConfig
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
    reuse: dict[int, ReuseHistogram]
    base_reuse: dict[int, ReuseHistogram] | None

    @property
    def scores(self) -> dict[int, dict[str, float]]:
        """Each score vector's distance from the ideal, and only that: the
        choice first drops any kind more than `controller.ACCURACY_GATE` below
        the best accuracy (on `locality` seed 1 at a 64 B L1, markov4 scores
        0.222 and 0.142, yet markov8, at 0.413 and 0.395, is chosen)."""
        return {pid: {kind: vec.distance_from_ideal() for kind, vec in vectors.items()}
                for pid, vectors in self.score_vectors.items()}

    @property
    def swapped_fraction(self) -> float:
        if not self.intervals:
            return 0.0
        swapped = sum(1 for r in self.intervals if r.directive != "base")
        return swapped / len(self.intervals)


class Runner:
    """One simulation: `run` takes the trace's `(ops, addresses)` blocks,
    cut anywhere, and returns its RunResult. Pure function of (the
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
        self.hierarchy = Hierarchy(hcfg, collect_reuse)
        self.detector = PhaseDetector(dcfg)
        self.controller = SwapController(self.hierarchy, controller_config,
                                         rng=random.Random(seed))
        self.val_hier = Hierarchy(hcfg, collect_reuse) if validate else None
        self.intervals: list[IntervalRecord] = []
        self._snapshot = self.hierarchy.totals()

    def run(self, blocks) -> RunResult:
        """Check each block of the trace, cut the blocks into intervals of
        `interval_len` references and run each, then any shorter rest;
        return the result. An interval within a block is a slice of it; one
        that spans blocks is copied, as they come, into one pending pair of
        arrays, which runs once a block completes it. So a streamed run
        copies each address at most twice and holds at most one copy of an
        interval beside the block."""
        n = self.interval_len
        # The start of an interval that a later block completes.
        ops_in, addresses_in = array("B"), array("Q")
        offset = 0
        for ops, addresses in blocks:
            addresses = check_references(ops, addresses, offset)
            offset += len(addresses)
            start = 0
            if addresses_in:
                start = min(n - len(addresses_in), len(addresses))
                # `bytes` returns the parser's `bytes` blocks, and their
                # slices, themselves.
                ops_in.frombytes(bytes(ops[:start]))
                addresses_in += addresses[:start]
                if len(addresses_in) < n:
                    continue
                self._step(ops_in, addresses_in)
                ops_in, addresses_in = array("B"), array("Q")
            end = len(addresses) - (len(addresses) - start) % n
            for i in range(start, end, n):
                self._step(ops[i:i + n], addresses[i:i + n])
            ops_in.frombytes(bytes(ops[end:]))
            addresses_in += addresses[end:]
        if addresses_in:
            self._step(ops_in, addresses_in)

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
            reuse=self.hierarchy.reuse or {},
            # Like base_totals, None only when the run is not validated.
            base_reuse=(self.val_hier.reuse or {}) if self.val_hier is not None else None,
        )

    def _step(self, ops, addresses) -> None:
        """Run the next interval. One shorter than `interval_len`, the
        trace's last, is counted in the totals and reuse histograms but
        gets no record."""
        interval_len = self.interval_len
        controller = self.controller
        full = len(addresses) == interval_len
        # A trailing partial interval, which the detector does not label,
        # runs under the last full one's label, still the directive's (-1 if none).
        phase_id = (self.detector.observe_interval(addresses) if full
                    else controller.directive.phase_id)
        misses = controller.run_interval(phase_id, ops, addresses)
        swapped = controller.directive.swapped_kind
        if self.val_hier is not None:
            val_misses = self.val_hier.run_detailed(addresses, phase_id)
        if not full:
            return

        now = self.hierarchy.totals()
        accuracy = None
        if self.val_hier is not None:
            # The L1 outcomes differ exactly where one run missed and the other hit.
            wrong = len(set(misses).symmetric_difference(val_misses))
            accuracy = (interval_len - wrong) / interval_len
        record = IntervalRecord(
            interval_index=len(self.intervals),
            phase_id=phase_id,
            directive="base" if swapped is None else swapped.value,
            accuracy=accuracy,
            **{k: now[k] - self._snapshot[k] for k in now},
        )
        self.intervals.append(record)
        self._snapshot = now
        controller.on_interval_end(record)


def run_simulation(trace: Trace, *args, **kwargs) -> RunResult:
    """Run the model-swapping simulation over a trace; takes the
    arguments of Runner after the trace. Pure function of (trace,
    configs, seed)."""
    return Runner(*args, **kwargs).run([(trace.ops, trace.addresses)])
