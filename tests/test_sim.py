"""End-to-end simulation runs on small synthetic traces."""
import json
import random
from collections import Counter, defaultdict
from array import array

import pytest

import swapsim.trace
from swapsim.cache import DEFAULT_L1, CacheConfig, HierarchyConfig, SetAssociativeCache
from swapsim.cli import EXIT_OK, _result_to_report, main
from swapsim.controller import ControllerConfig, Directive
from swapsim.metrics import IntervalRecord, ReuseDistanceTracker, ReuseHistogram
from swapsim.models import ModelKind
from swapsim.phase import PhaseDetector, PhaseDetectorConfig
from swapsim.sim import Runner, run_simulation
from swapsim.trace import (
    PhaseKind,
    SyntheticPhaseSpec,
    Trace,
    build_preset,
    generate_trace,
    read_intervals,
    write_trace,
)

FAST = PhaseDetectorConfig(interval_len=2000, stable_min=2)


def small_trace():
    specs = [
        SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 30_000, seed=31),
        SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 30_000, seed=32),
    ]
    return generate_trace(specs, iterations=2,
                          marker_spec=SyntheticPhaseSpec(PhaseKind.MARKER, 16_000, seed=33))


def test_run_is_deterministic():
    tr = small_trace()
    a = run_simulation(tr, detector_config=FAST, seed=5, validate=True)
    b = run_simulation(tr, detector_config=FAST, seed=5, validate=True)
    assert a.intervals == b.intervals
    assert a.totals == b.totals
    assert a.chosen == b.chosen
    assert a.scores == b.scores


def test_interval_records_cover_full_intervals_only():
    tr = small_trace()
    r = run_simulation(tr, detector_config=FAST, seed=5)
    assert len(r.intervals) == len(tr) // FAST.interval_len
    assert [rec.interval_index for rec in r.intervals] == list(range(len(r.intervals)))
    for rec in r.intervals:
        served = rec.l1_hits + rec.l2_hits + rec.l3_hits + rec.mem_accesses
        assert served == FAST.interval_len


def test_validation_mode_populates_accuracy():
    tr = small_trace()
    r = run_simulation(tr, detector_config=FAST, seed=5, validate=True)
    assert r.base_totals is not None
    assert all(rec.accuracy is not None for rec in r.intervals)
    # until the first swap the run and the validation hierarchy are in
    # lockstep, so detailed-model "predictions" are exact
    for rec in r.intervals:
        if rec.directive != "base":
            break
        assert rec.accuracy == 1.0


def test_no_validation_no_accuracy():
    tr = small_trace()
    r = run_simulation(tr, detector_config=FAST, seed=5)
    assert r.base_totals is None
    assert all(rec.accuracy is None for rec in r.intervals)


def test_swapped_fraction_and_phase_grouping():
    tr = small_trace()
    r = run_simulation(tr, detector_config=FAST, seed=5)
    swapped = sum(1 for rec in r.intervals if rec.directive != "base")
    assert r.swapped_fraction == swapped / len(r.intervals)


def test_reuse_histograms_track_l1_miss_stream():
    full = small_trace()
    # Cut to 75 000 references, the trace ends in a 1 000-reference tail of
    # a random-access phase, whose L2-bound lines the histograms count too.
    cut = Trace(full.ops[:75_000], full.addresses[:75_000])
    for tr in (full, cut):
        r = run_simulation(tr, detector_config=FAST, seed=5, validate=True)
        assert r.reuse and r.base_reuse is not None
        if tr is full:
            model_misses = sum(rec.l2_hits + rec.l3_hits + rec.mem_accesses for rec in r.intervals)
            assert sum(h.total for h in r.reuse.values()) == model_misses
        for hists, totals in ((r.reuse, r.totals), (r.base_reuse, r.base_totals)):
            to_l2 = totals["l2_hits"] + totals["l3_hits"] + totals["mem_accesses"]
            assert sum(h.total for h in hists.values()) == to_l2


@pytest.mark.parametrize("l2_line_bytes", [32, 128])
def test_reuse_distances_count_l2_lines(l2_line_bytes):
    # References 32 B apart: which of them share a line depends on its size.
    rng = random.Random(7)
    addrs = [rng.randrange(1 << 12) * 32 for _ in range(6000)]
    trace = Trace(array("B", bytes(len(addrs))), array("Q", addrs))
    hierarchy = HierarchyConfig(l2=CacheConfig(256 * 1024, 8, l2_line_bytes, 12))
    r = run_simulation(trace, hierarchy, PhaseDetectorConfig(interval_len=2000), seed=1,
                       validate=True)
    shift = l2_line_bytes.bit_length() - 1
    to_l2 = [addrs[i] >> shift for i in SetAssociativeCache(DEFAULT_L1).misses(addrs)]
    want = ReuseHistogram()
    want.add_all(ReuseDistanceTracker().observe_all(to_l2))
    got = Counter()
    for h in r.base_reuse.values():
        got.update(h.buckets)
        got["cold"] += h.cold_count
    assert got == Counter(want.buckets, cold=want.cold_count)


def test_single_candidate_flows_through():
    tr = small_trace()
    cc = ControllerConfig(candidate_kinds=(ModelKind.FIXED_RATE,))
    r = run_simulation(tr, detector_config=FAST, controller_config=cc, seed=5)
    assert r.chosen and all(v == "fixed-rate" for v in r.chosen.values())


def test_seed_changes_model_draws_not_structure():
    tr = small_trace()
    a = run_simulation(tr, detector_config=FAST, seed=1)
    b = run_simulation(tr, detector_config=FAST, seed=2)
    # phase labels come from the deterministic detector
    assert [r.phase_id for r in a.intervals] == [r.phase_id for r in b.intervals]
    assert a.phase_count == b.phase_count


def test_step_after_partial_interval_raises():
    tr = small_trace()
    ops, addrs = tr.ops, tr.addresses
    runner = Runner(detector_config=FAST, validate=True)
    assert isinstance(runner.step(ops[:2000], addrs[:2000]), IntervalRecord)
    with pytest.raises(ValueError, match="at most 2000"):
        runner.step(ops[2000:4001], addrs[2000:4001])
    assert runner.step(ops[2000:2500], addrs[2000:2500]) is None
    with pytest.raises(ValueError, match="partial interval"):
        runner.step(ops[2500:4500], addrs[2500:4500])
    r = runner.finish()
    assert len(r.intervals) == 1
    for totals in (r.totals, r.base_totals):
        assert totals["l1_hits"] + totals["l2_hits"] + totals["l3_hits"] \
            + totals["mem_accesses"] == 2500


def test_step_rejects_ops_and_addresses_of_different_lengths():
    tr = small_trace()
    ops, addrs = tr.ops, tr.addresses
    runner = Runner(detector_config=FAST, validate=True)
    for n_ops in (1000, 3000):
        with pytest.raises(ValueError, match=f"{n_ops} ops for 2000 addresses"):
            runner.step(ops[:n_ops], addrs[:2000])
    # Nothing of a rejected step reached the caches or the detector.
    record = runner.step(ops[:2000], addrs[:2000])
    assert record.interval_index == 0
    for totals in (runner.hierarchy.totals(), runner.val_hier.totals()):
        assert totals["l1_hits"] + totals["l2_hits"] + totals["l3_hits"] \
            + totals["mem_accesses"] == 2000


# Measured on meabo3-small seed 1: at most 0.50 % per phase. When an
# interval ran under the previous interval's label, phase -1 was off by
# -12.2 % and phase 1 by +3.7 %.
PHASE_CYCLES_BOUND = 0.02


def test_per_phase_cycle_error_is_small():
    runner = Runner(seed=1, validate=True, collect_reuse=False)
    trace = build_preset("meabo3-small", seed=1)
    n = runner.interval_len
    cycles = defaultdict(lambda: [0, 0])  # phase -> [swapped run, detailed run]
    for start in range(0, len(trace), n):
        before = runner.hierarchy.cycles, runner.val_hier.cycles
        record = runner.step(trace.ops[start:start + n], trace.addresses[start:start + n])
        if record is not None:
            c = cycles[record.phase_id]
            c[0] += runner.hierarchy.cycles - before[0]
            c[1] += runner.val_hier.cycles - before[1]
    swapped = {r.phase_id for r in runner.intervals if r.directive != "base"}
    assert len(swapped) >= 3
    for pid, (got, want) in cycles.items():
        assert abs(got - want) <= PHASE_CYCLES_BOUND * want, (pid, got, want)


def test_directive_holds_through_on_interval_end(monkeypatch):
    # A wrapper of on_interval_end reads the directive the closing
    # interval ran under, and the call leaves it in place. It classifies
    # the directive as the benchmark's tracer does: swapped_kind first,
    # then training.
    runner = Runner(detector_config=FAST, seed=5)
    seen = []
    kinds = Counter()
    close = runner.controller.on_interval_end

    def wrapped(event):
        d = runner.controller.directive
        seen.append("base" if d.swapped_kind is None else d.swapped_kind.value)
        kinds["swapped" if d.swapped_kind is not None else
              "training" if d.training else "base"] += 1
        assert close(event) is None
        assert runner.controller.directive is d

    monkeypatch.setattr(runner.controller, "on_interval_end", wrapped)
    tr, n = small_trace(), FAST.interval_len
    for start in range(0, len(tr), n):
        runner.step(tr.ops[start:start + n], tr.addresses[start:start + n])
    records = runner.finish().intervals
    assert seen == [r.directive for r in records]
    assert "base" in seen and len(set(seen)) > 1
    # Every base interval of a cataloged phase trained it.
    assert kinds["training"] == sum(r.directive == "base" and r.phase_id >= 0 for r in records)
    assert kinds["training"] > 0 and kinds["base"] > 0


def test_trailing_partial_interval_runs_under_the_last_label():
    # The detector does not label a trailing partial interval, so it runs
    # under the label of the last full one. Here that interval completed
    # its phase's training budget: the partial one runs the chosen model,
    # and the detailed L1 stays frozen through it.
    runner = Runner(detector_config=FAST, seed=5)
    tr, n = small_trace(), FAST.interval_len
    phases = runner.controller.phases
    for start in range(0, len(tr) - n, n):
        record = runner.step(tr.ops[start:start + n], tr.addresses[start:start + n])
        if record.directive == "base" and record.phase_id >= 0 \
                and phases[record.phase_id].chosen is not None:
            break
    else:
        pytest.fail("no interval completed a phase's training budget")
    fp = runner.hierarchy.l1.fingerprint()
    end = start + n + n // 2
    assert runner.step(tr.ops[start + n:end], tr.addresses[start + n:end]) is None
    assert runner.controller.directive == Directive(record.phase_id,
                                                    phases[record.phase_id].chosen)
    assert runner.hierarchy.l1.fingerprint() == fp


def test_op_other_than_read_or_write_rejected_before_any_cache(monkeypatch):
    # models.contexts maps only op 1 to the write bit: an op of 2 would
    # pass through as the write bit, and one of 3 as the write and far
    # bits. The check comes before the detector or any cache sees the
    # interval.
    def touched(self, addresses):
        raise AssertionError(f"{type(self).__name__} saw the interval")

    monkeypatch.setattr(SetAssociativeCache, "misses", touched)
    monkeypatch.setattr(PhaseDetector, "observe_interval", touched)
    tr = small_trace()
    ops = array("B", tr.ops)
    ops[5] = 2
    with pytest.raises(ValueError, match=r"^op 2 at reference 5 is not 0 \(read\) or 1 \(write\)$"):
        run_simulation(Trace(ops, tr.addresses), detector_config=FAST, seed=1, validate=True)


def test_op_check_names_the_reference_by_its_position_in_the_trace():
    tr = build_preset("locality", 1)
    tr.ops[10_005] = 2
    with pytest.raises(ValueError, match=r"^op 2 at reference 10005 is not 0 \(read\) or 1 \(write\)$"):
        run_simulation(tr, seed=1)


def _streamed(path, **settings):
    runner = Runner(**settings)
    for ops, addresses in read_intervals(path, runner.interval_len):
        runner.step(ops, addresses)
    return runner.finish()


def _with_comments(text):
    lines = text.split("\n")
    for i in range(len(lines) - 7, 0, -7):
        lines[i:i] = ["# a comment line longer than one forty-character chunk", "", "   "]
    return "\n".join(lines)


STREAM_CASES = {
    "tail": (100, lambda text: text),
    "interval-of-one": (1, lambda text: text),
    "interval-longer-than-trace": (5000, lambda text: text),
    "no-final-newline": (100, lambda text: text.rstrip("\n")),
    "comments-and-blank-lines": (100, _with_comments),
    "empty": (100, lambda text: ""),
}


@pytest.mark.parametrize("case", STREAM_CASES)
def test_streamed_run_matches_loaded_run(tmp_path, monkeypatch, case):
    # 40-character chunks split the intervals, and a long comment line
    # leaves some chunks without a whole line.
    monkeypatch.setattr(swapsim.trace, "_CHUNK_CHARS", 40)
    interval_len, edit = STREAM_CASES[case]
    # Small working sets: with 100-reference intervals, phases are found
    # and swapped.
    specs = [SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 400, seed=71, working_set_bytes=256),
             SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 400, seed=72, working_set_bytes=256)]
    write_trace(generate_trace(specs, iterations=3,
                               marker_spec=SyntheticPhaseSpec(PhaseKind.MARKER, 79, seed=73)),
                tmp_path / "gen.txt")
    p = tmp_path / "t.txt"
    p.write_text(edit((tmp_path / "gen.txt").read_text()))
    settings = dict(detector_config=PhaseDetectorConfig(interval_len=interval_len, stable_min=2),
                    controller_config=ControllerConfig(train_intervals=1), seed=3, validate=True)
    # The whole file read as one interval, then run from memory.
    whole = list(read_intervals(p, 1 << 20))
    loaded = run_simulation(Trace(*whole[0]) if whole else Trace(), **settings)
    assert sum(loaded.totals[k] for k in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses")) \
        == (0 if case == "empty" else 2874)
    assert _result_to_report(_streamed(p, **settings)) == _result_to_report(loaded)

    out = tmp_path / "out"
    assert main(["run", "--trace", str(p), "--validate", "--seed", "3", "--train-intervals", "1",
                 "--interval-len", str(interval_len), "--stable-min", "2",
                 "--out", str(out)]) == EXIT_OK
    expected = json.dumps(_result_to_report(loaded), indent=2, sort_keys=True) + "\n"
    assert (out / "report.json").read_text() == expected
