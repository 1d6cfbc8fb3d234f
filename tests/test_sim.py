"""End-to-end simulation runs on small synthetic traces."""
import json
import random
from collections import Counter, defaultdict
from array import array

import pytest

import swapsim.sim
import swapsim.trace
from swapsim.cache import DEFAULT_L1, CacheConfig, HierarchyConfig, SetAssociativeCache
from swapsim.cli import EXIT_OK, _result_to_report, main
from swapsim.controller import ControllerConfig, Directive
from swapsim.metrics import ReuseDistanceTracker, ReuseHistogram
from swapsim.models import ModelKind
from swapsim.phase import PhaseDetector, PhaseDetectorConfig
from swapsim.sim import Runner, run_simulation
from swapsim.trace import (
    PhaseKind,
    SyntheticPhaseSpec,
    Trace,
    build_preset,
    generate_blocks,
    generate_trace,
    join_blocks,
    preset_specs,
    read_blocks,
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


def on_each_interval(runner, observe):
    """Call `observe(record)` as each full interval of `runner` closes,
    after its controller's on_interval_end, which the hook wraps as the
    benchmark's tracer wraps it."""
    close = runner.controller.on_interval_end

    def closed(record):
        close(record)
        observe(record)

    runner.controller.on_interval_end = closed


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


@pytest.mark.parametrize("validate", [False, True])
def test_base_reuse_is_none_only_without_validation(validate):
    # Like base_totals, base_reuse is None exactly when the run is not
    # validated, whether or not reuse distances are collected.
    tr = small_trace()
    r = run_simulation(tr, detector_config=FAST, seed=5, validate=validate, collect_reuse=False)
    assert r.reuse == {}
    assert r.base_reuse == ({} if validate else None)
    assert (r.base_reuse is None) == (r.base_totals is None)


def test_swapped_fraction_and_phase_grouping():
    tr = small_trace()
    r = run_simulation(tr, detector_config=FAST, seed=5)
    swapped = sum(1 for rec in r.intervals if rec.directive != "base")
    assert r.swapped_fraction == swapped / len(r.intervals)


def test_reuse_histograms_track_l1_miss_stream():
    # Each histogram counts the lines its hierarchy sent to L2 under the
    # label each interval ran under.
    full = small_trace()
    # Cut to 75 000 references, the trace ends in a 1 000-reference tail of
    # a random-access phase, which runs under the last record's label and
    # whose L2-bound lines the histograms count too.
    cut = Trace(full.ops[:75_000], full.addresses[:75_000])
    to_l2 = ("l2_hits", "l3_hits", "mem_accesses")
    for tr in (full, cut):
        runner = Runner(detector_config=FAST, seed=5, validate=True)
        base_sent = defaultdict(int)  # label -> lines the detailed run sent to L2
        before = runner.val_hier.totals()

        def observe(record):
            nonlocal before
            after = runner.val_hier.totals()
            base_sent[record.phase_id] += sum(after[k] - before[k] for k in to_l2)
            before = after

        on_each_interval(runner, observe)
        r = runner.run([(tr.ops, tr.addresses)])
        # A trailing partial interval runs under the last record's label.
        base_sent[r.intervals[-1].phase_id] += sum(r.base_totals[k] - before[k] for k in to_l2)
        sent = defaultdict(int)
        for rec in r.intervals:
            sent[rec.phase_id] += sum(getattr(rec, k) for k in to_l2)
        sent[r.intervals[-1].phase_id] += sum(r.totals[k] for k in to_l2) - sum(sent.values())
        assert len(sent) > 1
        assert {p: h.total for p, h in r.reuse.items()} == sent
        assert {p: h.total for p, h in r.base_reuse.items()} == base_sent


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


def test_run_rejects_ops_and_addresses_of_different_lengths():
    tr = small_trace()
    ops, addrs = tr.ops, tr.addresses
    for n_ops in (1000, 3000):
        runner = Runner(detector_config=FAST, validate=True)
        with pytest.raises(ValueError, match=f"^{n_ops} ops for 2000 addresses$"):
            runner.run([(ops[:2500], addrs[:2500]), (ops[:n_ops], addrs[2500:4500])])
        # The first block's full interval ran; nothing of the rejected
        # block, which would complete the second, reached either hierarchy.
        assert len(runner.intervals) == 1
        for totals in (runner.hierarchy.totals(), runner.val_hier.totals()):
            assert totals["l1_hits"] + totals["l2_hits"] + totals["l3_hits"] \
                + totals["mem_accesses"] == 2000


def test_streamed_run_joins_an_interval_once(monkeypatch):
    # Blocks of 1 to 7 references against intervals of 10 000: the blocks
    # of an interval are joined once a block completes it, so the copies
    # stay linear in the trace, and the intervals are the trace's slices.
    tr = small_trace()
    n = 10_000
    joined, steps = [], []

    def counting(blocks):
        ops, addresses = join_blocks(blocks)
        joined.append(len(addresses))
        return ops, addresses

    monkeypatch.setattr(swapsim.sim, "join_blocks", counting)
    monkeypatch.setattr(Runner, "_step", lambda self, ops, addresses:
                        steps.append((bytes(ops), addresses.tobytes())))
    rng = random.Random(7)
    cuts = [0]
    while cuts[-1] < len(tr.addresses):
        cuts.append(min(len(tr.addresses), cuts[-1] + rng.randint(1, 7)))
    Runner(detector_config=PhaseDetectorConfig(interval_len=n)).run(
        (tr.ops[a:b], tr.addresses[a:b]) for a, b in zip(cuts, cuts[1:]))
    assert sum(joined) <= 2 * len(tr.addresses)
    assert steps == [(bytes(tr.ops[i:i + n]), tr.addresses[i:i + n].tobytes())
                     for i in range(0, len(tr.addresses), n)]


# Measured on meabo3-small seed 1: at most 0.50 % per phase. When an
# interval ran under the previous interval's label, phase -1 was off by
# -12.2 % and phase 1 by +3.7 %.
PHASE_CYCLES_BOUND = 0.02
L1_64B = CacheConfig(32 * 1024, 8, 64, 4)
L1_16K_4WAY = CacheConfig(16 * 1024, 4, 32, 4)


# At the other L1 geometries the score alone picked markov4 over a
# markov8 several points more accurate; with the accuracy gate the worst
# phase reads at most 0.62 % (it read 16.30 % on locality at 64 B lines).
# meabo3's worst phase reads 0.52 % at 64 B lines, 0.35 % at 16 KiB 4-way.
@pytest.mark.parametrize("preset, l1", [
    pytest.param("meabo3-small", DEFAULT_L1, id="meabo3-small-default"),
    pytest.param("locality", L1_64B, id="locality-64B"),
    pytest.param("locality", L1_16K_4WAY, id="locality-16K-4way"),
    pytest.param("meabo3-small", L1_64B, id="meabo3-small-64B"),
    pytest.param("meabo3-small", L1_16K_4WAY, id="meabo3-small-16K-4way"),
    pytest.param("meabo3", L1_64B, id="meabo3-64B"),
    pytest.param("meabo3", L1_16K_4WAY, id="meabo3-16K-4way"),
])
def test_per_phase_cycle_error_is_small(preset, l1):
    runner = Runner(HierarchyConfig(l1=l1), seed=1, validate=True, collect_reuse=False)
    cycles = defaultdict(lambda: [0, 0])  # phase -> [swapped run, detailed run]
    before = [0, 0]

    def observe(record):
        now = runner.hierarchy.cycles, runner.val_hier.cycles
        c = cycles[record.phase_id]
        for i in (0, 1):
            c[i] += now[i] - before[i]
            before[i] = now[i]

    on_each_interval(runner, observe)
    runner.run(generate_blocks(*preset_specs(preset, 1)))
    swapped = {r.phase_id for r in runner.intervals if r.directive != "base"}
    assert len(swapped) >= 3
    for pid, (got, want) in cycles.items():
        assert abs(got - want) <= PHASE_CYCLES_BOUND * want, (pid, got, want)


def test_directive_holds_through_on_interval_end(monkeypatch):
    # A wrapper of on_interval_end gets the interval's record, whose
    # interval_index and phase_id the benchmark's tracer reads, and reads
    # the directive the closing interval ran under, which the call leaves
    # in place. It classifies the directive as the tracer does:
    # swapped_kind first, then training.
    runner = Runner(detector_config=FAST, seed=5)
    seen = []
    args = []
    kinds = Counter()
    close = runner.controller.on_interval_end

    def wrapped(record):
        args.append(record)
        d = runner.controller.directive
        seen.append("base" if d.swapped_kind is None else d.swapped_kind.value)
        kinds["swapped" if d.swapped_kind is not None else
              "training" if d.training else "base"] += 1
        assert close(record) is None
        assert runner.controller.directive is d

    monkeypatch.setattr(runner.controller, "on_interval_end", wrapped)
    tr = small_trace()
    records = runner.run([(tr.ops, tr.addresses)]).intervals
    assert len(args) == len(records) == len(tr) // FAST.interval_len
    assert all(a is rec for a, rec in zip(args, records))
    assert seen == [r.directive for r in records]
    assert "base" in seen and len(set(seen)) > 1
    # Every base interval of a cataloged phase trained it.
    assert kinds["training"] == sum(r.directive == "base" and r.phase_id >= 0 for r in records)
    assert kinds["training"] > 0 and kinds["base"] > 0


def test_trailing_partial_interval_runs_under_the_last_label():
    # The detector does not label a trailing partial interval, so it runs
    # under the label of the last full one. In the first case that
    # interval completed its phase's training budget: the partial one runs
    # the chosen model, and the detailed L1 stays frozen through it.
    tr, n = small_trace(), FAST.interval_len

    def traced(length):
        """A run of the first `length` references; each full interval's
        index when it completed its phase's training budget, and the
        detailed L1's fingerprint as each full interval closed."""
        runner = Runner(detector_config=FAST, seed=5)
        phases = runner.controller.phases
        trained, fingerprints = [], []

        def observe(record):
            if record.directive == "base" and record.phase_id >= 0 \
                    and phases[record.phase_id].chosen is not None:
                trained.append(record.interval_index)
            fingerprints.append(runner.hierarchy.l1.fingerprint())

        on_each_interval(runner, observe)
        runner.run([(tr.ops[:length], tr.addresses[:length])])
        return runner, trained, fingerprints

    _, trained, _ = traced(len(tr))
    assert trained and (trained[0] + 2) * n <= len(tr)
    runner, _, fingerprints = traced((trained[0] + 1) * n + n // 2)
    record = runner.intervals[-1]
    assert record.interval_index == trained[0]
    phases = runner.controller.phases
    assert runner.controller.directive == Directive(record.phase_id,
                                                    phases[record.phase_id].chosen)
    assert runner.hierarchy.l1.fingerprint() == fingerprints[-1]
    totals = runner.hierarchy.totals()
    assert totals["l1_hits"] + totals["l2_hits"] + totals["l3_hits"] \
        + totals["mem_accesses"] == (trained[0] + 1) * n + n // 2

    # A trace shorter than one interval has no full interval: it runs
    # under the initial directive's label, -1, and catalogs no phase.
    runner = Runner(detector_config=FAST, seed=5, validate=True)
    r = runner.run([(tr.ops[:n // 2], tr.addresses[:n // 2])])
    assert runner.controller.directive == Directive(-1, None)
    assert not runner.detector.table and not runner.controller.phases
    assert r.intervals == [] and r.phase_count == 0
    assert list(r.reuse) == list(r.base_reuse) == [-1]
    for totals in (r.totals, r.base_totals):
        assert totals["l1_hits"] + totals["l2_hits"] + totals["l3_hits"] \
            + totals["mem_accesses"] == n // 2


@pytest.fixture
def caches_untouched(monkeypatch):
    """Fail the test if the detector or any cache sees an interval."""
    def touched(self, addresses):
        raise AssertionError(f"{type(self).__name__} saw the interval")

    monkeypatch.setattr(SetAssociativeCache, "misses", touched)
    monkeypatch.setattr(PhaseDetector, "observe_interval", touched)


def test_op_other_than_read_or_write_rejected_before_any_cache(caches_untouched):
    # models.contexts maps only op 1 to the write bit: an op of 2 would
    # pass through as the write bit, and one of 3 as the write and far
    # bits. The check comes before the detector or any cache sees the
    # interval.
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


# A list-backed trace is range-checked by check_references. At the default
# interval length the positions lie both in the phase signature's sample
# (1, 3) and outside it (500, 9 999, 19 999), so the check cannot rest on
# what the signature reads.
@pytest.mark.parametrize("address, at", [
    *((2**64 + 5, at) for at in (1, 3, 500, 9_999, 19_999)),
    (-1, 9_999),
])
def test_address_out_of_range_rejected_before_any_cache(caches_untouched, address, at):
    tr = small_trace()
    addresses = list(tr.addresses[:20_000])
    addresses[at] = address
    runner = Runner(seed=1, validate=True)
    message = rf"^address at reference {at} is outside 0\.\.2\*\*64-1$"
    with pytest.raises(ValueError, match=message):
        runner.run([(tr.ops[:20_000], addresses)])
    assert runner.intervals == []
    for totals in (runner.hierarchy.totals(), runner.val_hier.totals()):
        assert not any(totals.values())
    with pytest.raises(ValueError, match=message):
        run_simulation(Trace(tr.ops[:20_000], addresses), seed=1)


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
    # The whole file read into one Trace, then run from memory.
    loaded = run_simulation(Trace(*join_blocks(read_blocks(p))), **settings)
    assert sum(loaded.totals[k] for k in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses")) \
        == (0 if case == "empty" else 2874)
    streamed = Runner(**settings).run(read_blocks(p))
    assert _result_to_report(streamed) == _result_to_report(loaded)

    out = tmp_path / "out"
    assert main(["run", "--trace", str(p), "--validate", "--seed", "3", "--train-intervals", "1",
                 "--interval-len", str(interval_len), "--stable-min", "2",
                 "--out", str(out)]) == EXIT_OK
    expected = json.dumps(_result_to_report(loaded), indent=2, sort_keys=True) + "\n"
    assert (out / "report.json").read_text() == expected
