"""End-to-end simulation runs on small synthetic traces."""
from swapsim.controller import ControllerConfig
from swapsim.models import ModelKind
from swapsim.phase import PhaseDetectorConfig
from swapsim.sim import run_simulation
from swapsim.trace import PhaseKind, SyntheticPhaseSpec, generate_trace

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
    tr = small_trace()
    r = run_simulation(tr, detector_config=FAST, seed=5, validate=True)
    assert r.reuse and r.base_reuse is not None
    model_misses = sum(rec.l2_hits + rec.l3_hits + rec.mem_accesses for rec in r.intervals)
    assert sum(h.total for h in r.reuse.values()) == model_misses


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
