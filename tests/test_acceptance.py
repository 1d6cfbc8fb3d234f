"""Acceptance suite: one test per criterion, shared expensive fixtures.

Criteria 2, 3, 7 and 10 share one full-length validated run; criteria 4
and 6 share a 10-seed sweep of every model configuration on a mid-size
preset; criterion 5 uses a 10-seed sweep on the locality-heavy preset.
"""
import json
import math
import random
import statistics

import pytest

from swapsim.cache import DEFAULT_L1, CacheConfig, SetAssociativeCache
from swapsim.cli import main as cli_main
from swapsim.controller import ControllerConfig
from swapsim.metrics import per_phase_accuracy
from swapsim.models import MarkovModel, ModelKind
from swapsim.sim import run_simulation
from swapsim.trace import build_preset
from oracles import FixedU, percent_change

SEEDS = list(range(10))
CONFIGS = {
    "all": None,
    "fixed-rate": ModelKind.FIXED_RATE,
    "markov4": ModelKind.MARKOV4,
    "markov8": ModelKind.MARKOV8,
}


def controller_config(override):
    if override is None:
        return ControllerConfig()
    return ControllerConfig(candidate_kinds=(override,))


@pytest.fixture(scope="module")
def full_run():
    trace = build_preset("meabo3", seed=1)
    return run_simulation(trace, seed=1, validate=True, collect_reuse=False)


@pytest.fixture(scope="module")
def sweep():
    trace = build_preset("meabo3-small", seed=1)
    out = {}
    for name, override in CONFIGS.items():
        out[name] = [
            run_simulation(trace, controller_config=controller_config(override),
                           seed=s, validate=True, collect_reuse=False)
            for s in SEEDS
        ]
    return out


@pytest.fixture(scope="module")
def locality_sweep():
    trace = build_preset("locality", seed=1)
    out = {}
    for name in ("fixed-rate", "markov8"):
        out[name] = [
            run_simulation(trace, controller_config=controller_config(CONFIGS[name]),
                           seed=s, validate=True, collect_reuse=False)
            for s in SEEDS
        ]
    return out


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# -- criterion 1: cost-model constants -----------------------------------


def test_criterion_01_cost_table_constants():
    from swapsim.models import model_hit_check_comparisons, model_size_bytes

    table = {
        kind: (model_size_bytes(kind, DEFAULT_L1), model_hit_check_comparisons(kind, DEFAULT_L1))
        for kind in ModelKind
    }
    expected = {
        ModelKind.BASE: (8192, 16),
        ModelKind.FIXED_RATE: (16, 1),
        ModelKind.MARKOV4: (384, 1),
        ModelKind.MARKOV8: (1536, 2),
    }
    report(1, table == expected, f"size/comparison table {table}")


# -- criterion 2: phase detection fidelity -------------------------------


def phase_blocks(intervals):
    """Number of maximal consecutive-interval runs per phase id."""
    blocks = {}
    prev = None
    for rec in intervals:
        if rec.phase_id >= 0 and rec.phase_id != prev:
            blocks[rec.phase_id] = blocks.get(rec.phase_id, 0) + 1
        prev = rec.phase_id
    return blocks


def test_criterion_02_phase_detection_fidelity(full_run):
    blocks = phase_blocks(full_run.intervals)
    recurring = sum(1 for b in blocks.values() if b >= 3)
    ok = full_run.phase_count in (4, 5) and recurring >= 4
    report(2, ok, f"{full_run.phase_count} phases, re-entry blocks {blocks}")


# -- criterion 3: swapped coverage ---------------------------------------


def test_criterion_03_swapped_coverage(full_run):
    frac = full_run.swapped_fraction
    report(3, frac >= 0.90, f"swapped fraction {frac:.4f}")


# -- criterion 4: L1 hit-count preservation ------------------------------


def test_criterion_04_l1_hit_preservation(sweep):
    worst = 0.0
    for name, runs in sweep.items():
        for r in runs:
            delta = abs(percent_change(r.totals, r.base_totals)["l1_hits"])
            worst = max(worst, delta)
            assert delta <= 0.01, f"{name} seed {r.seed}: |dL1| = {delta:.4f}"
    report(4, worst <= 0.01, f"worst |dL1 hits| over {len(SEEDS)} seeds x 4 configs: {worst:.4%}")


# -- criterion 5: locality-fidelity ordering -----------------------------


def test_criterion_05_locality_fidelity_ordering(locality_sweep):
    means = {}
    for name, runs in locality_sweep.items():
        pcs = [percent_change(r.totals, r.base_totals) for r in runs]
        means[name] = (
            statistics.fmean(abs(pc["l2_hits"]) for pc in pcs),
            statistics.fmean(abs(pc["cycles"]) for pc in pcs),
        )
    m8, fx = means["markov8"], means["fixed-rate"]
    ok = m8[0] < fx[0] and m8[1] < fx[1]
    report(5, ok, f"mean |dL2|/|dcycles|: markov8 {m8[0]:.4f}/{m8[1]:.4f} "
                  f"vs fixed-rate {fx[0]:.4f}/{fx[1]:.4f}")


# -- criterion 6: accuracy ordering and flatness -------------------------


HL_PHASE, MARKER_PHASE, VA_PHASE, RA_PHASE = 0, 1, 2, 3  # catalog order on the preset


def steady_accuracies(run, pid):
    """Accuracies of swapped intervals, skipping the first interval after
    each entry into the phase (it starts from another phase's state)."""
    out = []
    prev_pid = None
    for rec in run.intervals:
        if rec.phase_id == pid and rec.directive != "base" and prev_pid == pid:
            out.append(rec.accuracy)
        prev_pid = rec.phase_id
    return out


def lsq_slope(ys):
    n = len(ys)
    xbar = (n - 1) / 2
    ybar = sum(ys) / n
    num = sum((i - xbar) * (y - ybar) for i, y in enumerate(ys))
    den = sum((i - xbar) ** 2 for i in range(n))
    return num / den


def test_criterion_06_accuracy_ordering_and_flatness(sweep):
    # ordering of per-phase mean accuracy on the locality-rich phases
    mean_acc = {}
    for name in ("fixed-rate", "markov4", "markov8"):
        per_seed = [per_phase_accuracy(r.intervals) for r in sweep[name]]
        mean_acc[name] = {
            pid: statistics.fmean(acc[pid][0] for acc in per_seed)
            for pid in (HL_PHASE, VA_PHASE)
        }
    for pid in (HL_PHASE, VA_PHASE):
        assert mean_acc["markov8"][pid] >= mean_acc["markov4"][pid], f"phase {pid}"
        assert mean_acc["markov4"][pid] >= mean_acc["fixed-rate"][pid] - 0.02, f"phase {pid}"

    # no monotone decline within swapped phases
    worst_slope = 0.0
    for name, runs in sweep.items():
        for r in runs:
            for pid in range(r.phase_count):
                ys = steady_accuracies(r, pid)
                if len(ys) >= 5:
                    worst_slope = min(worst_slope, lsq_slope(ys))
    assert worst_slope >= -0.001, f"worst accuracy slope {worst_slope:.5f}"

    # run-to-run stability of per-phase accuracy
    worst_sd = 0.0
    for name in ("fixed-rate", "markov4", "markov8", "all"):
        per_seed = [per_phase_accuracy(r.intervals) for r in sweep[name]]
        for pid in per_seed[0]:
            sd = statistics.pstdev([acc[pid][0] for acc in per_seed])
            worst_sd = max(worst_sd, sd)
    ok = worst_sd < 0.01
    report(6, ok and worst_slope >= -0.001,
           f"means {mean_acc}, worst slope {worst_slope:.5f}, worst seed-stddev {worst_sd:.5f}")


# -- criterion 7: marker-phase selection ---------------------------------


def test_criterion_07_marker_phase_selection(full_run):
    blocks = phase_blocks(full_run.intervals)
    marker = max(blocks, key=blocks.get)  # the marker recurs after every phase
    ok = (
        full_run.chosen[marker] == "fixed-rate"
        and full_run.chosen[HL_PHASE] == "markov8"
        and full_run.chosen[VA_PHASE] == "markov8"
    )
    report(7, ok, f"chosen {full_run.chosen}, marker id {marker}")


# -- criterion 8: oracle equivalences ------------------------------------


def quadratic_reuse(stream):
    out, last = [], {}
    for t, line in enumerate(stream):
        out.append(len(set(stream[last[line] + 1 : t])) if line in last else None)
        last[line] = t
    return out


def oracle_markov_predict(counts, n_states, row_state, is_write, near, u):
    """Enumerate legal states for the context, renormalize and draw."""
    legal = [
        s
        for s in range(n_states)
        if bool((s >> 1) & 1) == is_write and (n_states == 4 or bool((s >> 2) & 1) == (not near))
    ]
    h = next(s for s in legal if s % 2 == 0)
    m = next(s for s in legal if s % 2 == 1)
    if counts[row_state][h] + counts[row_state][m] > 0:
        p = counts[row_state][h] / (counts[row_state][h] + counts[row_state][m])
    else:
        ch = sum(row[h] for row in counts)
        cm = sum(row[m] for row in counts)
        if ch + cm == 0:
            return False
        p = ch / (ch + cm)
    return u < p


def test_criterion_08_oracle_equivalences():
    from swapsim.metrics import ReuseDistanceTracker

    # (a) reuse distances against the quadratic oracle
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randrange(100, 3000)
        stream = [rng.randrange(rng.randrange(4, 256)) for _ in range(n)]
        assert ReuseDistanceTracker().observe_all(stream) == quadratic_reuse(stream)

    # (b) detailed cache against a list-based LRU
    for cfg in (
        CacheConfig(512, 1, 64, 4),
        CacheConfig(1024, 2, 32, 4),
        CacheConfig(2048, 4, 64, 4),
        CacheConfig(4096, 8, 32, 4),
    ):
        for _ in range(100):
            fast = SetAssociativeCache(cfg)
            sets = [[] for _ in range(cfg.set_count)]
            shift = cfg.line_bytes.bit_length() - 1
            addrs = [rng.randrange(16 * cfg.total_bytes) for _ in range(200)]
            ref_misses = []
            for i, a in enumerate(addrs):
                line = a >> shift
                s = sets[line & (cfg.set_count - 1)]
                ref_hit = line in s
                if ref_hit:
                    s.remove(line)
                elif len(s) >= cfg.associativity:
                    s.pop(0)
                s.append(line)
                if not ref_hit:
                    ref_misses.append(i)
            assert fast.misses(addrs) == ref_misses

    # (c) restricted Markov prediction on a dense u-grid, through the
    # swapped path: a one-reference interval, near or far by the address
    # before it
    checked = 0
    addr = 0x1040
    for n_states in (4, 8):
        model = MarkovModel(n_states)
        model.counts = [rng.choice([0, 0, 1, 3, 17]) for _ in range(n_states * n_states)]
        counts = [model.counts[i * n_states:(i + 1) * n_states] for i in range(n_states)]
        for row_state in range(n_states):
            for is_write in (False, True):
                for near in (False, True) if n_states == 8 else (True,):
                    for k in range(1000):
                        u = k / 1000
                        model.last_state = row_state
                        got = not model.predict_interval([is_write], [addr], addr if near else -1,
                                                         FixedU(u))
                        want = oracle_markov_predict(counts, n_states, row_state, is_write, near, u)
                        assert got == want, (n_states, row_state, is_write, near, u)
                        checked += 1
    report(8, True, f"reuse, LRU and {checked} restricted-prediction points match")


# -- criterion 9: determinism --------------------------------------------


def test_criterion_09_byte_identical_reports(tmp_path):
    from swapsim.trace import PhaseKind, SyntheticPhaseSpec, generate_trace, write_trace

    specs = [SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 40_000, seed=51),
             SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 40_000, seed=52)]
    trace = generate_trace(specs, iterations=2,
                           marker_spec=SyntheticPhaseSpec(PhaseKind.MARKER, 20_000, seed=53))
    tpath = tmp_path / "t.txt"
    write_trace(trace, tpath)
    args = ["run", "--trace", str(tpath), "--seed", "4", "--validate",
            "--interval-len", "2000", "--stable-min", "2"]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    same = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes()
        for n in ("report.json", "intervals.csv", "reuse.csv")
    )
    report(9, same, "two identical runs, byte-identical report files")


# -- criterion 10: cycle-error sanity ------------------------------------


def test_criterion_10_cycle_error_sanity(full_run):
    delta = abs(percent_change(full_run.totals, full_run.base_totals)["cycles"])
    report(10, delta <= 0.15, f"|dcycles| = {delta:.4f}")
