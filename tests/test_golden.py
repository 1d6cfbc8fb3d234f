"""Golden hashes of `swapsim run` output files.

Each case runs the CLI in-process on a small fixed trace, or on one
preset at the default configuration, and pins the sha256 of report.json,
intervals.csv and reuse.csv. A refactor that is
meant to keep behaviour must leave every hash as it is; a change that
moves one must say why and record the new value.
"""
import hashlib
import json
from collections import Counter

import pytest

from swapsim.cli import EXIT_OK, main
from swapsim.controller import ScoreVector
from swapsim.models import SWAP_KINDS
from swapsim.trace import PhaseKind, SyntheticPhaseSpec, generate_trace, write_trace

FAST = ["--interval-len", "2000", "--stable-min", "2"]
TRAIN_INTERVALS = 2  # the default training budget, passed explicitly
FILES = ("report.json", "intervals.csv", "reuse.csv")


def _trace(marker_len):
    specs = [SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 12_000, seed=61),
             SyntheticPhaseSpec(PhaseKind.VECTOR_ADD, 12_000, seed=62),
             SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 12_000, seed=63)]
    return generate_trace(specs, iterations=2,
                          marker_spec=SyntheticPhaseSpec(PhaseKind.MARKER, marker_len, seed=64))


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    out = {}
    # 108 000 references: 54 full intervals; 108 606: a 606-reference tail.
    for name, marker_len in (("even", 6_000), ("tail", 6_101)):
        tr = _trace(marker_len)
        write_trace(tr, d / f"{name}.txt")
        out[name] = (str(d / f"{name}.txt"), len(tr))
    return out


CASES = {
    "validate": ("even", ["--validate"]),
    "fixed-rate": ("even", ["--validate", "--models", "fixed-rate"]),
    "markov4": ("even", ["--validate", "--models", "markov4"]),
    "markov8": ("even", ["--validate", "--models", "markov8"]),
    "tail": ("tail", ["--validate"]),
}

GOLDEN = {
    "validate": (
        "6fe1214fc3b2ac3fff2eb7bcaa0f78e49715a9785fdb17cb6b91a359599eb38b",
        "4ddaa536ad6f2eff4a98dfe6e67c16a5ef5f9e0595cbc755c94c63a1c990ce5f",
        "3ec547845888733ff84f3ea6af94906cabee166eedf2adf50d93de50d1067f11",
    ),
    "fixed-rate": (
        "d51b208d5d6a4840270a941484d608ddb3df1532ea1b0ac514c19f8affb9be8a",
        "12f555867606ffaa3eb16844f5cfa9fb0643885bb4a46724b526f9aaa643d42d",
        "ac752a94a02fef39c5cf8050179994de9d364cdb2e03cc4a1726f63043f0c282",
    ),
    "markov4": (
        "3aaf5ae5d43048f573250ea74080eb4e1760fadb5b1ff3ec51e8070081992309",
        "e2b268cda37ee19c5d20256f6b9ffd1273891107fee2ae079c294bb9c01685a4",
        "633ae81d5559ebb63656a8a90ad283b64b90ff089d5ad72c8ec16c805e8430f8",
    ),
    "markov8": (
        "810a23e28f9c4a949133a6870225c4b922a36c4c30b3194545cddd4ff7fd5c67",
        "90a79ae95e2fc6517babbdc409a0b9c4ecf46d5b69f2273b89e806fce5c46e34",
        "336dff2470087f08a4a47056d279dac222ba9e7dfa83dec01a67142f4ac271f9",
    ),
    "tail": (
        "bc1071b753e08c9d64407a374e892d4515c8d76630b5a7e1e7035adc94aa0cc1",
        "fee62a633936320cba35bc6fea8b293d1db02cfb48541702bfb4ea324e01ff12",
        "e8599fbb2e22d87d794b90b9cd54a998cb0714afe4cf52c6de4789e80cace7cc",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_hashes(case, traces, tmp_path):
    name, flags = CASES[case]
    path, refs = traces[name]
    out = tmp_path / "out"
    assert main(["run", "--trace", path, "--seed", "3", "--out", str(out), *FAST,
                 "--train-intervals", str(TRAIN_INTERVALS), *flags]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    served = sum(report["totals"][k] for k in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses"))
    assert served == refs
    directives = {r["directive"] for r in report["intervals"]}
    # Each case reaches the path it is there for.
    if case in ("fixed-rate", "markov4", "markov8"):
        assert case in directives
    else:
        assert directives > {"base"}
    # Each interval is labeled before it runs, so a swapped interval runs
    # the model chosen for its own phase.
    for r in report["intervals"]:
        if r["directive"] != "base":
            assert r["directive"] == report["chosen_models"].get(str(r["phase_id"]))
    # A phase trains on its first labeled intervals until it swaps, so a
    # chosen phase ran base on exactly the training budget and any other
    # cataloged phase on fewer.
    labeled = {r["phase_id"] for r in report["intervals"] if r["phase_id"] >= 0}
    base = Counter(r["phase_id"] for r in report["intervals"] if r["directive"] == "base")
    for pid in labeled:
        if str(pid) in report["chosen_models"]:
            assert base[pid] == TRAIN_INTERVALS, pid
        else:
            assert base[pid] < TRAIN_INTERVALS, pid
    # Each scalar score is its vector's distance from the ideal, and a
    # phase's model is their argmin, ties going to the earlier kind.
    order = [k.value for k in SWAP_KINDS]
    assert report["scores"].keys() == report["score_vectors"].keys()
    for pid, vectors in report["score_vectors"].items():
        scores = {k: ScoreVector(*v).distance_from_ideal() for k, v in vectors.items()}
        assert report["scores"][pid] == scores
        if scores:
            best = min(scores, key=lambda k: (scores[k], order.index(k)))
            assert report["chosen_models"][pid] == best
        else:
            assert pid not in report["chosen_models"]
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES)
    assert got == GOLDEN[case]


# `run --synthetic meabo3-small --seed 1 --validate` at the default
# detector, controller and cache configuration.
PRESET_GOLDEN = (
    "15d64764c104b1f50e18186676c352dc2c4b3c2660d651d6ce192a1c5fc62f74",
    "c1defa91352da77d8e14ba9e942f50d1f0e3dd7f166a686278b50f9ff7cdb277",
    "e781e139b9183c30821e297321bdccf070f528438d42a0e37e2ce4e39da31b51",
)


def test_golden_preset_at_default_config(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--synthetic", "meabo3-small", "--seed", "1", "--validate",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    served = sum(report["totals"][k] for k in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses"))
    assert served == 2 * 3 * (240_000 + 100_000)
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES)
    assert got == PRESET_GOLDEN


def test_model_choice_does_not_depend_on_seed(traces, tmp_path):
    # Shadow predictions count their expected value and make no draw, so
    # the seed reaches only the swapped intervals, not the model choice.
    path, _ = traces["even"]
    reports = []
    for seed in ("3", "4"):
        out = tmp_path / seed
        assert main(["run", "--trace", path, "--seed", seed, "--out", str(out), *FAST]) == EXIT_OK
        reports.append(json.loads((out / "report.json").read_text()))
    a, b = reports
    assert a["chosen_models"]
    for key in ("scores", "score_vectors", "chosen_models"):
        assert a[key] == b[key]
    assert a["intervals"] != b["intervals"]  # the swapped intervals did draw
