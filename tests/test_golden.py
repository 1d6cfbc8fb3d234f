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
from swapsim.models import SWAP_KINDS
from swapsim.scoring import ScoreVector
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
        "18faf4f507bddbe3fd069e08deff69737aaa8a86cda920144316bde1c90b6be3",
        "4ddaa536ad6f2eff4a98dfe6e67c16a5ef5f9e0595cbc755c94c63a1c990ce5f",
        "f6768465e938262d96f1cab2ffb0ad74868d4ba776dc52caae1df50931779a90",
    ),
    "fixed-rate": (
        "85b6f554cef1d6fdd956050419309b38dc83eebfd8b62d877faf737fe9473f9a",
        "12f555867606ffaa3eb16844f5cfa9fb0643885bb4a46724b526f9aaa643d42d",
        "cb00e0c28800488a578bd4b9c59ea7ce3d6ff86cb999b046e8d98deb59b3d7d5",
    ),
    "markov4": (
        "512b3bd00a47c734b37ae7fa4ffd3a9ea3564adf28280ac8ea792dcb2d1c84b4",
        "e2b268cda37ee19c5d20256f6b9ffd1273891107fee2ae079c294bb9c01685a4",
        "2cf6a52204537b3c078b9268a2753a851c73063c677085473a0b3f5a25d30d4f",
    ),
    "markov8": (
        "3a69f8c2cc0c461057bb7f4f9525819b6d0c367471cd5fb8785b0fa52dc22ab5",
        "90a79ae95e2fc6517babbdc409a0b9c4ecf46d5b69f2273b89e806fce5c46e34",
        "9471888b2970571ac3bfca4706fcbc238f4e7889fa19f3209c0aba9edddf788c",
    ),
    "tail": (
        "2d6dd6162429d125ab9277948928166dedb19888621c9d9863305840482202c3",
        "fee62a633936320cba35bc6fea8b293d1db02cfb48541702bfb4ea324e01ff12",
        "abfae8a475a984212fc7a987ac53b44fbcd08ca3f4ad507794f349ad5afbed95",
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
    "8ac512624fb828417f0f8553e8429f9a8795c6c4754ab1270726dd0f668c2608",
    "c1defa91352da77d8e14ba9e942f50d1f0e3dd7f166a686278b50f9ff7cdb277",
    "2b5dce56e2ca44376830990df969547152f158343148e010706c682aae7f5dd7",
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
