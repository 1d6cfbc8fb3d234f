"""Golden hashes of `swapsim run` output files.

Each case runs the CLI in-process on a small fixed trace and pins the
sha256 of report.json, intervals.csv and reuse.csv. A refactor that is
meant to keep behaviour must leave every hash as it is; a change that
moves one must say why and record the new value.
"""
import hashlib
import json

import pytest

from swapsim.cli import EXIT_OK, main
from swapsim.trace import PhaseKind, SyntheticPhaseSpec, generate_trace, write_trace

FAST = ["--interval-len", "2000", "--stable-min", "2"]
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
    "given-up": ("even", ["--give-up-after", "1"]),
}

GOLDEN = {
    "validate": (
        "ffec5a61a4d3cb31a6b122b8a1537fb7ab52a65697da797473cef3aede192e5a",
        "285132ae08e69cbef1e7017c0b41489d6b902c574d4bdf9cc2b301fc3e22894c",
        "a1d55ff5b3306064abe6604593dbba021f4504d380a201d8fdd2224b4f98cc94",
    ),
    "fixed-rate": (
        "73dfeb95eca8a00562e8290e7fd70629cc87b48ca957e3c3373a138815354235",
        "65c3b4dab09fb6f128adfe98358c71e9d94a902aaf6306c9f858de55b64f6191",
        "fef23b71a041b3cf27febfaee860d6bcea46e4855907ae9f149cb3ccdc70de72",
    ),
    "markov4": (
        "66df0ff581f50f7f7de148a97c9cce1fe7dc2b16b30f4a22c02acbc49cf10c88",
        "d8f03ee4ff3b7ac3e1070ab75f08dcc373d623586f75558385d7b0fd407ba95d",
        "b56919221d35976f55c6674dac910a0447a1465d78f4626c396bb0a0c928df76",
    ),
    "markov8": (
        "9af00835aad8241ab00997ae0923ad6e47bfbff88d00cbab1024d23f56d775bc",
        "285132ae08e69cbef1e7017c0b41489d6b902c574d4bdf9cc2b301fc3e22894c",
        "a1d55ff5b3306064abe6604593dbba021f4504d380a201d8fdd2224b4f98cc94",
    ),
    "tail": (
        "8385c54c1ac7251e4f692442e0513a19e2b9d496d3cdec276e490c6610755954",
        "fc6c46d2092064cb75850beb66a2fedc586bf923b7900403dc5e4baa9b731833",
        "dac7dd29a2f43d29aa03d854ff5456267a61d75a39f23062063c55bbaec0ed34",
    ),
    "given-up": (
        "1f374075761138c84a90c7ae65697c10eb1cc4acd972b1eecd59ff2fd7565c53",
        "c5ce4c0f8b5e917b1f9dd9d62a2b1b708e761ac48b4a20299032375fb63f0bbb",
        "07962cf3f8c78b8f16b663d36c5ce7d4709e908f18547062b33302a51fece135",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_hashes(case, traces, tmp_path):
    name, flags = CASES[case]
    path, refs = traces[name]
    out = tmp_path / "out"
    assert main(["run", "--trace", path, "--seed", "3", "--out", str(out),
                 *FAST, *flags]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    served = sum(report["totals"][k] for k in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses"))
    assert served == refs
    directives = {r["directive"] for r in report["intervals"]}
    # Each case reaches the path it is there for.
    if case in ("fixed-rate", "markov4", "markov8"):
        assert case in directives
    elif case == "given-up":
        assert report["phase_count"] >= 1 and report["chosen_models"] == {}
        assert directives == {"base"}
    else:
        assert directives > {"base"}
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES)
    assert got == GOLDEN[case]


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
