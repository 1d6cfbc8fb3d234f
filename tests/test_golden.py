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
        "5c18ee06c0558779e07862803b86a3206c0b1b2841e91e64fb15dd34872009b3",
        "49d173c2f7fdd4c8be0b2900254d3cb2d581260b59c9bf4559d9fc658e38baad",
        "81bc9338001d8b9f196ed90092bd51d65b5b8b3b458e605d84034046afb02291",
    ),
    "fixed-rate": (
        "c811d2e484558d7fe152f934bf4789249264714b190d73f3fb9f3e78fbb97765",
        "d3a1c05ee8ef9ad1e4271de31842a974851ffa1408f716fdb212fe4c1300a50a",
        "d51f2ccf4cb08531d6fb0c2ec480b95e278c2058c9fadd17b8aaf02aea539dab",
    ),
    "markov4": (
        "2cfc82fa68457ee3c4ded4470c54eedd6fdfa3024443eca142b8a95f044e7f95",
        "886009e6b4fc02d9e88e81a7caab0bc0c6ea2f8d85ae0bc330bb2d4bfa239897",
        "d5e18ebf92d58353eec713767eb407f62da731a07ec954b283aae4a9d4380f60",
    ),
    "markov8": (
        "f9809d409a0ec1ac572758cb2f6948de8418209bf438aee1bd251d2c9da23106",
        "5ae69085e3b24d98d31c0f92b9e65fc3576cc18d214ab57d095308661276b382",
        "940a818d8ec0b5c4e9d58ffaeded537ffeeec4f58870de70e69bae7e0636c7a6",
    ),
    "tail": (
        "34a80bcd44163b0395c98cea575b86ce648ee5e796388476519ab930cdb49290",
        "0f1d5931a64305f2ddb8b5b5165a034cde76b0091288ff8a1e8fff85b47df175",
        "b792107dd42a9ea582e221fb85f85f5cd033a1c70a57a5fa66b62a406e17704a",
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
