"""The benchmark's workloads: how each builds its input from a seed, the
operation that is timed, how its output is checked, and the guard that
the input still exercises what the workload was chosen for.

Every operation starts from fresh simulator objects, so the modelled
caches start cold. All simulator settings are the defaults.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from swapsim import cli, sim
from swapsim.cache import HierarchyConfig
from swapsim.trace import (
    PhaseKind,
    SyntheticPhaseSpec,
    build_preset,
    generate_trace,
    write_trace,
)

from checks import check_totals

# The hierarchy that run_simulation and `swapsim run` use by default;
# its latencies recompute the cycle counts.
HCFG = HierarchyConfig()

# detailed-churn: phases of 25 000 references (2.5 intervals) never stay
# stable for stable_min intervals, so no phase is ever cataloged. Ten
# repetitions instead of twenty halve the time per operation; every
# interval has the same mix either way.
CHURN_PHASE_LEN = 25_000
CHURN_REPEATS = 10

# The reference run for the fidelity metrics of the workloads that do not
# validate: the locality preset with seed 1, fixed across seeds.
REFERENCE_SEED = 1


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks need."""

    refs: int
    totals: dict
    base_totals: dict | None
    intervals: list  # (phase_id, directive, accuracy) per full interval
    phase_count: int
    digest: str  # sha256 of report.json, or of the canonical RunResult

    @property
    def swapped(self) -> int:
        return sum(1 for _pid, directive, _acc in self.intervals if directive != "base")

    def counts(self) -> dict:
        """Deterministic values for the determinism lock."""
        return {
            "phase.intervals": len(self.intervals),
            "phase.phases": self.phase_count,
            "phase.unclassified_intervals": sum(1 for iv in self.intervals if iv[0] < 0),
            "controller.intervals.swapped": self.swapped,
            "sha256": self.digest,
        }


def _result_outcome(result, refs: int) -> Outcome:
    canonical = {
        "totals": result.totals,
        "base_totals": result.base_totals,
        "phase_count": result.phase_count,
        "chosen": {str(k): v for k, v in result.chosen.items()},
        "scores": {str(k): v for k, v in result.scores.items()},
        "score_vectors": {str(k): v for k, v in result.score_vectors.items()},
        "intervals": [asdict(r) for r in result.intervals],
        "reuse": {str(k): [h.cold_count, h.cap, h.to_rows()] for k, h in result.reuse.items()},
    }
    digest = hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()
    return Outcome(
        refs=refs,
        totals=result.totals,
        base_totals=result.base_totals,
        intervals=[(r.phase_id, r.directive, r.accuracy) for r in result.intervals],
        phase_count=result.phase_count,
        digest=digest,
    )


class SimWorkload:
    """A generated trace simulated in memory by run_simulation, without
    validation and with reuse collection on."""

    validates = False

    def __init__(self, name: str, generate, guard, inputs_per_run: int):
        self.name = name
        self._generate = generate
        self.guard = guard
        self.inputs_per_run = inputs_per_run

    def build(self, seed: int, workdir: Path):
        """Returns (input, reference count, generation seconds)."""
        t0 = perf_counter()
        trace = self._generate(seed)
        return trace, len(trace), perf_counter() - t0

    def op(self, trace, seed: int, workdir: Path):
        return sim.run_simulation(trace, seed=seed, validate=False, collect_reuse=True)

    def outcome(self, result, refs: int) -> tuple[Outcome, list[str]]:
        out = _result_outcome(result, refs)
        return out, check_totals("totals", out.totals, refs, HCFG)


def _mostly_swapped(out: Outcome) -> list[str]:
    n = len(out.intervals)
    if 2 * out.swapped > n:
        return []
    return [f"shape: only {out.swapped} of {n} intervals swapped (want most)"]


def _never_swapped(out: Outcome) -> list[str]:
    if out.phase_count == 0 and out.swapped == 0:
        return []
    return [f"shape: {out.phase_count} phases cataloged, {out.swapped} of "
            f"{len(out.intervals)} intervals swapped (want none)"]


class ValidateFileWorkload:
    """A locality trace written as text, run through `swapsim run
    --validate` in-process: parse, simulate with the lockstep detailed
    hierarchy, write report.json and the CSV files."""

    name = "validate-file"
    validates = True
    # One locality run's L2-hit error alone has an IQR of about a quarter
    # of its median across seeds; its fidelity metrics pool four runs.
    inputs_per_run = 4

    def build(self, seed: int, workdir: Path):
        t0 = perf_counter()
        trace = build_preset("locality", seed)
        gen = perf_counter() - t0
        path = workdir / f"trace-{seed}.txt"
        write_trace(trace, path)
        return path, len(trace), gen

    def op(self, path: Path, seed: int, workdir: Path) -> tuple[int, Path]:
        out_dir = workdir / f"out-{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--trace", str(path), "--validate",
                             "--seed", str(seed), "--out", str(out_dir)])
        return code, out_dir

    def outcome(self, raw: tuple[int, Path], refs: int) -> tuple[Outcome | None, list[str]]:
        code, out_dir = raw
        if code != 0:
            return None, [f"swapsim run exited {code}"]
        try:
            data = (out_dir / "report.json").read_bytes()
            report = json.loads(data)
            for name in ("intervals.csv", "reuse.csv"):
                with open(out_dir / name, newline="", encoding="utf-8") as f:
                    rows = list(csv.reader(f))
                if not rows:
                    return None, [f"{name}: empty"]
            out = Outcome(
                refs=refs,
                totals=report["totals"],
                base_totals=report["base_totals"],
                intervals=[(r["phase_id"], r["directive"], r["accuracy"])
                           for r in report["intervals"]],
                phase_count=report["phase_count"],
                digest=hashlib.sha256(data).hexdigest(),
            )
        except (OSError, ValueError, KeyError, TypeError, csv.Error) as e:
            return None, [f"report files: {e!r}"]
        problems = check_totals("totals", out.totals, refs, HCFG)
        problems += check_totals("base_totals", out.base_totals, refs, HCFG)
        return out, problems

    def guard(self, out: Outcome) -> list[str]:
        return [] if out.base_totals else ["shape: no base_totals"]


def _churn_trace(seed: int):
    phases = [
        SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, CHURN_PHASE_LEN, seed * 1000 + 1),
        SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, CHURN_PHASE_LEN, seed * 1000 + 3),
        SyntheticPhaseSpec(PhaseKind.VECTOR_ADD, CHURN_PHASE_LEN, seed * 1000 + 2),
    ]
    return generate_trace(phases, iterations=CHURN_REPEATS)


WORKLOADS = {
    w.name: w
    for w in (
        # Two inputs for the longest operation keep a run short.
        SimWorkload("swap-steady", lambda seed: build_preset("meabo3-small", seed),
                    _mostly_swapped, inputs_per_run=2),
        SimWorkload("detailed-churn", _churn_trace, _never_swapped, inputs_per_run=3),
        ValidateFileWorkload(),
    )
}


def reference_outcome() -> tuple[Outcome, list[str]]:
    """The validated reference run whose fidelity the non-validating
    workloads report; untimed."""
    trace = build_preset("locality", REFERENCE_SEED)
    out = _result_outcome(sim.run_simulation(trace, seed=REFERENCE_SEED, validate=True),
                          len(trace))
    problems = check_totals("reference totals", out.totals, out.refs, HCFG)
    problems += check_totals("reference base_totals", out.base_totals, out.refs, HCFG)
    return out, problems
