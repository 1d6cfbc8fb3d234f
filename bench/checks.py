"""Output checks, fidelity metrics and the determinism lock.

Every check returns a list of problems; an empty list means the output
passed. A run whose output has any problem counts as a failed operation.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

LEVELS = ("l1_hits", "l2_hits", "l3_hits", "mem_accesses")


def check_totals(label: str, totals: dict | None, refs: int, hcfg) -> list[str]:
    """The level counters cover every reference, and cycles can be
    recomputed from the level counts and the configured latencies."""
    if not isinstance(totals, dict):
        return [f"{label}: missing"]
    try:
        served = sum(totals[k] for k in LEVELS)
        latencies = (hcfg.l1.hit_latency, hcfg.l2.hit_latency, hcfg.l3.hit_latency,
                     hcfg.memory_latency)
        cycles = sum(totals[k] * lat for k, lat in zip(LEVELS, latencies))
        reported = totals["cycles"]
    except (KeyError, TypeError) as e:
        return [f"{label}: malformed ({e!r})"]
    problems = []
    if served != refs:
        problems.append(f"{label}: levels serve {served} references, trace has {refs}")
    if reported != cycles:
        problems.append(f"{label}: cycles {reported} != sum(count x latency) {cycles}")
    return problems


def fidelity(outcomes: list) -> dict[str, float]:
    """Errors of the swapped runs against their lockstep detailed runs,
    over the summed totals (simulated counts), and the mean per-interval
    L1 prediction accuracy over all intervals that ran a swapped model."""
    keys = ("cycles", "l2_hits", "mem_accesses")
    model = {k: sum(o.totals[k] for o in outcomes) for k in keys}
    base = {k: sum(o.base_totals[k] for o in outcomes) for k in keys}
    err = {k: abs(model[k] - base[k]) / base[k] * 100.0 for k in keys}
    accs = [acc for o in outcomes for _pid, directive, acc in o.intervals if directive != "base"]
    return {
        "cycles_err_pct": err["cycles"],
        "l2_hits_err_pct": err["l2_hits"],
        "mem_err_pct": err["mem_accesses"],
        "swap_accuracy": sum(accs) / len(accs) if accs else 0.0,
    }


def source_digest(src: Path) -> tuple[str, int]:
    """sha256 over the simulator's Python sources, and their line count."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(src)).encode())
        h.update(data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def lock_check(path: Path, source: str, section: str, values: dict) -> list[str]:
    """Compare `values` with what an earlier run of the same sources and
    seed recorded under `section`; record them if nothing is recorded.
    Any difference is nondeterminism."""
    recorded = {}
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded.get("source_sha256") != source:
            recorded = {}
    old = recorded.get(section)
    if old is not None:
        return [f"lock {section}.{k}: {old.get(k)!r} before, {v!r} now"
                for k, v in sorted(values.items()) if old.get(k) != v]
    recorded["source_sha256"] = source
    recorded[section] = values
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []
