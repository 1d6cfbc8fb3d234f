"""Untraced and traced runs of one workload: set-up, timed operations,
checks, and the metrics they yield."""
from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import hostspeed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Each run builds `wl.inputs_per_run` inputs from sub-seeds of --seed.
# Set-up time is the median over them, every operation runs one of them,
# and the fidelity metrics of validate-file pool all of them.
SUBSEED_STRIDE = 1_000_003

# No new operation starts after this many seconds of the run, so that
# the process ends well within the 180 s a run may take.
START_DEADLINE_S = 120.0


def _problem(msg: str) -> None:
    print(f"CHECK FAILED: {msg}")


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _timed_op(wl, inp, seed: int, workdir: Path, refs: int):
    """One operation, after a garbage collection: (wall ns, outcome,
    problems)."""
    gc.collect()
    t0 = perf_counter_ns()
    raw = wl.op(inp, seed, workdir)
    elapsed = perf_counter_ns() - t0
    return elapsed, *wl.outcome(raw, refs)


def _probed_op(wl, inp, seed: int, workdir: Path, refs: int):
    """One operation, after a garbage collection, under the host-speed
    probe: (probe, outcome, problems)."""
    gc.collect()
    with hostspeed.Probe() as probe:
        raw = wl.op(inp, seed, workdir)
    return probe, *wl.outcome(raw, refs)


def _reference_fidelity(source: str):
    """Fidelity of the reference run, which depends on the sources only:
    run and checked once per source tree, then read back. Returns
    (fidelity or None, operations run, problems)."""
    path = OUT / "reference" / f"{source}.json"
    if path.exists():
        return json.loads(path.read_text()), 0, []
    ref, problems = workloads.reference_outcome()
    if problems:
        return None, 1, problems
    fid = checks.fidelity([ref])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(fid))
    os.replace(tmp, path)
    return fid, 1, []


def untraced(wl, seed: int, seconds: float, workdir: Path, source: str):
    run_start = perf_counter()
    seeds = [seed + k * SUBSEED_STRIDE for k in range(wl.inputs_per_run)]
    inputs, setup = [], []
    for s in seeds:
        with hostspeed.Probe() as probe:
            inp, refs, _gen = wl.build(s, workdir)
        setup.append(probe.norm_s)
        inputs.append((s, inp, refs))

    attempted = failed = 0
    rates, firsts = [], {}
    loop_start = perf_counter()
    while (attempted < len(inputs) or perf_counter() - loop_start < seconds) \
            and perf_counter() - run_start < START_DEADLINE_S:
        s, inp, refs = inputs[attempted % len(inputs)]
        attempted += 1
        probe, out, problems = _probed_op(wl, inp, s, workdir, refs)
        dt = probe.norm_s
        if out is not None:
            problems += wl.guard(out)
            first = firsts.setdefault(s, out)
            if out.counts() != first.counts():
                problems.append(f"seed {s}: output differs from this run's first operation")
        for p in problems:
            _problem(f"seed {s}: {p}")
        if problems:
            failed += 1
        else:
            rates.append(refs / dt)
        wall = probe.wall_ns / 1e9
        print(f"op {attempted}: seed {s}, {refs} refs, {wall:.3f} s wall, "
              f"host speed {probe.speed:.3f}, {refs / dt:.0f} refs/s normalised")
    peak = _peak_rss_mib()
    if not rates:
        return None

    metrics = {
        "refs_per_s": (statistics.median(rates), "refs/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    if wl.validates:
        pooled = [firsts.get(s) for s in seeds]
        fid = checks.fidelity(pooled) if all(pooled) else None
    else:
        fid, ran, problems = _reference_fidelity(source)
        for p in problems:
            _problem(p)
        attempted += ran
        failed += bool(problems)
    if fid is not None:
        units = {"swap_accuracy": "fraction"}
        metrics.update({k: (v, units.get(k, "%")) for k, v in fid.items()})

    lock = {f"s{s}.{k}": v for s, out in sorted(firsts.items()) for k, v in out.counts().items()}
    lock.update(fid or {})
    problems = checks.lock_check(OUT / "lock" / f"{wl.name}-s{seed}.json", source, "untraced", lock)
    for p in problems:
        _problem(p)
    failed += bool(problems)
    return attempted, failed, metrics


# Every per-layer metric the traced run reports, with its unit. Times are
# host time; counts are simulated events.
LAYER_UNITS = {
    "trace.load_ns_per_ref": "ns/ref",
    "trace.generate_ns_per_ref": "ns/ref",
    "phase.observe_ns_per_ref": "ns/ref",
    "phase.intervals": "count",
    "phase.phases": "count",
    "phase.unclassified_intervals": "count",
    "controller.on_access_ns.swapped": "ns/call",
    "controller.on_access_ns.base": "ns/call",
    "controller.on_access_ns.training": "ns/call",
    "controller.on_interval_end_us": "us/call",
    "controller.intervals.base": "count",
    "controller.intervals.training": "count",
    "controller.intervals.swapped": "count",
    "controller.swapped_frac": "fraction",
    "models.predict_ns.fixed-rate": "ns/call",
    "models.predict_ns.markov4": "ns/call",
    "models.predict_ns.markov8": "ns/call",
    "models.train_ns": "ns/call",
    "models.predict_calls.fixed-rate": "count",
    "models.predict_calls.markov4": "count",
    "models.predict_calls.markov8": "count",
    "cache.l1_hit_check_ns": "ns/call",
    "cache.miss_to_l2_ns": "ns/call",
    "cache.validate_access_ns": "ns/call",
    "cache.miss_to_l2_calls": "count",
    "metrics.reuse_observe_ns": "ns/call",
    "metrics.reuse_observe_calls": "count",
    "sim.self_ns_per_ref": "ns/ref",
    "cli.report_write_ms": "ms",
    "tracing.overhead_s": "s",
    "tracing.wrapper_ns": "ns",
    "tracing.call_overhead_ns": "ns",
    "src.lines": "lines",
}


def traced(wl, seed: int, workdir: Path, source: str, src_lines: int):
    inp, refs, gen_s = wl.build(seed, workdir)
    # Untraced operations before and after the traced one; their mean is
    # the untraced wall time, so that a drift in host speed during the
    # run largely cancels out of the tracing overhead.
    before_ns, plain, problems = _timed_op(wl, inp, seed, workdir, refs)
    wrapper_ns, inner_ns = tracer.calibrate()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced_ns, out, more = _timed_op(wl, inp, seed, workdir, refs)
    finally:
        tr.uninstall()
    problems += more
    after_ns, again, more = _timed_op(wl, inp, seed, workdir, refs)
    problems += more
    plain_ns = (before_ns + after_ns) / 2
    if out is None or plain is None or again is None:
        for p in problems:
            _problem(p)
        return None
    problems += wl.guard(out)
    if not out.counts() == plain.counts() == again.counts():
        problems.append("traced output differs from the untraced outputs")
    if sum(tr.intervals.values()) != len(out.intervals) or tr.intervals["swapped"] != out.swapped:
        problems.append(f"traced directive counts {tr.intervals} disagree with the "
                        f"{len(out.intervals)} interval records ({out.swapped} swapped)")

    # In-place cost of one wrapped call; the empty-call share that falls
    # inside the callee's window is kept.
    call_ns = (traced_ns - plain_ns) / max(1, tr.wrapped_calls())
    layer = tr.layer_metrics(refs, call_ns, inner_ns)
    counts = out.counts()
    layer.update({k: v for k, v in counts.items() if k.startswith("phase.")})
    layer["trace.generate_ns_per_ref"] = gen_s * 1e9 / refs
    cli_ns = traced_ns - tr.total_ns("load_trace") - tr.total_ns("run_simulation")
    layer["cli.report_write_ms"] = cli_ns / 1e6 if wl.name == "validate-file" else 0.0
    layer["tracing.overhead_s"] = (traced_ns - plain_ns) / 1e9
    layer["tracing.wrapper_ns"] = wrapper_ns
    layer["tracing.call_overhead_ns"] = call_ns
    layer["src.lines"] = src_lines
    print(f"untraced {before_ns / 1e9:.3f} s and {after_ns / 1e9:.3f} s, "
          f"traced {traced_ns / 1e9:.3f} s; empty wrapped call {wrapper_ns:.1f} ns "
          f"({inner_ns:.1f} ns inside its window), {call_ns:.1f} ns per wrapped call in place")

    lock = {k: v for k, v in layer.items() if isinstance(v, int) or k == "controller.swapped_frac"}
    lock["sha256"] = counts["sha256"]
    problems += checks.lock_check(OUT / "lock" / f"{wl.name}-s{seed}.json", source, "traced", lock)
    if set(layer) != set(LAYER_UNITS):
        problems.append(f"layer metrics {sorted(set(layer) ^ set(LAYER_UNITS))} "
                        "missing or unexpected")
    for p in problems:
        _problem(p)
    spans = OUT / "spans" / f"{wl.name}-s{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.write_text(json.dumps(tr.spans))
    metrics = {k: (layer.get(k, 0), unit) for k, unit in LAYER_UNITS.items()}
    return 3, int(bool(problems)), metrics


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (attempted, failed, {metric: (value, unit)}), or None when
    no operation produced a checked result."""
    source, src_lines = checks.source_digest(SRC / "swapsim")
    wl = workloads.WORKLOADS[workload]
    workdir = OUT / f"work-{workload}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            return traced(wl, seed, workdir, source, src_lines)
        return untraced(wl, seed, seconds, workdir, source)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
