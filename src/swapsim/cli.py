"""Command-line entry point: `run` and `trace-gen` subcommands.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .cache import HierarchyConfig
from .controller import ControllerConfig
from .metrics import IntervalRecord, per_phase_accuracy
from .models import SWAP_KINDS, ModelKind
from .phase import PhaseDetectorConfig
from .sim import Runner, RunResult
from .trace import PRESET_NAMES, generate_blocks, preset_specs, read_blocks, write_blocks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Each flag has one spelling: `--valid` is not `--validate`.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="swapsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a trace and write report files")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace file to simulate")
    src.add_argument("--synthetic", choices=PRESET_NAMES, help="synthetic preset to simulate")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--models", default="all",
                     help="comma-separated candidate models, or 'all'")
    run.add_argument("--train-intervals", type=int, default=ControllerConfig.train_intervals)
    run.add_argument("--validate", action="store_true",
                     help="run a detailed hierarchy in lockstep, in the same thread, as ground truth")
    run.add_argument("--out", default="swapsim-out", help="output directory")
    run.add_argument("--interval-len", type=int, default=PhaseDetectorConfig.interval_len)
    run.add_argument("--stable-min", type=int, default=PhaseDetectorConfig.stable_min)
    run.add_argument("--config", help="JSON config file of hierarchy settings")

    gen = sub.add_parser("trace-gen", help="write a synthetic trace file")
    gen.add_argument("--synthetic", choices=PRESET_NAMES, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    return p


@dataclasses.dataclass(frozen=True)
class _ConfigFile:
    """The sections a --config file may have."""

    hierarchy: HierarchyConfig = HierarchyConfig()


def _section(value, default, prefix: str = ""):
    """Return the dataclass `default` with the keys of the config section
    `value` put in. A field holding a dataclass is a nested section, whose
    keys left out keep their defaults; every other field is an `int`.
    Raise ValueError naming the section or `section.key` when `value` is
    not a JSON object, has a key that is not a field, or gives a field a
    value that is not a JSON integer."""
    where = prefix[:-1] or "top level"
    if not isinstance(value, dict):
        raise ValueError(f"config {where} must be a JSON object, not {type(value).__name__}")
    unknown = sorted(set(value) - {f.name for f in dataclasses.fields(default)})
    if unknown:
        raise ValueError(f"unknown {where} key(s) in config: {', '.join(unknown)}")
    changes = {}
    for name, v in value.items():
        key = prefix + name
        current = getattr(default, name)
        if dataclasses.is_dataclass(current):
            v = _section(v, current, key + ".")
        # bool is an int subclass, but `true` is not an integer.
        elif isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"config {key} must be an integer, not {type(v).__name__}")
        changes[name] = v
    return dataclasses.replace(default, **changes)


def _controller_config(args) -> ControllerConfig:
    kinds = (SWAP_KINDS if args.models == "all"
             else tuple(ModelKind(m.strip()) for m in args.models.split(",")))
    return ControllerConfig(train_intervals=args.train_intervals, candidate_kinds=kinds)


def _reuse_report(hists: dict) -> dict:
    return {str(pid): {"cold": h.cold_count, "cap": h.cap, "buckets": h.to_rows()}
            for pid, h in sorted(hists.items())}


def _result_to_report(result: RunResult) -> dict:
    return {
        "seed": result.seed,
        "interval_len": result.interval_len,
        "swapped_fraction": result.swapped_fraction,
        "phase_count": result.phase_count,
        "chosen_models": {str(k): v for k, v in result.chosen.items()},
        "scores": {str(k): v for k, v in result.scores.items()},
        "score_vectors": {str(k): {m: list(v) for m, v in d.items()}
                          for k, d in result.score_vectors.items()},
        "totals": result.totals,
        "base_totals": result.base_totals,
        "per_phase_accuracy": {
            str(k): list(v) for k, v in per_phase_accuracy(result.intervals).items()
        },
        "intervals": [dataclasses.asdict(r) for r in result.intervals],
        "reuse": _reuse_report(result.reuse),
        "base_reuse": None if result.base_reuse is None else _reuse_report(result.base_reuse),
    }


def _write_csvs(report: dict, out: Path) -> None:
    with open(out / "intervals.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        # A record's dict keeps its fields' order; csv writes None as "".
        w.writerow(field.name for field in dataclasses.fields(IntervalRecord))
        w.writerows(r.values() for r in report["intervals"])

    with open(out / "reuse.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["stream", "phase_id", "distance", "count"])
        # Phase ids are in numeric order, as _reuse_report inserted them.
        for stream, data in (("model", report["reuse"]), ("base", report["base_reuse"])):
            for pid, hist in (data or {}).items():
                w.writerow([stream, pid, "cold", hist["cold"]])
                for distance, count in hist["buckets"]:
                    w.writerow([stream, pid, distance, count])


def _cmd_run(args) -> int:
    try:
        file_cfg = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as f:
                file_cfg = json.load(f)
        cfg = _section(file_cfg, _ConfigFile())
        det_cfg = PhaseDetectorConfig(interval_len=args.interval_len, stable_min=args.stable_min)
        ctrl_cfg = _controller_config(args)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise UsageError(f"config file {args.config} is not valid JSON: {e}") from None
    except ValueError as e:
        # A config value or flag the configuration rejects is a usage error.
        raise UsageError(str(e)) from None
    out = Path(args.out)
    # A file at --out or above it would fail mkdir after the whole run.
    for p in (out, *out.parents):
        if p.exists() and not p.is_dir():
            raise NotADirectoryError(f"--out {out}: {p} is not a directory")

    blocks = (read_blocks(args.trace) if args.trace
              else generate_blocks(*preset_specs(args.synthetic, args.seed)))
    # Streamed: a malformed line stops the run before anything is written.
    result = Runner(hierarchy_config=cfg.hierarchy, detector_config=det_cfg,
                    controller_config=ctrl_cfg, seed=args.seed,
                    validate=args.validate).run(blocks)
    out.mkdir(parents=True, exist_ok=True)
    report = _result_to_report(result)
    with open(out / "report.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_csvs(report, out)
    print(f"wrote {out / 'report.json'} ({result.phase_count} phases, "
          f"{result.swapped_fraction:.1%} of intervals swapped)")
    return EXIT_OK


def _cmd_trace_gen(args) -> int:
    refs = write_blocks(generate_blocks(*preset_specs(args.synthetic, args.seed)), args.out)
    print(f"wrote {args.out} ({refs} references)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_trace_gen(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
