"""Command-line interface: exit codes, file outputs, reproducibility."""
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import swapsim
import swapsim.cli
import swapsim.controller
import swapsim.trace
from swapsim.cache import DEFAULT_L1, DEFAULT_L2
from swapsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, _build_parser, _ConfigFile, _section, main
from swapsim.metrics import IntervalRecord
from swapsim.phase import PhaseDetectorConfig
from swapsim.trace import PhaseKind, SyntheticPhaseSpec, generate_trace, write_trace

FAST = ["--interval-len", "2000", "--stable-min", "2"]


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    specs = [
        SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 30_000, seed=41),
        SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 30_000, seed=42),
    ]
    tr = generate_trace(specs, iterations=2,
                        marker_spec=SyntheticPhaseSpec(PhaseKind.MARKER, 16_000, seed=43))
    path = tmp_path_factory.mktemp("trace") / "small.txt"
    write_trace(tr, path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_usage_error_on_missing_source(capsys):
    assert run_cli("run") == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_usage_error_on_bad_model(trace_file, capsys):
    # Each value names the model it rejects: no model, the detailed base
    # (not swappable), an empty name and `all` inside a list.
    for models, named in [("bogus", "'bogus'"), ("base", "'base'"), ("markov8,", "''"),
                          ("all,markov8", "'all'")]:
        assert run_cli("run", "--trace", trace_file, "--models", models) == EXIT_USAGE, models
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and named in err, (models, err)
        assert "Traceback" not in err


def test_usage_error_on_duplicate_model(trace_file, capsys):
    assert run_cli("run", "--trace", trace_file, "--models", "markov8,markov8") == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_usage_error_on_unknown_preset(capsys):
    assert run_cli("run", "--synthetic", "nope") == EXIT_USAGE


def test_runtime_error_on_missing_trace(tmp_path, capsys):
    code = run_cli("run", "--trace", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "o"))
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def test_runtime_error_on_malformed_trace(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("R 0x10\nnot a line at all\n")
    assert run_cli("run", "--trace", str(bad), "--out", str(tmp_path / "o")) == EXIT_RUNTIME


def test_late_malformed_line_writes_nothing(tmp_path, monkeypatch, capsys):
    # The run streams the file, so the intervals before the bad line have
    # been simulated when it is read. Each closes with on_interval_end,
    # which the benchmark's tracer wraps too.
    closed = []
    close = swapsim.controller.SwapController.on_interval_end

    def counted(self, record):
        closed.append(record)
        return close(self, record)

    monkeypatch.setattr(swapsim.controller.SwapController, "on_interval_end", counted)
    lines = [f"{'RW'[i % 4 == 0]} 0x{(i % 3000) * 64:x}\n" for i in range(40_000)]
    lines[30_000] = "R 0x40 0x80\n"
    bad = tmp_path / "late.txt"
    bad.write_text("".join(lines))
    out = tmp_path / "o"
    assert run_cli("run", "--trace", str(bad), "--validate", *FAST, "--out", str(out)) == EXIT_RUNTIME
    assert capsys.readouterr().err == \
        "error: line 30001: expected '<op> <address>', got 'R 0x40 0x80'\n"
    assert len(closed) >= 10
    assert not out.exists()


@pytest.mark.parametrize("out", ["a-file", "a-file/sub"])
def test_out_under_a_file_fails_before_the_run(tmp_path, monkeypatch, capsys, out):
    # mkdir would fail after the whole run; the run fails before it starts.
    monkeypatch.setattr(swapsim.sim.Runner, "run",
                        lambda *a: pytest.fail("the run started"))
    (tmp_path / "a-file").write_text("")
    assert run_cli("run", "--synthetic", "meabo3", "--seed", "1", "--validate",
                   "--out", str(tmp_path / out)) == EXIT_RUNTIME
    assert capsys.readouterr().err == \
        f"error: --out {tmp_path / out}: {tmp_path / 'a-file'} is not a directory\n"
    assert (tmp_path / "a-file").read_text() == ""


def test_trace_gen_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("trace-gen", "--synthetic", "locality", "--seed", "3", "--out", str(a)) == EXIT_OK
    assert run_cli("trace-gen", "--synthetic", "locality", "--seed", "3", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size > 0
    assert capsys.readouterr().out == (f"wrote {a} (1100000 references)\n"
                                       f"wrote {b} (1100000 references)\n")


@pytest.mark.parametrize("out", ["a-directory", "missing/t.txt"])
def test_trace_gen_bad_out_fails_before_generating(tmp_path, monkeypatch, capsys, out):
    (tmp_path / "a-directory").mkdir()
    monkeypatch.setattr(swapsim.trace, "_occurrence_rng",
                        lambda *a: pytest.fail("generated before the output file was opened"))
    assert run_cli("trace-gen", "--synthetic", "meabo3", "--out", str(tmp_path / out)) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_default_seed_trace_gen_round_trip(tmp_path, monkeypatch):
    # With no --seed anywhere, `run --trace` of the file `trace-gen` wrote
    # writes what `run --synthetic` writes: both take one default seed. A
    # shorter locality keeps its seeding.
    monkeypatch.setitem(swapsim.trace._PRESETS, "locality", (6_000, 12_000, 0, 2_002, 1))
    path = tmp_path / "t.txt"
    assert run_cli("trace-gen", "--synthetic", "locality", "--out", str(path)) == EXIT_OK
    assert run_cli("run", "--trace", str(path), *FAST, "--out", str(tmp_path / "t")) == EXIT_OK
    assert run_cli("run", "--synthetic", "locality", *FAST, "--out", str(tmp_path / "s")) == EXIT_OK
    for name in ("report.json", "intervals.csv", "reuse.csv"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "t" / name).read_bytes()


def test_synthetic_run_matches_run_of_its_trace_file(tmp_path, monkeypatch):
    # `run --synthetic` streams generated intervals; `run --trace` parses
    # the file `trace-gen` writes of the same preset. 2 * 20 004
    # references: the last interval holds 8 of 2 000.
    specs = ([SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 8_000, seed=51),
              SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 8_000, seed=52)],
             2, SyntheticPhaseSpec(PhaseKind.MARKER, 2_002, seed=53))
    for module in (swapsim.cli, swapsim.trace):
        monkeypatch.setattr(module, "preset_specs", lambda name, seed: specs)
    path = tmp_path / "t.txt"
    assert run_cli("trace-gen", "--synthetic", "locality", "--out", str(path)) == EXIT_OK
    common = ["--seed", "1", "--validate", *FAST]
    assert run_cli("run", "--synthetic", "locality", *common, "--out", str(tmp_path / "s")) == EXIT_OK
    assert run_cli("run", "--trace", str(path), *common, "--out", str(tmp_path / "t")) == EXIT_OK
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert sum(report["totals"][k] for k in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses")) == (
        2 * 20_004)
    assert {r["directive"] for r in report["intervals"]} > {"base"}
    for name in ("report.json", "intervals.csv", "reuse.csv"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "t" / name).read_bytes()


def test_run_writes_report_files(trace_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--trace", trace_file, "--seed", "1",
                   "--validate", "--out", str(out), *FAST)
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["phase_count"] >= 1
    assert report["intervals"]
    assert (out / "intervals.csv").exists()
    assert (out / "reuse.csv").exists()
    assert report["per_phase_accuracy"]


def test_run_twice_byte_identical(trace_file, tmp_path):
    args = ["run", "--trace", trace_file, "--seed", "2", *FAST]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(*args, "--out", str(out1)) == EXIT_OK
    assert run_cli(*args, "--out", str(out2)) == EXIT_OK
    for name in ("report.json", "intervals.csv", "reuse.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_force_model_flows_to_report(trace_file, tmp_path):
    # Spaces around a name are ignored.
    for n, (models, allowed) in enumerate([("fixed-rate", {"fixed-rate"}),
                                           (" markov8 , fixed-rate", {"markov8", "fixed-rate"})]):
        out = tmp_path / f"out{n}"
        code = run_cli("run", "--trace", trace_file, "--seed", "1",
                       "--models", models, "--out", str(out), *FAST)
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["chosen_models"]
        assert set(report["chosen_models"].values()) <= allowed


def test_csvs_render_report_json(tmp_path):
    # 11 phases and the unclassified label -1: as strings the labels sort
    # otherwise ("-1" < "10" < "2"), and reuse.csv is in numeric order.
    specs = [SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 12_000, seed=70 + i) for i in range(11)]
    path = tmp_path / "t.txt"
    write_trace(generate_trace(specs, iterations=2), path)
    out = tmp_path / "out"
    assert run_cli("run", "--trace", str(path), "--seed", "1", "--validate",
                   *FAST, "--out", str(out)) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["phase_count"] >= 11 and "-1" in report["reuse"]

    def rows(name):
        with open(out / name, newline="", encoding="utf-8") as f:
            return list(csv.reader(f))

    fields = [f.name for f in dataclasses.fields(IntervalRecord)]
    assert rows("intervals.csv") == [fields] + [
        ["" if r[k] is None else str(r[k]) for k in fields] for r in report["intervals"]]
    want = [["stream", "phase_id", "distance", "count"]]
    for stream, key in (("model", "reuse"), ("base", "base_reuse")):
        for pid in sorted(report[key], key=int):
            hist = report[key][pid]
            want += [[stream, pid, "cold", str(hist["cold"])]]
            want += [[stream, pid, str(d), str(c)] for d, c in hist["buckets"]]
    assert rows("reuse.csv") == want


def test_usage_error_on_unknown_detector_key(trace_file, tmp_path, capsys):
    # The detector is set by its two flags only; a config file holds the
    # hierarchy alone.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"detector": {"interval_len": 4000}}))
    code = run_cli("run", "--trace", trace_file, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: unknown top level key(s) in config: detector\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--interval-len", "--train-intervals"])
def test_usage_error_on_zero_count_flag(trace_file, tmp_path, capsys, flag):
    code = run_cli("run", "--trace", trace_file, flag, "0", "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_give_up_after_is_not_a_flag(tmp_path, capsys):
    # A phase trains until it swaps; no flag ends its training early.
    code = run_cli("run", "--synthetic", "locality", "--give-up-after", "1",
                   "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "o").exists()


def test_report_is_not_a_command(tmp_path, capsys):
    # `swapsim run` writes the CSV files with report.json; nothing re-renders them.
    (tmp_path / "report.json").write_text("{}")
    assert run_cli("report", "--run", str(tmp_path)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument command: invalid choice: 'report'")
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("flag, value", [("--threshold", "0.4"), ("--sig-len", "1024"),
                                         ("--drop-bits", "3")])
def test_signature_constants_are_not_flags(tmp_path, capsys, flag, value):
    # phase.THRESHOLD, SIG_BITS and DROP_BITS are constants; no flag sets them.
    code = run_cli("run", "--synthetic", "locality", flag, value, "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--interval", "0"], ["--valid"], ["--stable", "5"]])
def test_abbreviated_flag_is_unrecognized(tmp_path, capsys, argv):
    # Each flag has one spelling; a prefix of it is not another.
    out = tmp_path / "o"
    assert run_cli("run", "--synthetic", "locality", *argv, "--out", str(out)) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {' '.join(argv)}\n"
    assert not out.exists()
    # The full flag, and its `--flag=value` form, still parse.
    args = _build_parser().parse_args(["run", "--synthetic", "locality", "--validate",
                                       "--interval-len=7", "--stable-min", "5"])
    assert (args.validate, args.interval_len, args.stable_min) == (True, 7, 5)


def test_usage_error_on_cache_with_too_many_sets(tmp_path, capsys):
    # A 1 TiB L3 has 2**30 sets; the config check rejects it before the
    # hierarchy allocates a single set.
    trace = tmp_path / "t.txt"
    trace.write_text("R 0x40\nW 0x80\n")
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"hierarchy": {"l3": {
        "total_bytes": 1 << 40, "associativity": 16, "line_bytes": 64, "hit_latency": 40}}}))
    code = run_cli("run", "--trace", str(trace), "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "2**20" in err


def test_python_dash_m_runs_the_cli():
    # `python -m swapsim` works from a checkout, with src/ on the path only.
    src = str(Path(swapsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "swapsim", "run", "--interval-len", "0", "--synthetic", "locality"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("usage error:")


def test_package_binds_only_its_version():
    src = str(Path(swapsim.__file__).parents[1])
    code = "import swapsim; print(*(n for n in vars(swapsim) if n[0] != '_'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_readme_imports_resolve():
    # The package re-exports nothing, so each example imports from a module.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if re.match(r"from swapsim\S* import ", line)]
    assert len(lines) >= 4
    for line in lines:
        exec(line, {})


def test_readme_flags_are_options():
    # Every flag the README's CLI section names is an option of a subcommand.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    options = {o for sub in commands.values() for o in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert {"--interval-len", "--stable-min", "--config", "--train-intervals"} <= named
    assert named <= options, sorted(named - options)


def test_config_section_keeps_defaults():
    cfg = _section({"hierarchy": {"l1": {"hit_latency": 2}, "memory_latency": 300}},
                   _ConfigFile())
    assert cfg.hierarchy.l1 == dataclasses.replace(DEFAULT_L1, hit_latency=2)
    assert cfg.hierarchy.l2 == DEFAULT_L2
    assert cfg.hierarchy.memory_latency == 300


def test_detector_flags_match_fields():
    fields = dataclasses.fields(PhaseDetectorConfig)
    argv = ["run", "--synthetic", "locality"]
    for f in fields:
        argv += ["--" + f.name.replace("_", "-"), "1"]
    args = _build_parser().parse_args(argv)
    for f in fields:
        assert type(getattr(args, f.name)).__name__ == f.type
    # Left out, each flag takes its config field's default, so a run
    # without them writes what one with them at those values writes.
    defaults = _build_parser().parse_args(argv[:3])
    for f in fields:
        assert getattr(defaults, f.name) == getattr(PhaseDetectorConfig(), f.name)
    assert defaults.train_intervals == swapsim.controller.ControllerConfig().train_intervals


def test_validate_help_says_lockstep(capsys):
    # The validation hierarchy runs beside the swapped one in the same
    # thread (sim.py), not in parallel.
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "in lockstep" in help_text and "parallel" not in help_text


# Deep nesting makes the JSON decoder raise RecursionError.
@pytest.mark.parametrize("text", [b'{"detector": ', b"\xff{}", pytest.param(
    b"[" * 100_000 + b"]" * 100_000, id="deeply-nested")])
def test_usage_error_on_invalid_json_config(trace_file, tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    code = run_cli("run", "--trace", trace_file, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(path) in err


@pytest.mark.parametrize("cfg, section", [
    ([], "top level"),
    ({"hierarchy": 5}, "hierarchy"),
    ({"hierarchy": {"l1": 5}}, "hierarchy.l1"),
    ({"detector": []}, "detector"),
    ({"hierarchy": {"assoc": 4}}, "hierarchy"),
    ({"hierarchy": {"l2": {"assoc": 4}}}, "hierarchy.l2"),
    ({"hierarchie": {}}, "top level"),
    ({"hierarchy": {"l2": {"associativity": 2.5}}}, "hierarchy.l2.associativity"),
    ({"hierarchy": {"l1": {"total_bytes": "x"}}}, "hierarchy.l1.total_bytes"),
    ({"hierarchy": {"l3": {"hit_latency": "a"}}}, "hierarchy.l3.hit_latency"),
    ({"hierarchy": {"memory_latency": "9"}}, "hierarchy.memory_latency"),
    ({"hierarchy": {"l1": {"line_bytes": True}}}, "hierarchy.l1.line_bytes"),
])
def test_usage_error_on_malformed_config(trace_file, tmp_path, capsys, cfg, section):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run_cli("run", "--trace", trace_file, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and section in err
