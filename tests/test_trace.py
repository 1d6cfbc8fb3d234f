"""Trace parsing, serialization and synthetic generation."""
import hashlib
import random
import sys
import tracemalloc
from array import array
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import swapsim.cli
import swapsim.trace
from swapsim.cache import Hierarchy
from swapsim.cli import EXIT_RUNTIME, main
from swapsim.trace import (
    DEFAULT_WORKING_SET,
    PRESET_NAMES,
    PhaseKind,
    SyntheticPhaseSpec,
    Trace,
    TraceFormatError,
    build_preset,
    generate_blocks,
    generate_trace,
    join_blocks,
    preset_specs,
    read_blocks,
    write_blocks,
    write_trace,
)
from oracles import trace_text


def parsed(path):
    """The ops and addresses of a trace file, read a block at a time."""
    blocks = list(read_blocks(path))
    return [o for ops, _ in blocks for o in ops], [a for _, addrs in blocks for a in addrs]


def test_parse_basic_lines(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# header\nR 0x7fff0040\n\nW 0x10\n")
    assert parsed(p) == ([0, 1], [0x7FFF0040, 0x10])


@pytest.mark.parametrize("line, op, address", [
    ("  R\t0x10  ", 0, 0x10),
    ("\tW   0xAbC\t", 1, 0xABC),
    ("R 10", 0, 0x10),
    ("R 0X1F", 0, 0x1F),
    ("R 0xffffffffffffffff", 0, (1 << 64) - 1),
])
def test_parse_accepts(tmp_path, line, op, address):
    p = tmp_path / "t.txt"
    p.write_text(f"   # indented comment\n{line}\n")
    assert parsed(p) == ([op], [address])


@pytest.mark.parametrize("line, message", [
    ("r 0x10", "line 4: invalid op code 'r'"),
    ("R 0x10 extra", "line 4: expected '<op> <address>', got 'R 0x10 extra'"),
    ("R -0x1", "line 4: address out of 64-bit range"),
    ("R 0x10000000000000000", "line 4: address out of 64-bit range"),
    # \udcff writes the single byte 0xff, which is not UTF-8.
    pytest.param("R 0x\udcff20", "line 4: invalid address '0x\\udcff20'", id="non-utf8"),
])
def test_parse_rejects(tmp_path, line, message):
    p = tmp_path / "t.txt"
    p.write_text(f"# header\n\nW 0x8\n{line}\nR 0x10\n", encoding="utf-8",
                 errors="surrogateescape")
    with pytest.raises(TraceFormatError) as e:
        parsed(p)
    assert str(e.value) == message


def test_parse_bad_op_names_line(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("R 0x10\nX 0x10\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        parsed(p)


def test_parse_bad_address(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("R zzz\n")
    with pytest.raises(TraceFormatError, match="line 1"):
        parsed(p)


def test_parse_missing_field(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("R\n")
    with pytest.raises(TraceFormatError):
        parsed(p)


def test_empty_file_yields_nothing(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("")
    assert list(read_blocks(p)) == []


def quoted(text):
    return repr(text[:40]) + "..." * (len(text) > 40)


def per_line_load(path):
    """The line-at-a-time parser whose syntax, values and messages
    read_blocks keeps."""
    ops, addresses = [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 2:
                raise TraceFormatError(
                    f"line {lineno}: expected '<op> <address>', got {quoted(line.strip())}")
            op_s, addr_s = parts
            op = {"R": 0, "W": 1}.get(op_s)
            if op is None:
                raise TraceFormatError(f"line {lineno}: invalid op code {quoted(op_s)}")
            # ASCII letters and digits, or a "-" that is out of range: int()
            # also takes "_", "+" and non-ASCII digits.
            try:
                if not (addr_s.isascii() and addr_s.lstrip("-").isalnum()):
                    raise ValueError
                addr = int(addr_s, 16)
            except ValueError:
                raise TraceFormatError(f"line {lineno}: invalid address {quoted(addr_s)}") from None
            if addr_s[0] == "-" or addr >= 1 << 64:
                raise TraceFormatError(f"line {lineno}: address out of 64-bit range")
            ops.append(op)
            addresses.append(addr)
    return ops, addresses


def outcome(load, path):
    try:
        return load(path)
    except Exception as e:  # compared, type and message, with the other parser's
        return type(e), str(e)


@pytest.mark.parametrize("line, message", [
    ("R 0x10 " * 300_000,
     "line 2: expected '<op> <address>', got 'R 0x10 R 0x10 R 0x10 R 0x10 R 0x10 R 0x1'..."),
    ("R " + "g" * 2_000_000, f"line 2: invalid address '{'g' * 40}'..."),
], ids=["long-line", "long-address"])
def test_long_bad_text_is_cut_in_the_message(tmp_path, capsys, line, message):
    # A malformed line megabytes long is quoted by its first 40 characters.
    p = tmp_path / "t.txt"
    p.write_text(f"R 0x10\n{line}\nW 0x20\n")
    assert main(["run", "--trace", str(p), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and len(err) < 100
    assert outcome(per_line_load, p) == (TraceFormatError, message)


# Characters str.split() treats as whitespace but a text file does not
# end a line at.
SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
PAD = st.text(SPACES, max_size=2)
U64 = st.integers(0, 2**64 - 1)
ADDRESS = st.one_of(
    U64.map("0x{:x}".format), U64.map("0X{:X}".format), U64.map("{:x}".format),
    st.sampled_from(["1_0", "0x_1f", "+0x10", "+10", "-0x1", "-1", "0x", "zz", "1__0",
                     "0x10000000000000000", "١٠"]),
    st.text("0123456789abcdefxX_+-", max_size=5))
OP = st.sampled_from(["R", "W", "R", "W", "r", "X", "RW", "#"])
CANONICAL = st.builds("{} 0x{:x}".format, st.sampled_from("RW"), U64)
LINE = st.one_of(
    CANONICAL, CANONICAL, CANONICAL,
    st.builds("{}{}{}{}{}".format, PAD, OP, st.text(SPACES, min_size=1, max_size=2), ADDRESS, PAD),
    st.builds("{}#{}".format, PAD, st.text(max_size=6)),
    PAD,
    st.lists(st.one_of(OP, ADDRESS), max_size=4).map(" ".join))
ENDING = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def trace_files(draw):
    lines = draw(st.lists(st.tuples(LINE, ENDING), max_size=12))
    text = "".join(line + end for line, end in lines) + draw(LINE | st.just(""))
    data = text.encode("utf-8")
    for pos, junk in draw(st.lists(st.tuples(st.integers(0, 500),
                                             st.sampled_from([b"\xff", b"\xc3", b"\x80"])),
                                   max_size=2)):
        pos %= len(data) + 1
        data = data[:pos] + junk + data[pos:]
    return data


# The fixtures are shared by all examples: every example rewrites the
# file and sets the chunk size again.
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=trace_files(), chunk=st.integers(1, 24))
@example(data=b"R 0x1 W\n0x2\n", chunk=24)  # right token count, wrong lines
@example(data=b"R 0x1\nW \n", chunk=24)  # one op per line, one address short
@example(data=b"R 0x1\r\nW 0x2\r\n", chunk=6)  # "\r\n" split by a chunk edge
@example(data=b"R 0x1\nW 0x2", chunk=4)  # no final newline
def test_load_matches_per_line_parser(tmp_path, monkeypatch, data, chunk):
    monkeypatch.setattr(swapsim.trace, "_CHUNK_CHARS", chunk)
    p = tmp_path / "t.txt"
    p.write_bytes(data)
    assert outcome(parsed, p) == outcome(per_line_load, p)


HEX_MIXED_CASE = "0123456789abcdefABCDEF"
# One character of a fixed-width file is at most replaced by one of these.
JUNK = ["g", " ", "\t", "_", "+", "-", "\x1c", "\r", "\n", "X", "#", "\udcff", "١"]


@st.composite
def fixed_width_files(draw):
    """Lines `<R|W> 0x<w hex digits>` of one width w, at most one character
    replaced, and sometimes no final newline."""
    digits = draw(st.integers(1, 18))
    address = st.text(HEX_MIXED_CASE, min_size=digits, max_size=digits)
    lines = draw(st.lists(st.builds("{} 0x{}\n".format, st.sampled_from("RW"), address),
                          min_size=1, max_size=40))
    text = "".join(lines)
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(text) - 1))
        text = text[:pos] + draw(st.sampled_from(JUNK)) + text[pos + 1:]
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    return text.encode("utf-8", errors="surrogateescape")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=fixed_width_files(), chunk=st.sampled_from([3, 7, 13, 64, 64 * 1024]))
@example(data=b"R 0x1\nR 0x1gR 0x1\n", chunk=64)  # two lines joined, twice the width
@example(data=b"R 0x\nW 0x\n", chunk=64)  # no digits
@example(data=b"R 0x1\nR\n", chunk=64)  # a short last line
@example(data=b"W 0x0000000000000000f\n", chunk=64)  # 17 digits, below 2**64
def test_fixed_width_load_matches_per_line_parser(tmp_path, monkeypatch, data, chunk):
    # The column parser's chunks: any that it takes, it parses as the
    # per-line parser does, and it declines the rest.
    monkeypatch.setattr(swapsim.trace, "_CHUNK_CHARS", chunk)
    p = tmp_path / "t.txt"
    p.write_bytes(data)
    assert outcome(parsed, p) == outcome(per_line_load, p)


def canonical_text(n, bad=None):
    lines = [f"{'RW'[i % 3 == 0]} 0x{i * 0x9e3779b9 % (1 << 48):x}\n" for i in range(n)]
    if bad is not None:
        lines[bad - 1] = "R 0x10 extra\n"
    return "".join(lines)


def test_bad_line_after_third_chunk_names_its_line(tmp_path, capsys):
    text = canonical_text(100_000, bad=90_000)
    assert text.index("extra") > 3 * swapsim.trace._CHUNK_CHARS
    p = tmp_path / "t.txt"
    p.write_text(text)
    with pytest.raises(TraceFormatError) as e:
        parsed(p)
    assert str(e.value) == "line 90000: expected '<op> <address>', got 'R 0x10 extra'"
    assert main(["run", "--trace", str(p), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
    assert "line 90000" in capsys.readouterr().err


def fixed_width_text(digits, n, prefix="0x"):
    """`n` lines `<R|W> <prefix><address>`, each address below 2**64 and
    `digits` hex digits with leading zeros, lower case on even lines,
    upper on odd."""
    modulus = 2 ** min(4 * digits, 64)
    return "".join(f"{'RW'[i % 3 == 0]} {prefix}"
                   f"{i * 0x9E3779B97F4A7C15 % modulus:0{digits}{'xX'[i % 2]}}\n" for i in range(n))


@pytest.mark.parametrize("chunk", [4, 7, swapsim.trace._CHUNK_CHARS])
def test_canonical_lines_parse_in_bulk(tmp_path, monkeypatch, chunk):
    # A file of one `0x` address width of 1 to 16 digits never reaches the
    # per-line parser. No final newline: the last reference is kept.
    monkeypatch.setattr(swapsim.trace, "_CHUNK_CHARS", chunk)
    parse_lines = swapsim.trace._parse_lines
    monkeypatch.setattr(swapsim.trace, "_parse_lines",
                        lambda *a: pytest.fail("a fixed-width chunk reached the per-line parser"))
    p = tmp_path / "t.txt"
    p.write_text("R 0x40\nW 0xde\nR 0x7f")
    assert parsed(p) == ([0, 1, 0], [0x40, 0xDE, 0x7F])
    for digits in (1, 2, 8, 15, 16):
        p.write_text(fixed_width_text(digits, 300))
        assert parsed(p) == per_line_load(p)
    # Nor does a trace of one width that write_trace wrote.
    t = Trace(array("B", [i % 3 == 0 for i in range(500)]),
              array("Q", [2**64 - 1, 1 << 63,
                          *(1 << 63 | i * 0x9E3779B97F4A7C15 % 2**63 for i in range(498))]))
    write_trace(t, p)
    assert parsed(p) == (list(t.ops), list(t.addresses))
    # Every chunk of "0X" or of 17 digits (leading zeros, below 2**64)
    # does.
    line_chunks = []
    monkeypatch.setattr(swapsim.trace, "_parse_lines",
                        lambda text, *a: line_chunks.append(text) or parse_lines(text, *a))
    for text in (fixed_width_text(17, 300), fixed_width_text(16, 300, prefix="0X")):
        line_chunks.clear()
        p.write_text(text)
        assert parsed(p) == per_line_load(p)
        assert "".join(line_chunks) == text
    line_chunks.clear()
    p.write_text("R 0x40\nW 0xdeadbeef\nR 0X7f")
    assert parsed(p) == ([0, 1, 0], [0x40, 0xDEADBEEF, 0x7F])
    assert line_chunks[-1].endswith("R 0X7f\n")
    # So does a chunk of mixed widths, from a file or from write_trace. At
    # 4 characters a read holds no line break, every line being at least 6,
    # so each chunk is one line, of one width. At 7 a read can hold a
    # 6-character line, and `readline` then adds the next, of either width.
    t.addresses[2:] = array("Q", [0, *(i * 0x9E3779B97F4A7C15 % 2**64 for i in range(497))])
    for write in (lambda: p.write_text(canonical_text(300)), lambda: write_trace(t, p)):
        line_chunks.clear()
        write()
        assert parsed(p) == per_line_load(p)
        if chunk != 7:
            assert bool(line_chunks) == (chunk > 7)
    assert parsed(p) == (list(t.ops), list(t.addresses))


def test_trace_gen_files_parse_by_column(tmp_path, monkeypatch):
    # Every chunk of the files `trace-gen` writes for the benchmark's
    # `validate-file` input and for meabo3-small, which holds all four
    # phase kinds, takes the column parser: their reading cost rests on
    # it. Each file, at full size, parses to exactly the stream the
    # generator makes, so `run --trace` of it runs what `run --synthetic`
    # does.
    monkeypatch.setattr(swapsim.trace, "_parse_lines",
                        lambda *a: pytest.fail("a trace-gen chunk reached the per-line parser"))
    for name, seed in (("locality", 9973), ("meabo3-small", 1)):
        p = tmp_path / f"{name}.txt"
        write_blocks(generate_blocks(*preset_specs(name, seed)), p)
        assert join_blocks(read_blocks(p)) == join_blocks(generate_blocks(*preset_specs(name, seed)))


# Spellings `int(s, 16)` takes that are not a hex address.
NON_HEX = {"underscore": "0x1_0", "plus": "+0x20", "arabic-indic": "\u0661\u0660",
           "fullwidth": "0x\uff11\uff10", "minus-zero": "-0"}


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical-chunk", "commented"])
@pytest.mark.parametrize("spelling", NON_HEX)
def test_non_hex_address_names_its_line(tmp_path, spelling, canonical):
    # In a chunk of canonical lines the bulk path must not take the bad
    # line either: each entry point names it.
    address = NON_HEX[spelling]
    lines = canonical_text(40).splitlines(keepends=True)
    lines[29] = f"W {address}\n"
    if not canonical:
        lines.insert(0, "# header\n")
    p = tmp_path / "t.txt"
    p.write_text("".join(lines), encoding="utf-8")
    lineno = 30 + (not canonical)
    reason = "address out of 64-bit range" if address[0] == "-" else f"invalid address {address!r}"
    with pytest.raises(TraceFormatError) as e:
        parsed(p)
    assert str(e.value) == f"line {lineno}: {reason}"


def test_run_memory_flat_in_trace_length(tmp_path):
    # `swapsim run --trace` streams the file: with a working set of 4 096
    # lines, which the caches, the reuse tracker and the phase table hold
    # after the first intervals, four times the references take no more
    # memory.
    # A run that loads the whole trace first peaks 1.5 MiB higher on the
    # longer trace.
    peaks = []
    for n in (60_000, 240_000):
        p = tmp_path / f"{n}.txt"
        p.write_text("".join(f"{'RW'[i % 3 == 0]} 0x{(i * 0x9e3779b9 % 4096) << 6:x}\n"
                             for i in range(n)))
        tracemalloc.start()
        try:
            code = main(["run", "--trace", str(p), "--validate", "--out", str(tmp_path / "o")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert abs(peaks[1] - peaks[0]) < 1 << 20


def test_generation_holds_no_more_than_a_few_blocks():
    # Each emitter yields one bounded block at a time, which generate_trace
    # appends: beyond the trace it returns, generation holds no per-phase
    # temporaries.
    tracemalloc.start()
    try:
        t = build_preset("meabo3-small", 1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(t) == 2 * (3 * 240_000 + 3 * 100_000)
    assert peak - current < 2 << 20


def test_trace_gen_holds_one_block(tmp_path):
    # `trace-gen` writes each block as it is generated: it never holds the
    # 2.04 M references of meabo3-small (18 MiB as arrays), only a block,
    # less than one more, and their formatted text.
    p = tmp_path / "t.txt"
    tracemalloc.start()
    try:
        code = main(["trace-gen", "--synthetic", "meabo3-small", "--out", str(p)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 << 20


def test_synthetic_run_memory_flat_in_iterations(tmp_path, monkeypatch):
    # `swapsim run --synthetic` streams the generated blocks: four
    # iterations of the phase list take no more memory than one, once the
    # working set is in the caches, the reuse tracker and the phase table.
    marker = SyntheticPhaseSpec(PhaseKind.MARKER, 10_000, seed=3)
    phases = [SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 40_000, seed=1),
              SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 40_000, seed=2)]
    peaks = []
    for iterations in (1, 4):
        monkeypatch.setattr(swapsim.cli, "preset_specs",
                            lambda name, seed: (phases, iterations, marker))
        tracemalloc.start()
        try:
            code = main(["run", "--synthetic", "locality", "--out", str(tmp_path / "o")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert abs(peaks[1] - peaks[0]) < 1 << 20


def test_write_read_round_trip(tmp_path):
    t = Trace(array("B", [0, 1]), array("Q", [0x40, 0xDEADBEEF]))
    p = tmp_path / "t.txt"
    write_trace(t, p)
    assert p.read_text() == "R 0x40\nW 0xdeadbeef\n"
    assert parsed(p) == ([0, 1], [0x40, 0xDEADBEEF])


def test_write_trace_bytes_pinned(tmp_path):
    # sha256 of the text this generated trace has always been written as.
    t = generate_trace(
        [SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 500, seed=3),
         SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 300, seed=4, working_set_bytes=2048)],
        iterations=2, marker_spec=SyntheticPhaseSpec(PhaseKind.MARKER, 50, seed=5))
    p = tmp_path / "t.txt"
    write_trace(t, p)
    assert len(t) == 1800
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "8346af0cb0a4f6d24cb250affb61bcd3d2bcc68b54b16cf99148f859ab560525")
    assert parsed(p) == (list(t.ops), list(t.addresses))


def test_write_trace_extreme_and_empty(tmp_path):
    p = tmp_path / "t.txt"
    write_trace(Trace(array("B", [0, 1]), array("Q", [0, 2**64 - 1])), p)
    assert p.read_text() == "R 0x0\nW 0xffffffffffffffff\n"
    assert parsed(p) == ([0, 1], [0, 2**64 - 1])
    write_trace(Trace(), p)
    assert p.read_bytes() == b""


@st.composite
def written_traces(draw):
    """Traces of `digits`-digit hex addresses, 1 to 16, a drawn share of
    them one digit wider, with random ops, over lengths around a block;
    the share may leave some blocks or all of one width. With each, up to
    five cut points, repeats and ends included, so its blocks may be
    empty, longer than `_BLOCK`, or split a run of one width."""
    block = swapsim.trace._BLOCK
    n = draw(st.sampled_from([1, 2, block - 1, block, block + 1, 3 * block + 5]))
    digits = draw(st.integers(1, 16))
    wide_share = draw(st.sampled_from([0, 0, 1e-4, 0.5]))
    narrow = (16 ** (digits - 1) if digits > 1 else 0, 16 ** digits - 1)
    wide = (16 ** digits, min(16 ** (digits + 1), 2**64) - 1) if digits < 16 else narrow
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    addresses = array("Q", (rng.randint(*wide if rng.random() < wide_share else narrow)
                            for _ in range(n)))
    # The ends of each width: 0x0, 0xf, 0x10, ..., 0xffffffffffffffff.
    for _ in range(draw(st.integers(0, 3))):
        addresses[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            narrow + (wide if wide_share else ())))
    ops = array("B", (rng.getrandbits(1) for _ in range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return Trace(ops, addresses), cuts


# A block longer than `_BLOCK` after an empty one, all of one width.
_LONG = 2 * swapsim.trace._BLOCK + 3


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(written=written_traces())
@example(written=(Trace(array("B", [0, 1]), array("Q", [0xF, 0x10])), [1]))
@example(written=(Trace(array("B", [1, 0, 1]), array("Q", [0x0, 0x1, 0xF])), [0, 2, 2, 3]))
@example(written=(Trace(array("B", [1, 0]), array("Q", [2**64 - 1, 2**63])), []))
@example(written=(Trace(array("B", [0, 0]), array("Q", [2**60, 2**64 - 1])), [1]))
@example(written=(Trace(bytearray([0, 1]), [0x10, 0x20]), [1]))  # a list of addresses
@example(written=(Trace(bytes(_LONG), array("Q", range(0x1000, 0x1000 + _LONG))), [5, 5]))
def test_write_trace_matches_per_line_writer(tmp_path, written):
    t, cuts = written
    p = tmp_path / "t.txt"
    text = trace_text(t.ops, t.addresses).encode()
    write_trace(t, p)
    assert p.read_bytes() == text
    assert parsed(p) == (list(t.ops), list(t.addresses))
    # The same references cut into blocks anywhere give the same bytes.
    bounds = [0, *cuts, len(t)]
    blocks = [(t.ops[a:b], t.addresses[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert write_blocks(blocks, p) == len(t)
    assert p.read_bytes() == text


def test_join_blocks_copies_the_stream():
    # Any bytes-like ops, empty blocks included; the result is a new pair.
    first = (bytes([0, 1]), array("Q", [1, 2]))
    blocks = [first, (bytearray(), array("Q")), (array("B", [1]), array("Q", [2**64 - 1]))]
    ops, addresses = join_blocks(blocks)
    assert (ops, addresses) == (array("B", [0, 1, 1]), array("Q", [1, 2, 2**64 - 1]))
    assert addresses is not first[1]
    assert join_blocks([]) == (array("B"), array("Q"))


@pytest.mark.parametrize("ops, address, message", [
    (bytes([0, 2]), 0x40, "op 2 at reference 5 is not 0 (read) or 1 (write)"),
    (bytes(2), 2**64, "address at reference 5 is outside 0..2**64-1"),
    (bytes(2), -1, "address at reference 5 is outside 0..2**64-1"),
])
def test_write_blocks_names_a_bad_reference_in_the_stream(tmp_path, ops, address, message):
    # A bad reference in a later block is named by its index in the whole
    # stream; the blocks before it are already in the file.
    first = (bytes([0, 1, 0, 1]), array("Q", [0x10, 0x20, 0x30, 0x40]))
    blocks = [first, (b"", array("Q")), (ops, [0x40, address]), first]
    p = tmp_path / "t.txt"
    with pytest.raises(ValueError) as e:
        write_blocks(blocks, p)
    assert str(e.value) == message
    assert p.read_text() == "R 0x10\nW 0x20\nR 0x30\nW 0x40\n"


@pytest.mark.parametrize("ops, addresses, message", [
    ([0, 2, 1], [1, 2, 3], "op 2 at reference 1 is not 0 (read) or 1 (write)"),
    ([0, 1, 255], [1, 2, 3], "op 255 at reference 2 is not 0 (read) or 1 (write)"),
    ([0, 1, 0], [1, 2], "3 ops for 2 addresses"),
    ([0], [1, 2], "1 ops for 2 addresses"),
])
def test_write_trace_rejects_malformed_trace(tmp_path, ops, addresses, message):
    # Before the file is opened, so no file is left behind.
    p = tmp_path / "t.txt"
    with pytest.raises(ValueError) as e:
        write_trace(Trace(array("B", ops), array("Q", addresses)), p)
    assert str(e.value) == message
    assert not p.exists()


@pytest.mark.parametrize("address", [-1, 2**64])
def test_write_trace_rejects_out_of_range_address(tmp_path, address):
    # Before the file is opened, so an existing file keeps its bytes.
    p = tmp_path / "t.txt"
    p.write_bytes(b"R 0x40\n")
    with pytest.raises(ValueError, match=r"^address at reference 1 is outside 0\.\.2\*\*64-1$"):
        write_trace(Trace(bytearray([0, 1]), [0x10, address]), p)
    assert p.read_bytes() == b"R 0x40\n"
    # check_references names the reference in a long trace too.
    addresses = [0x40] * 20_000
    for at in (1, 3, 500, 9_999, 19_999):
        addresses[at] = address
        with pytest.raises(ValueError, match=rf"^address at reference {at} is outside"):
            write_trace(Trace(bytes(20_000), addresses), p)
        addresses[at] = 0x40
    assert p.read_bytes() == b"R 0x40\n"


def test_trace_gen_file_pinned(tmp_path):
    # The locality preset's vector-add phase wraps its sweep.
    p = tmp_path / "locality.txt"
    assert main(["trace-gen", "--synthetic", "locality", "--seed", "1", "--out", str(p)]) == 0
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "2596b56d65aa45b1cf0a8d283a874dac6d83bd836a174920a562e54ab6aacebc")


def test_trace_gen_random_access_file_pinned(tmp_path):
    # meabo3-small holds all four phase kinds, random access included.
    p = tmp_path / "meabo3-small.txt"
    assert main(["trace-gen", "--synthetic", "meabo3-small", "--seed", "1", "--out", str(p)]) == 0
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "4a18be773fb0cfd44f856c624ecf5a134123a93f546ffd9f4b0dc6113d58a7a3")


def trace_digest(t):
    """sha256 of the ops bytes, then the addresses as little-endian u64."""
    addresses = array("Q", t.addresses)
    if sys.byteorder == "big":
        addresses.byteswap()
    return hashlib.sha256(t.ops.tobytes() + addresses.tobytes()).hexdigest()


# Two occurrences of each phase, so each occurrence's rng is covered.
# 20 003 is a multiple of neither 4 nor 24, and spans several blocks.
GENERATED = {
    # 64 words, so the loop ends mid-pass.
    "marker": (SyntheticPhaseSpec(PhaseKind.MARKER, 20_003, seed=7),
               "4a350a55a67fbd4e70d52c05cdd1acf10d56a412ae58272ff2895be7561207ea"),
    # 25 words, which 8-aligned blocks do not divide.
    "marker-ragged": (SyntheticPhaseSpec(PhaseKind.MARKER, 20_003, seed=7, working_set_bytes=200),
                      "8ec0987d94cd4e4c6dc3a3088c88c0cb6f3188e1db8fa6ef880667777db1c01b"),
    "high-locality": (SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 20_003, seed=8),
                      "4a8db78cfdc3ceb26aecbec37d06ba87ce1863e516cc64535568f61fd56c61da"),
    # Two lines, fewer than the four-line spread.
    "high-locality-tiny": (
        SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 1_001, seed=8, working_set_bytes=64),
        "41ccfd31c79e9d3107f6eb6dd2204aa5bd78e7e9dd687864cbf85836fee9b4a8"),
    "vector-add": (SyntheticPhaseSpec(PhaseKind.VECTOR_ADD, 20_003, seed=9),
                   "a05550d10c0b478dfecd648bce2e20e3185eb7271c97eb1b5a328d42ccec35fc"),
    # 24 elements per array: the sweeps wrap every group of three, and
    # the phase ends inside the first stream's group.
    "vector-add-wrap": (
        SyntheticPhaseSpec(PhaseKind.VECTOR_ADD, 20_003, seed=9, working_set_bytes=600),
        "304ea58b17409dc803b1b8ea4c6bc95a7c9e5bd29f3347f975ea83790fd70895"),
    # 120 elements per array; the phase ends inside the write stream's group.
    "vector-add-wrap-late": (
        SyntheticPhaseSpec(PhaseKind.VECTOR_ADD, 20_015, seed=9, working_set_bytes=3000),
        "6acb2e7f6304763ae832f8c2ec8f62775a61115113655447084e5f8f8744d56d"),
    "random-access": (SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 20_003, seed=10),
                      "0f08492a54951ab8ae2edf889a233bd77390f5fb26eaf88d159905f43589f485"),
    # One line: every draw is randrange(1).
    "random-access-tiny": (
        SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 1_001, seed=10, working_set_bytes=32),
        "982a0dbaa334cabe6517fea52ca29be79f5e119b5d685edff5660890ddab718d"),
    # Line counts that are not powers of two, so some line draws are
    # rejected and drawn again: 93, 31 and 65 lines.
    "random-access-93": (
        SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 20_003, seed=11, working_set_bytes=3000),
        "7ca296611af4db28ee126f3341b3589215cef6f4afc055d0e4d38f8056585c44"),
    "high-locality-31": (
        SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 20_003, seed=11, working_set_bytes=1000),
        "ca1aa29ad2d8c278159ed8122933c4603d771b242c166e1f8349796bbddde83e"),
    "random-access-65": (
        SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 20_003, seed=11, working_set_bytes=2080),
        "5c3b13a7682c770c0cd55813de26f08271e56b17c4a99e5f499c3080574ff847"),
}


@pytest.mark.parametrize("name", GENERATED)
def test_generated_bytes_pinned(name):
    spec, digest = GENERATED[name]
    t = generate_trace([spec], iterations=2)
    assert len(t) == 2 * spec.length
    assert trace_digest(t) == digest


def test_trace_container_round_trip():
    assert len(Trace()) == 0
    t = Trace(array("B", [0, 1]), array("Q", [0x40, 0x80]))
    assert len(t) == 2
    assert list(t.ops) == [0, 1]
    assert list(t.addresses) == [0x40, 0x80]


def test_generate_requires_phases_and_iterations():
    spec = SyntheticPhaseSpec(PhaseKind.MARKER, 100, seed=1)
    with pytest.raises(ValueError):
        generate_trace([])
    with pytest.raises(ValueError):
        generate_trace([spec], iterations=0)


def test_marker_runs_after_every_phase_exactly_when_given():
    specs = [SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 300, seed=1),
             SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 200, seed=2)]
    marker = SyntheticPhaseSpec(PhaseKind.MARKER, 50, seed=3)

    def regions(trace):  # phase i lives in region i + 1, the marker in region 3
        return [a // swapsim.trace._REGION_STRIDE for a in trace.addresses]

    assert regions(generate_trace(specs, iterations=2)) == ([1] * 300 + [2] * 200) * 2
    assert regions(generate_trace(specs, iterations=2, marker_spec=marker)) == (
        [1] * 300 + [3] * 50 + [2] * 200 + [3] * 50) * 2


MIB = 1 << 20
# The largest working set of each kind whose layout fits a phase's 256 MiB
# region. High-locality and random-access place 4 and 32 lines of 32 B in
# each 4 KiB way, and a part line adds nothing. Vector-add's three arrays
# of 11 184 640 words, each past the last starting on the next 4 KiB
# boundary, would end 8 KiB past the region. The marker loops over words.
LARGEST_FITTING = {
    PhaseKind.HIGH_LOCALITY: 8 * MIB + 31,
    PhaseKind.RANDOM_ACCESS: 64 * MIB + 31,
    PhaseKind.VECTOR_ADD: 268_431_359,
    PhaseKind.MARKER: 256 * MIB + 7,
}


@st.composite
def specs_near_limits(draw):
    kind = draw(st.sampled_from(PhaseKind))
    limit = LARGEST_FITTING[kind]
    working_set = draw(st.one_of(st.integers(0, 64 * 1024), st.integers(0, limit),
                                 st.integers(limit - 4096, limit + 4096)))
    return SyntheticPhaseSpec(kind, draw(st.integers(1, 3000)), draw(st.integers(0, 2**32)),
                              working_set)


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(specs_near_limits(), min_size=1, max_size=3),
       iterations=st.integers(1, 2), marker_spec=st.none() | specs_near_limits())
@example(specs=[SyntheticPhaseSpec(kind, 3000, seed=1, working_set_bytes=limit)
                for kind, limit in LARGEST_FITTING.items()], iterations=1,
         marker_spec=SyntheticPhaseSpec(PhaseKind.MARKER, 100, seed=2,
                                        working_set_bytes=LARGEST_FITTING[PhaseKind.MARKER]))
@example(specs=[SyntheticPhaseSpec(PhaseKind.MARKER, 100, seed=1),
                SyntheticPhaseSpec(PhaseKind.HIGH_LOCALITY, 100, seed=1,
                                   working_set_bytes=8 * MIB + 32)], iterations=1, marker_spec=None)
def test_generated_phases_stay_in_their_regions(specs, iterations, marker_spec):
    # Phase position i emits only into [(i + 1) * 2**28, (i + 2) * 2**28),
    # and the marker only into the region after the last phase's. The first
    # run of a spec past its kind's limit raises before it yields anything.
    runs = []
    for _ in range(iterations):
        for i, spec in enumerate(specs):
            runs.append((i + 1, spec))
            if marker_spec is not None:
                runs.append((len(specs) + 1, marker_spec))
    want, past = [], False
    for region, spec in runs:
        if spec.resolved_working_set > LARGEST_FITTING[spec.kind]:
            past = True
            break
        want += [region] * spec.length
    got = []
    with pytest.raises(ValueError, match="past a phase's") if past else nullcontext():
        for _, addresses in generate_blocks(specs, iterations, marker_spec):
            got += [a >> 28 for a in addresses]
    assert got == want


@pytest.mark.parametrize("kind", PhaseKind, ids=lambda k: k.value)
def test_working_set_past_its_limit_raises_before_any_block(kind):
    # The layout is checked before the emitter builds its per-line address
    # table (41 MiB at high-locality's limit) and before its first block.
    working_set = LARGEST_FITTING[kind] + 1
    blocks = generate_blocks([SyntheticPhaseSpec(kind, 1000, seed=1,
                                                 working_set_bytes=working_set)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                rf"^a {kind.value} working set of {working_set} bytes spans \d+ bytes,"
                r" past a phase's 268435456-byte region$")):
            next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MIB


def test_phase_spec_validation():
    with pytest.raises(ValueError):
        SyntheticPhaseSpec(PhaseKind.MARKER, 0, seed=1)
    with pytest.raises(ValueError):
        SyntheticPhaseSpec(PhaseKind.MARKER, 10, seed=1, working_set_bytes=-1)
    spec = SyntheticPhaseSpec(PhaseKind.MARKER, 10, seed=1)
    assert spec.resolved_working_set == DEFAULT_WORKING_SET[PhaseKind.MARKER]


def test_generation_is_deterministic():
    spec = SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 5000, seed=9)
    a = generate_trace([spec], iterations=2)
    b = generate_trace([spec], iterations=2)
    assert a.ops == b.ops and a.addresses == b.addresses


def test_occurrences_differ_but_share_region():
    spec = SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 5000, seed=9)
    t = generate_trace([spec], iterations=2)
    first = t.addresses[:5000]
    second = t.addresses[5000:]
    assert first != second  # fresh RNG draw per occurrence
    assert set(first) == set(second)  # same line universe


def test_addresses_nonzero_and_64bit():
    t = build_preset("meabo3-small", 1)
    assert min(t.addresses) > 0
    assert max(t.addresses) < 1 << 64


def test_marker_phase_is_nearly_all_hits():
    # A lone marker phase simulated through the detailed hierarchy: the
    # tiny sequential loop must hit L1 on essentially every access.
    spec = SyntheticPhaseSpec(PhaseKind.MARKER, 10_000, seed=3)
    t = generate_trace([spec])
    h = Hierarchy()
    h.run_detailed(t.addresses, -1)
    assert h.l1_hits / len(t) > 0.99


def test_random_access_uniform_over_lines():
    spec = SyntheticPhaseSpec(PhaseKind.RANDOM_ACCESS, 120_000, seed=5)
    t = generate_trace([spec])
    counts = {}
    for a in t.addresses:
        counts[a >> 5] = counts.get(a >> 5, 0) + 1
    n_lines = spec.resolved_working_set // 32
    assert len(counts) == n_lines
    _, p = chisquare(list(counts.values()))
    assert p > 0.001


def test_meabo3_structure():
    phases, iters, marker = preset_specs("meabo3", 1)
    assert [p.kind for p in phases] == [
        PhaseKind.HIGH_LOCALITY,
        PhaseKind.VECTOR_ADD,
        PhaseKind.RANDOM_ACCESS,
    ]
    assert iters == 3
    assert marker.kind is PhaseKind.MARKER
    t = build_preset("meabo3", 1)
    expect = 3 * (3 * 280_000 + 3 * 120_000)
    assert len(t) == expect


def test_preset_table_pins_every_preset():
    hl, va, ra, marker = (PhaseKind.HIGH_LOCALITY, PhaseKind.VECTOR_ADD, PhaseKind.RANDOM_ACCESS,
                          PhaseKind.MARKER)
    assert PRESET_NAMES == ("meabo3", "meabo3-small", "locality")
    # Phase kind i of the three is seeded seed * 1000 + i, the marker + 4;
    # a kind left out of a preset leaves its seed unused.
    want = {
        "meabo3": ([(hl, 280_000, 7001), (va, 280_000, 7002), (ra, 280_000, 7003)], 3,
                   (marker, 120_000, 7004)),
        "meabo3-small": ([(hl, 240_000, 7001), (va, 240_000, 7002), (ra, 240_000, 7003)], 2,
                         (marker, 100_000, 7004)),
        "locality": ([(hl, 300_000, 7001), (va, 600_000, 7002)], 1, (marker, 100_000, 7004)),
    }
    for name in PRESET_NAMES:
        phases, iterations, marker_spec = preset_specs(name, 7)
        assert ([(p.kind, p.length, p.seed) for p in phases], iterations,
                (marker_spec.kind, marker_spec.length, marker_spec.seed)) == want[name]
        assert all(p.working_set_bytes == 0 for p in (*phases, marker_spec))


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset_specs("nope", 1)
