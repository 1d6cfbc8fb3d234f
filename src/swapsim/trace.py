"""Memory traces, trace file I/O, and synthetic phased workload generation.

Trace files are plain text, one reference per line: `R 0x7fff0040` or
`W 0x10`. Lines starting with `#` are comments, blank lines are skipped.
The parser (read_blocks) and the generator (generate_blocks) yield
bounded `(ops, addresses)` blocks, a bytes-like of ops as in `Trace` and
an `array("Q")`. `sim.Runner` cuts them into intervals, generate_trace
concatenates them and the writer writes them, so no stage holds a whole
trace.
"""
from __future__ import annotations

import enum
import random
import sys
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import repeat


class TraceFormatError(ValueError):
    """Raised for a malformed trace file line (carries the line number)."""


class PhaseKind(enum.Enum):
    HIGH_LOCALITY = "high-locality"
    VECTOR_ADD = "vector-add"
    RANDOM_ACCESS = "random-access"
    MARKER = "marker"


# Default footprint per phase kind, in bytes actually touched. These are
# sized so that interval signatures stay well below saturation for every
# kind except VECTOR_ADD, whose streaming sweep intentionally saturates
# what the signature's sample reaches: its 2 496 sampled references are
# all distinct and set about 930 of the default 1024 bits. Two saturated
# phases would be indistinguishable, so at most one kind may saturate.
DEFAULT_WORKING_SET = {
    PhaseKind.HIGH_LOCALITY: 2048,
    PhaseKind.VECTOR_ADD: 3 * 1024 * 1024,
    PhaseKind.RANDOM_ACCESS: 16 * 1024,
    PhaseKind.MARKER: 512,
}


@dataclass(frozen=True)
class SyntheticPhaseSpec:
    kind: PhaseKind
    length: int
    seed: int
    working_set_bytes: int = 0  # 0 means the kind's default

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("phase length must be positive")
        if self.working_set_bytes < 0:
            raise ValueError("working_set_bytes must be nonnegative")

    @property
    def resolved_working_set(self) -> int:
        return self.working_set_bytes or DEFAULT_WORKING_SET[self.kind]


class Trace:
    """A materialized reference stream, stored compactly as parallel arrays.

    `ops[i]` is 1 for a write, 0 for a read; `addresses[i]` is the 64-bit
    byte address.
    """

    __slots__ = ("ops", "addresses")

    def __init__(self, ops: array | None = None, addresses: array | None = None):
        self.ops = ops if ops is not None else array("B")
        self.addresses = addresses if addresses is not None else array("Q")

    def __len__(self) -> int:
        return len(self.ops)


_OP_CODES = {"R": 0, "W": 1}
_OP_BYTES = bytes.maketrans(b"RW", b"\x00\x01")

# References generated or written at a time. This bounds the temporaries
# of generation and of write_trace, whatever the trace length.
_BLOCK = 8192

# Characters read from a trace file at a time. This bounds the parser's
# working memory, whatever the trace length; 256 Ki parsed no faster.
_CHUNK_CHARS = 64 * 1024


def read_blocks(path):
    """Yield the references of the trace file at `path`, one block per
    chunk. A chunk is one read of `_CHUNK_CHARS` characters finished by
    `readline`, so it is whole lines; a last line without "\\n" gets one.
    A chunk of fixed-width lines is parsed by column, any other line by
    line. The per-line parser defines the accepted syntax and names a bad
    line; the column parser takes only chunks that it would parse to the
    same values. A malformed line raises TraceFormatError, naming its line
    number, once the blocks before its chunk have been yielded."""
    lineno = 1
    # A byte that is not UTF-8 decodes to a lone surrogate, which then fails
    # the op or address check of its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        while text := f.read(_CHUNK_CHARS):
            text += f.readline()
            if text[-1] != "\n":
                text += "\n"
            yield _parse_columns(text) or _parse_lines(text, lineno)
            lineno += text.count("\n")


_HEX_DIGITS = b"0123456789abcdefABCDEF"
_NIBBLES = bytes.maketrans(_HEX_DIGITS, bytes(range(16)) + bytes(range(10, 16)))
# Where byte j of an address, least significant first, sits in its "Q" item.
_BYTE_AT = range(8) if sys.byteorder == "little" else range(7, -1, -1)


def _parse_columns(text: str) -> tuple[bytes, array] | None:
    """Parse a chunk of lines of one width that each read `R 0x` or `W 0x`,
    1 to 16 hex digits and a line break, one strided slice per column:
    each digit column becomes a whole-column int of nibbles, and each pair
    of them one byte of every address. Return the chunk's `(ops,
    addresses)`, or None when it is not one."""
    width = text.find("\n") + 1
    digits = width - 5
    if not (0 < digits <= 16 and len(text) % width == 0 and text.isascii()):
        return None
    n = len(text) // width
    chars = text.encode()
    ops = chars[0::width]
    if (ops.translate(None, b"RW") or chars[width - 1::width].count(b"\n") != n
            or chars[1::width].count(b" ") != n or chars[2::width].count(b"0") != n
            or chars[3::width].count(b"x") != n):
        return None
    columns = [chars[k::width] for k in range(width - 2, 3, -1)]  # least significant first
    if any(c.translate(None, _HEX_DIGITS) for c in columns):
        return None
    nibbles = [int.from_bytes(c.translate(_NIBBLES), "little") for c in columns] + [0]
    addresses = bytearray(8 * n)
    for j in range(0, digits, 2):
        addresses[_BYTE_AT[j // 2]::8] = (nibbles[j] | nibbles[j + 1] << 4).to_bytes(n, "little")
    return ops.translate(_OP_BYTES), array("Q", addresses)


def _parse_lines(text: str, lineno: int) -> tuple[array, array]:
    """The `(ops, addresses)` of `text`, line `lineno` on, one line at a time."""
    ops = array("B")
    addresses = array("Q")
    for lineno, line in enumerate(text.split("\n"), start=lineno):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise TraceFormatError(
                f"line {lineno}: expected '<op> <address>', got {line.strip()!r}")
        op_s, addr_s = parts
        op = _OP_CODES.get(op_s)
        if op is None:
            raise TraceFormatError(f"line {lineno}: invalid op code {op_s!r}")
        try:
            # ASCII hex digits only, after an optional "0x"; "-" is out of range.
            if not (addr_s.isascii() and addr_s.lstrip("-").isalnum()):
                raise ValueError
            addr = int(addr_s, 16)
        except ValueError:
            raise TraceFormatError(f"line {lineno}: invalid address {addr_s!r}") from None
        if addr_s[0] == "-" or addr >= 1 << 64:
            raise TraceFormatError(f"line {lineno}: address out of 64-bit range")
        ops.append(op)
        addresses.append(addr)
    return ops, addresses


# The line of a read and of a write; `%#x` writes an address as `hex` does.
_LINE_FORMATS = ("R %#x\n", "W %#x\n")
_OP_LETTERS = bytes.maketrans(b"\0\1", b"RW")
# The lowercase hex digit of a byte's low and of its high nibble.
_LOW_DIGITS = bytes(b"0123456789abcdef"[b & 15] for b in range(256))
_HIGH_DIGITS = bytes(b"0123456789abcdef"[b >> 4] for b in range(256))


def check_references(ops, addresses, offset: int = 0) -> array:
    """Return `addresses` as an `array("Q")`, itself when it is one. Raise
    ValueError if `ops` and `addresses` differ in length, if an op is other
    than 0 (read) or 1 (write), or if an address is outside 0..2**64-1.
    `offset` is the position of `ops[0]` in the trace, which the message
    names a bad reference by."""
    if len(ops) != len(addresses):
        raise ValueError(f"{len(ops)} ops for {len(addresses)} addresses")
    if bad := bytes(ops).translate(None, b"\0\1"):
        at = offset + ops.index(bad[0])
        raise ValueError(f"op {bad[0]} at reference {at} is not 0 (read) or 1 (write)")
    if isinstance(addresses, array) and addresses.typecode == "Q":
        return addresses
    try:
        return array("Q", addresses)
    except OverflowError:
        at = offset + next(i for i, a in enumerate(addresses) if not 0 <= a < 1 << 64)
        raise ValueError(f"address at reference {at} is outside 0..2**64-1") from None


def write_trace(trace: Trace, path) -> None:
    """Write `trace` as a trace file, one `_BLOCK` of lines at a time. A
    trace that check_references rejects raises ValueError before the file
    is opened."""
    ops = trace.ops
    addresses = check_references(ops, trace.addresses)
    _write_blocks(((ops[start:start + _BLOCK], addresses[start:start + _BLOCK])
                   for start in range(0, len(ops), _BLOCK)), path)


def _write_blocks(blocks, path) -> int:
    """Write the `(ops, addresses)` blocks, in order, as a trace file;
    return the number of references written. A block whose addresses all
    have one hex width is built by column, any other with one C-level `%`
    format; both write `%#x`'s bytes, so the text does not depend on where
    the blocks end. The file is opened before the first block is taken, so
    a bad path fails before a generator makes any."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for ops, addresses in blocks:
            f.write(_format_columns(ops, addresses)
                    or "".join(map(_LINE_FORMATS.__getitem__, ops)) % tuple(addresses))
            n += len(ops)
    return n


def _format_columns(ops, addresses) -> str:
    """The lines of a nonempty block whose addresses all have as many hex
    digits as the first, built as `_parse_columns` reads them: a template
    of `R 0x` lines gets the op column by one `translate`, and each digit
    column, the low or high nibbles of one byte plane of the addresses, by
    one strided slice assignment. Return "" for a block of mixed widths,
    having built at most two digit columns."""
    n = len(ops)
    digits = len("%x" % addresses[0])
    planes = addresses.tobytes()

    def column(k):  # digit k of every address, least significant first
        return planes[_BYTE_AT[k // 2]::8].translate(_HIGH_DIGITS if k % 2 else _LOW_DIGITS)

    # No address has a digit above the first's leading one, nor a 0 there.
    zeros = bytes(n)
    if (any(planes[_BYTE_AT[j]::8] != zeros for j in range((digits + 1) // 2, 8))
            or digits % 2 and column(digits).count(b"0") != n
            or digits > 1 and b"0" in column(digits - 1)):
        return ""
    width = digits + 5
    lines = bytearray(b"R 0x" + b"0" * digits + b"\n") * n
    lines[0::width] = bytes(ops).translate(_OP_LETTERS)
    for k in range(digits):
        lines[width - 2 - k::width] = column(k)
    return lines.decode("ascii")


# --- synthetic workload generation -------------------------------------

# Each phase position in the spec list gets a disjoint 256 MiB address
# region, so distinct phases never share working-set signature bits.
# A layout past it raises ValueError; the README gives each kind's limit.
_REGION_STRIDE = 1 << 28

# L1 way size with the default geometry; aliased layouts place lines this
# far apart so a small footprint still produces conflict misses.
_ALIAS_STRIDE = 4096

def _occurrence_rng(spec: SyntheticPhaseSpec, occurrence: int) -> random.Random:
    return random.Random((spec.seed * 1_000_003) ^ occurrence)


def _sweep(base: int, first: int, n: int, words: int) -> array:
    """Addresses `base + 8 * ((first + u) % words)` for `u` in `range(n)`:
    `n` steps of a loop over `words` consecutive 8-byte words, from word
    `first`. It builds at most `n` of them one by one; whole passes of the
    loop are copied."""
    first %= words
    out = array("Q", range(base + 8 * first, base + 8 * min(words, first + n), 8))
    n -= len(out)
    if n:
        loop = array("Q", range(base, base + 8 * min(words, n), 8))
        out += loop * (n // words)
        out += loop[:n % words]
    return out


def _draw(rng: random.Random, n_lines: int, count: int, p_write: float) -> tuple[list, bytearray]:
    """`count` draws of a line index and a write flag, each one
    `rng.randrange(n_lines)` and then `rng.random() < p_write`.

    The line index is drawn as `randrange` draws it, without its Python
    call layers: `getrandbits` of `n_lines.bit_length()` bits, drawn again
    while it is `n_lines` or more. So it takes the same Mersenne Twister
    words and gives the same numbers."""
    lines = []
    writes = bytearray()
    line = lines.append
    write = writes.append
    getrandbits = rng.getrandbits
    rand = rng.random
    k = n_lines.bit_length()
    for _ in repeat(None, count):
        r = getrandbits(k)
        while r >= n_lines:
            r = getrandbits(k)
        line(r)
        write(rand() < p_write)
    return lines, writes


# Each emitter checks its layout's span, then yields blocks of at most `_BLOCK` references.
def _check_span(spec: SyntheticPhaseSpec, span: int) -> None:
    """Raise ValueError if a layout `span` bytes long leaves `spec`'s region."""
    if span > _REGION_STRIDE:
        raise ValueError(f"a {spec.kind.value} working set of {spec.resolved_working_set} bytes"
                         f" spans {span} bytes, past a phase's {_REGION_STRIDE}-byte region")


def _emit_draws(spec: SyntheticPhaseSpec, base: int, rng: random.Random,
                burst: int, group: int, p_write: float):
    # Bursts of `burst` consecutive words on a drawn 32-byte line of the
    # working set, with a drawn op. Lines alias `group` to a 4 KiB way, so
    # a small footprint still sees conflict misses. A last burst cut short
    # still draws its line and op.
    n_lines = max(1, spec.resolved_working_set // 32)
    group = min(group, n_lines)
    _check_span(spec, -(-n_lines // group) * _ALIAS_STRIDE)
    # words[k][j]: address of the k-th word of a burst on line j.
    words = [[base + (j // group) * _ALIAS_STRIDE + (j % group) * 32 + 8 * k
              for j in range(n_lines)] for k in range(burst)]
    block = _BLOCK - _BLOCK % burst
    for start in range(0, spec.length, block):
        n = min(block, spec.length - start)
        bursts = -(-n // burst)
        lines, writes = _draw(rng, n_lines, bursts, p_write)
        addresses = array("Q", bytes(8 * burst * bursts))
        ops = bytearray(burst * bursts)
        for k in range(burst):
            addresses[k::burst] = array("Q", map(words[k].__getitem__, lines))
            ops[k::burst] = writes
        del addresses[n:], ops[n:]
        yield ops, addresses


def _emit_sweeps(spec: SyntheticPhaseSpec, base: int, rng: random.Random,
                 group_ops: bytes, run: int):
    # One cyclic sweep of 8-byte words per array, from word 0 on every
    # occurrence, interleaved `run` words at a time; each group of
    # `len(group_ops)` references takes those ops. Each array holds a
    # multiple of `run` words, so no run wraps, and starts on a 4 KiB boundary.
    size = len(group_ops)
    streams = size // run
    words = max(run, spec.resolved_working_set // streams // (8 * run) * run)
    stride = (8 * words + _ALIAS_STRIDE) & ~(_ALIAS_STRIDE - 1)
    _check_span(spec, (streams - 1) * stride + 8 * words)
    block = _BLOCK - _BLOCK % size
    for start in range(0, spec.length, block):
        n = min(block, spec.length - start)
        groups = -(-n // size)
        addresses = array("Q", bytes(8 * size * groups))
        for s in range(streams):
            sweep = _sweep(base + s * stride, start // size * run, run * groups, words)
            for k in range(run):
                addresses[run * s + k::size] = sweep[k::run]
        del addresses[n:]
        yield (group_ops * groups)[:n], addresses


_EMITTERS = {
    # Bursts of 4 words on a line of a small working set, 4 lines to a way.
    PhaseKind.HIGH_LOCALITY: partial(_emit_draws, burst=4, group=4, p_write=0.25),
    # Single references to lines drawn uniformly, 32 lines to a way:
    # roughly half of them miss despite the small footprint.
    PhaseKind.RANDOM_ACCESS: partial(_emit_draws, burst=1, group=32, p_write=0.1),
    # c[i] = a[i] + b[i] unrolled by 8: 8 reads of a, 8 of b, 8 writes of c.
    PhaseKind.VECTOR_ADD: partial(_emit_sweeps, group_ops=bytes(16) + b"\1" * 8, run=8),
    # A tiny sequential read loop: nearly all L1 hits after warmup.
    PhaseKind.MARKER: partial(_emit_sweeps, group_ops=bytes(1), run=1),
}


def generate_trace(
    phases: list[SyntheticPhaseSpec],
    iterations: int = 1,
    marker_spec: SyntheticPhaseSpec | None = None,
) -> Trace:
    """Emit `iterations` repetitions of the phase list.

    Given a `marker_spec`, its stream runs after every computational
    phase. Output is a pure function of the specs and seeds.
    """
    trace = Trace()
    for ops, addresses in generate_blocks(phases, iterations, marker_spec):
        trace.ops.frombytes(ops)
        trace.addresses += addresses
    return trace


def generate_blocks(
    phases: list[SyntheticPhaseSpec],
    iterations: int = 1,
    marker_spec: SyntheticPhaseSpec | None = None,
):
    """Yield the references generate_trace returns as blocks of at most
    `_BLOCK` references."""
    if not phases:
        raise ValueError("at least one phase spec is required")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    # Phase i runs in region i + 1, the marker in region len(phases) + 1;
    # the n-th run of a region, from 0, is its occurrence n.
    for it in range(iterations):
        for i, spec in enumerate(phases):
            yield from _EMITTERS[spec.kind](spec, (i + 1) * _REGION_STRIDE,
                                            _occurrence_rng(spec, it))
            if marker_spec is not None:
                yield from _EMITTERS[marker_spec.kind](
                    marker_spec, (len(phases) + 1) * _REGION_STRIDE,
                    _occurrence_rng(marker_spec, it * len(phases) + i))


# --- presets ------------------------------------------------------------


# Preset name -> (high-locality, vector-add and random-access lengths, 0
# leaving the phase out; marker length; iterations). Phase kind i of the
# three is seeded `seed * 1000 + i`, the marker `seed * 1000 + 4`.
_PRESETS = {
    "meabo3": (280_000, 280_000, 280_000, 120_000, 3),
    "meabo3-small": (240_000, 240_000, 240_000, 100_000, 2),
    # Two locality-heavy phases, one pass each: phase transitions are
    # rare, so downstream deltas reflect steady-state model behavior.
    "locality": (300_000, 600_000, 0, 100_000, 1),
}
PRESET_NAMES = tuple(_PRESETS)
_PRESET_KINDS = (PhaseKind.HIGH_LOCALITY, PhaseKind.VECTOR_ADD, PhaseKind.RANDOM_ACCESS)


def preset_specs(name: str, seed: int = 1) -> tuple[list[SyntheticPhaseSpec], int, SyntheticPhaseSpec]:
    """Return (phases, iterations, marker_spec) for a named preset.

    `meabo3` mirrors the three-computational-phase benchmark layout: high
    locality, vector add and random access, each run three times with a
    marker phase after every computational phase. `meabo3-small` is a
    shorter two-iteration variant for quick experiments, and `locality`
    is a single pass over the two locality-heavy phases only.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    *lengths, marker_len, iterations = _PRESETS[name]
    phases = [SyntheticPhaseSpec(kind, n, seed * 1000 + i)
              for i, (kind, n) in enumerate(zip(_PRESET_KINDS, lengths), 1) if n]
    return phases, iterations, SyntheticPhaseSpec(PhaseKind.MARKER, marker_len, seed * 1000 + 4)


def build_preset(name: str, seed: int = 1) -> Trace:
    phases, iterations, marker = preset_specs(name, seed)
    return generate_trace(phases, iterations=iterations, marker_spec=marker)


def write_preset(name: str, seed: int, path) -> int:
    """Write preset `name` as a trace file, each block as it is generated,
    and return the number of references; it holds one block, not the
    trace. A bad path fails before anything is generated."""
    phases, iterations, marker = preset_specs(name, seed)
    return _write_blocks(generate_blocks(phases, iterations, marker), path)
