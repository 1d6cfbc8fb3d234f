"""Per-reference reference implementations that the tests hold the
simulator's batched paths to. Nothing here runs in a simulation.

`train` and `predict` define the statistical models one reference at a
time, acting on a runtime model's state: its flat `counts`, a Markov
chain's `last_state`, and the compiled table that training invalidates.
They compute the restricted pair on their own, so a test that compares
them with `predict_interval` or `shadow_interval` also checks
`models._pair_p`. A reference's access context is its column
`(is_write << 1) | far`.

The synthetic phase generators define each phase kind one reference at a
time, with `rng.randrange` and `rng.random` for every draw; `generate`
holds `trace.generate_trace` to them. `trace_text` defines the trace
file format that `trace.write_trace` writes, one line at a time.

`percent_change` compares a swapped run's totals with the detailed run's,
as the acceptance criteria read them.
"""
import random

from swapsim.models import MarkovModel
from swapsim.trace import PhaseKind


class FixedU:
    """Stand-in RNG returning a preset uniform value and counting draws."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.u


def hit_state(n_states, ctx):
    """The hit state legal for context `ctx`: bit 1 is the write bit, and
    an 8-state chain adds 4 for far. Its miss state is one above."""
    return (ctx & 2) | (ctx & 1) << 2 if n_states == 8 else ctx & 2


def hit_probability(model, ctx):
    """The probability that `predict` draws against at context `ctx`, or
    None for a context never seen, where it predicts miss without a draw.

    Fixed-rate predicts with its observed rate, 0 untrained. A Markov
    chain renormalizes the legal pair of its last state's row, or of the
    hit state's row with no last state; if that pair has no count, it
    uses the pair's column totals over all rows."""
    if not isinstance(model, MarkovModel):
        hits, misses = model.counts
        return hits / (hits + misses) if hits + misses else 0.0
    n, counts = model.n_states, model.counts
    h = hit_state(n, ctx)
    row = h if model.last_state is None else model.last_state
    hits, misses = counts[row * n + h], counts[row * n + h + 1]
    if hits + misses == 0:
        hits = sum(counts[r * n + h] for r in range(n))
        misses = sum(counts[r * n + h + 1] for r in range(n))
        if hits + misses == 0:
            return None
    return hits / (hits + misses)


def predict(model, ctx, rng) -> bool:
    """Predict one reference: True on a hit. A Markov chain moves to the
    drawn state, and stays where it is at a context never seen."""
    p = hit_probability(model, ctx)
    if p is None:
        return False
    hit = rng.random() < p
    if isinstance(model, MarkovModel):
        model.last_state = hit_state(model.n_states, ctx) + (not hit)
    return hit


def train(model, ctx, hit) -> None:
    """Count one observed outcome. Fixed-rate counts a hit or a miss; a
    Markov chain counts the transition from its last state to the
    observed one (none for its first observation) and moves there."""
    if not isinstance(model, MarkovModel):
        model.counts[0 if hit else 1] += 1
        return
    n = model.n_states
    s = hit_state(n, ctx) + (not hit)
    if model.last_state is not None:
        model.counts[model.last_state * n + s] += 1
        model._table = None
    model.last_state = s


class ReferenceLRU:
    """List-based LRU per set; deliberately naive."""

    def __init__(self, config):
        self.config = config
        self.sets = [[] for _ in range(config.set_count)]
        self.shift = config.line_bytes.bit_length() - 1

    def hit_check(self, address):
        line = address >> self.shift
        s = self.sets[line & (self.config.set_count - 1)]
        if line in s:
            s.remove(line)
            s.append(line)
            return True
        if len(s) >= self.config.associativity:
            s.pop(0)
        s.append(line)
        return False


def quadratic_reuse_distances(stream):
    """O(n^2) oracle: distinct lines between consecutive uses of a line."""
    out = []
    last = {}
    for t, line in enumerate(stream):
        out.append(len(set(stream[last[line] + 1:t])) if line in last else None)
        last[line] = t
    return out


def _phase_rng(spec, occurrence):
    return random.Random((spec.seed * 1_000_003) ^ occurrence)


def high_locality_refs(spec, base, occurrence):
    """`(op, address)` of each reference: bursts of 4 consecutive words on
    a 32-byte line drawn from the working set, 4 lines to a 4 KiB way, a
    write with probability 0.25. A last burst cut short still draws."""
    rng = _phase_rng(spec, occurrence)
    n_lines = max(1, spec.resolved_working_set // 32)
    group = min(4, n_lines)
    for i in range(spec.length):
        if i % 4 == 0:
            line = rng.randrange(n_lines)
            op = int(rng.random() < 0.25)
        yield op, base + line // group * 4096 + line % group * 32 + 8 * (i % 4)


def random_access_refs(spec, base, occurrence):
    """One reference per drawn 32-byte line, 32 lines to a 4 KiB way, a
    write with probability 0.1."""
    rng = _phase_rng(spec, occurrence)
    n_lines = max(1, spec.resolved_working_set // 32)
    group = min(32, n_lines)
    for _ in range(spec.length):
        line = rng.randrange(n_lines)
        yield int(rng.random() < 0.1), base + line // group * 4096 + line % group * 32


def vector_add_refs(spec, base, occurrence):
    """c[e] = a[e] + b[e] from element 0, in groups of 8 reads of a, 8 of
    b and 8 writes of c. Each array holds the largest multiple of 8
    elements in a third of the working set, at least 8, and starts on
    the 4 KiB boundary after the one before it; element e of a group
    past the end is element e mod that."""
    elems = max(8, spec.resolved_working_set // 3 // 64 * 8)
    stride = (8 * elems // 4096 + 1) * 4096
    for i in range(spec.length):
        group, k = divmod(i, 24)
        array_index, word = divmod(k, 8)
        yield (int(array_index == 2),
               base + array_index * stride + 8 * ((8 * group + word) % elems))


def marker_refs(spec, base, occurrence):
    """Reads of a loop over the working set's words, from word 0."""
    words = max(1, spec.resolved_working_set // 8)
    for i in range(spec.length):
        yield 0, base + 8 * (i % words)


PHASE_REFS = {
    PhaseKind.HIGH_LOCALITY: high_locality_refs,
    PhaseKind.RANDOM_ACCESS: random_access_refs,
    PhaseKind.VECTOR_ADD: vector_add_refs,
    PhaseKind.MARKER: marker_refs,
}


def generate(phases, iterations, marker_spec):
    """`(op, address)` of each reference of `iterations` passes over the
    phases, the marker after each. Phase i runs in the 256 MiB region
    i + 1 and the marker in region len(phases) + 1; the n-th run of a
    region is its occurrence n, from 0."""
    refs = []
    marker_runs = 0
    for it in range(iterations):
        for i, spec in enumerate(phases):
            refs += PHASE_REFS[spec.kind](spec, (i + 1) << 28, it)
            if marker_spec is not None:
                refs += PHASE_REFS[marker_spec.kind](
                    marker_spec, (len(phases) + 1) << 28, marker_runs)
                marker_runs += 1
    return refs


def trace_text(ops, addresses):
    """The text of a trace file holding these references: `R` or `W`, a
    space, the address as `%#x` writes it, and a line break per reference."""
    return "".join(("R %#x\n", "W %#x\n")[op] % address for op, address in zip(ops, addresses))


def percent_change(model_totals: dict, base_totals: dict) -> dict[str, float | None]:
    """(model - base)/base for each shared statistic; None where the base
    value is zero."""
    out: dict[str, float | None] = {}
    for key in ("l1_hits", "l2_hits", "l3_hits", "mem_accesses", "cycles"):
        base = base_totals.get(key)
        if base is None:
            continue
        out[key] = None if base == 0 else (model_totals[key] - base) / base
    return out
