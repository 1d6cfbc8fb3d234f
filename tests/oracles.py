"""Per-reference reference implementations that the tests hold the
simulator's batched paths to. Nothing here runs in a simulation.

`train` and `predict` define the statistical models one reference at a
time, acting on a runtime model's state: its flat `counts`, a Markov
chain's `last_state`, and the compiled table that training invalidates.
They compute the restricted pair on their own, so a test that compares
them with `predict_interval` or `shadow_interval` also checks
`models._pair_p`. A reference's access context is its column
`(is_write << 1) | far`.
"""
from swapsim.models import MarkovModel


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
