"""Per-layer tracing for the traced benchmark run.

The tracer wraps public swapsim functions and methods at class or module
level and restores the originals afterwards. Per-reference calls are kept
as aggregated counters per layer key: calls, total time, self time, and
the number of traced calls made inside them. Spans are recorded only per
interval and per top-level call, so memory stays bounded.

A wrapper costs time of its own. `calibrate` measures that cost on an
empty wrapped method: what one wrapped call adds as seen by its caller,
and the part of it that falls inside the callee's own timing window.
Inside the simulator a wrapped call costs more than the empty one (on
CPython 3.11, 1.3 to 1.6 times as much), so the traced run also measures
the cost per wrapped call in place, from its traced and untraced wall
times, and subtracts that: then the self times of all layers add up to
the untraced wall time.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter_ns

ROOT = "root"
ON_ACCESS = "on_access."
MISS_PATH = ("miss_to_l2", "validate_miss_to_l2")

# Stat fields: calls, total ns, self ns, direct traced children,
# all traced descendants.
CALLS, TOTAL, SELF, CHILDREN, DESCENDANTS = range(5)


def directive_kind(d) -> str:
    if d.swapped_kind is not None:
        return "swapped"
    return "training" if d.training else "base"


def _hit_check_key(parent: str) -> str:
    if parent.startswith(ON_ACCESS):
        return "l1_hit_check"
    if parent in MISS_PATH:
        return "l2l3_hit_check"
    if parent == "validate_access":
        return "validate_l1_hit_check"
    return "hit_check.other"


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0, 0, 0, 0])
        self.stack = [[ROOT, 0, 0, 0]]  # key, child ns, children, descendants
        self.intervals = {"base": 0, "training": 0, "swapped": 0}
        self.spans: list[dict] = []
        self._origin = perf_counter_ns()
        self._boundary = 0
        self._access_key = [ON_ACCESS + "base"]
        self._patches = []

    # --- wrappers ---------------------------------------------------------

    def _timed(self, fn, key_of):
        stack, stats = self.stack, self.stats

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [key_of(args, parent[0]), 0, 0, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            stack.pop()
            s = stats[frame[0]]
            s[CALLS] += 1
            s[TOTAL] += dt
            s[SELF] += dt - frame[1]
            s[CHILDREN] += frame[2]
            s[DESCENDANTS] += frame[3]
            parent[1] += dt
            parent[2] += 1
            parent[3] += 1 + frame[3]
            return result

        return wrapper

    def _spanned(self, fn, key, before=None, after=None):
        """A timed wrapper that also records a span per call; for calls
        made once per run or per interval."""
        timed = self._timed(fn, lambda args, parent: key)

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            if before is not None:
                before(args, start)
            result = timed(*args, **kwargs)
            if after is not None:
                after(args)
            else:
                self._span(key, start, perf_counter_ns())
            return result

        return wrapper

    def _span(self, name, start, end, **extra):
        self.spans.append({"name": name, "start_ns": start - self._origin,
                           "end_ns": end - self._origin, **extra})

    def _run_started(self, args, start):
        self._boundary = start
        self._access_key[0] = ON_ACCESS + "base"

    def _interval_ended(self, args, now):
        # The controller's directive still is the one the closing interval
        # ran under; the next one is set by the wrapped call.
        controller, event = args[0], args[1]
        kind = directive_kind(controller.directive)
        self.intervals[kind] += 1
        self._span("interval", self._boundary, now, parent="run_simulation",
                   index=event.interval_index, phase_id=event.phase_id, directive=kind)
        self._boundary = now

    def _directive_changed(self, args):
        self._access_key[0] = ON_ACCESS + directive_kind(args[0].directive)

    # --- installation -----------------------------------------------------

    def _patch(self, owner, name, make):
        original = getattr(owner, name, None)
        if original is None:
            return
        own = vars(owner).get(name)
        self._patches.append((owner, name, own))
        setattr(owner, name, make(original))

    def install(self) -> None:
        from swapsim import cache, cli, controller, metrics, models, phase, sim, trace

        def fixed(key):
            return lambda fn: self._timed(fn, lambda args, parent: key)

        access_key = self._access_key
        markov = {4: "predict.markov4", 8: "predict.markov8"}
        for module in (sim, cli):
            self._patch(module, "run_simulation", lambda fn: self._spanned(
                fn, "run_simulation", before=self._run_started))
        for module in (trace, cli):
            self._patch(module, "load_trace", lambda fn: self._spanned(fn, "load_trace"))
        self._patch(controller.SwapController, "on_access",
                    lambda fn: self._timed(fn, lambda args, parent: access_key[0]))
        self._patch(controller.SwapController, "on_interval_end", lambda fn: self._spanned(
            fn, "on_interval_end", before=self._interval_ended, after=self._directive_changed))
        self._patch(phase.PhaseDetector, "observe", fixed("observe"))
        self._patch(models.FixedHitRateModel, "predict", fixed("predict.fixed-rate"))
        self._patch(models.MarkovModel, "predict",
                    lambda fn: self._timed(fn, lambda args, parent: markov[args[0].n_states]))
        self._patch(models.FixedHitRateModel, "train", fixed("train"))
        self._patch(models.MarkovModel, "train", fixed("train"))
        self._patch(cache.Hierarchy, "access", fixed("validate_access"))
        self._patch(cache.Hierarchy, "miss_to_l2", lambda fn: self._timed(
            fn, lambda args, parent: "validate_miss_to_l2" if parent == "validate_access"
            else "miss_to_l2"))
        self._patch(cache.SetAssociativeCache, "hit_check",
                    lambda fn: self._timed(fn, lambda args, parent: _hit_check_key(parent)))
        self._patch(metrics.ReuseDistanceTracker, "observe", fixed("reuse_observe"))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, own = self._patches.pop()
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)

    # --- results ----------------------------------------------------------

    def layer_metrics(self, refs: int, wrapper_ns: float, inner_ns: float) -> dict[str, float]:
        stats = self.stats
        outer_ns = wrapper_ns - inner_ns

        def calls(key):
            return stats[key][CALLS] if key in stats else 0

        def self_ns(key):
            s = stats[key]
            return s[SELF] - s[CALLS] * inner_ns - s[CHILDREN] * outer_ns

        def incl_ns(key):
            s = stats[key]
            return s[TOTAL] - s[CALLS] * inner_ns - s[DESCENDANTS] * wrapper_ns

        def per_call(key, measure):
            n = calls(key)
            return measure(key) / n if n else 0.0

        intervals = sum(self.intervals.values())
        out = {
            "trace.load_ns_per_ref": incl_ns("load_trace") / refs,
            "phase.observe_ns_per_ref": self_ns("observe") / refs,
            "controller.on_interval_end_us": per_call("on_interval_end", self_ns) / 1000.0,
            "controller.swapped_frac": self.intervals["swapped"] / intervals if intervals else 0.0,
            "models.train_ns": per_call("train", self_ns),
            "cache.l1_hit_check_ns": per_call("l1_hit_check", self_ns),
            "cache.miss_to_l2_ns": per_call("miss_to_l2", incl_ns),
            "cache.miss_to_l2_calls": calls("miss_to_l2"),
            "cache.validate_access_ns": per_call("validate_access", incl_ns),
            "metrics.reuse_observe_ns": per_call("reuse_observe", self_ns),
            "metrics.reuse_observe_calls": calls("reuse_observe"),
            "sim.self_ns_per_ref": self_ns("run_simulation") / refs,
        }
        for kind, n in self.intervals.items():
            out[f"controller.intervals.{kind}"] = n
            out[f"controller.on_access_ns.{kind}"] = per_call(ON_ACCESS + kind, self_ns)
        for kind in ("fixed-rate", "markov4", "markov8"):
            out[f"models.predict_ns.{kind}"] = per_call(f"predict.{kind}", self_ns)
            out[f"models.predict_calls.{kind}"] = calls(f"predict.{kind}")
        return out

    def total_ns(self, key: str) -> int:
        return self.stats[key][TOTAL] if key in self.stats else 0

    def wrapped_calls(self) -> int:
        return sum(s[CALLS] for s in self.stats.values())


class _Probe:
    def empty(self):
        pass


def calibrate(n: int = 100_000, rounds: int = 5) -> tuple[float, float]:
    """(wrapper_ns, inner_ns): the medians over `rounds` of the cost one
    wrapper adds to a call of an empty method, and of the part of it that
    the wrapper's own timing window sees."""
    probe = _Probe()
    wrapper, inner = [], []
    for _ in range(rounds):
        t0 = perf_counter_ns()
        for _ in range(n):
            pass
        loop = perf_counter_ns() - t0
        t0 = perf_counter_ns()
        for _ in range(n):
            probe.empty()
        plain = perf_counter_ns() - t0
        tracer = Tracer()
        tracer._patch(_Probe, "empty", lambda fn: tracer._timed(fn, lambda args, parent: "probe"))
        try:
            t0 = perf_counter_ns()
            for _ in range(n):
                probe.empty()
            wrapped = perf_counter_ns() - t0
        finally:
            tracer.uninstall()
        wrapper.append((wrapped - plain) / n)
        inner.append(tracer.total_ns("probe") / n - (plain - loop) / n)
    return statistics.median(wrapper), statistics.median(inner)
