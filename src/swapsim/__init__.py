"""Trace-driven cache-hierarchy simulator that detects program phases
online and swaps the detailed L1D model for cheap statistical
approximations per phase."""

from .cache import (
    CacheConfig,
    Hierarchy,
    HierarchyConfig,
    SetAssociativeCache,
)
from .controller import ControllerConfig, Directive, SwapController
from .metrics import (
    IntervalRecord,
    ReuseDistanceTracker,
    ReuseHistogram,
    per_phase_accuracy,
    percent_change,
)
from .models import (
    FixedHitRateModel,
    MarkovModel,
    ModelKind,
    make_model,
    model_hit_check_comparisons,
    model_size_bytes,
)
from .phase import (
    PhaseDetector,
    PhaseDetectorConfig,
    PhaseEvent,
    signature_diff,
)
from .scoring import ScoreVector, ShadowStats, score, select_best
from .sim import Runner, RunResult, run_simulation
from .trace import (
    PhaseKind,
    SyntheticPhaseSpec,
    Trace,
    generate_intervals,
    generate_trace,
    load_trace,
    read_intervals,
    write_trace,
)

__version__ = "0.1.0"
