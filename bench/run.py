#!/usr/bin/env python3
"""swapsim benchmark: one workload per process, one thread.

    python3 bench/run.py --workload swap-steady --seed 1 --seconds 8 --trace 0

Builds the workload's inputs from the seed (set-up), runs the timed
operation on them again and again for at least --seconds, checks every
output, and prints human-readable lines followed by one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured without tracing; their
host times are rescaled to a reference host speed (bench/hostspeed.py).
--trace 1 runs the operation traced, between two untraced runs of it,
and reports the per-layer metrics. bench/README.md describes every metric.

The simulator is imported from src/ of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("swap-steady", "detailed-churn", "validate-file"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "swapsim" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'swapsim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if res is None:
        print("error: no operation produced a checked result", file=sys.stderr)
        return 1
    attempted, failed, metrics = res
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
