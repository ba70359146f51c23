"""Skalla's benchmark: one command, three workloads, oracle-checked.

Run from the repository root::

    python3 perfbench/run.py --workload corr-high --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` runs half the time untraced and half with
the per-layer timing wrappers installed, and reports the per-layer
metrics.  Every result is checked against the centralized oracle
after the window.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
``{"value", "unit"}``).  The exit code is 0 only when every operation
succeeded and matched the oracle.

Metric definitions and the reason for each workload are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every data size (small runs)")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Set up, measure, verify; returns the result object."""
    from perfbench import metrics, verify
    from perfbench.tracer import Tracer, install_layers
    from perfbench.workloads import WORKLOADS, run_window

    workload = WORKLOADS[args.workload]
    setup_seconds = []
    session = None
    try:
        for __ in range(SETUP_REPEATS):
            if session is not None:
                session.close()
                session = None
                gc.collect()
            started = time.perf_counter()
            session = workload.build(args.seed, args.scale)
            setup_seconds.append(time.perf_counter() - started)
        gc.collect()
        if not args.trace:
            windows = [run_window(session, workload, args.seconds)]
        else:
            half = args.seconds / 2
            plain = run_window(session, workload, half, min_queries=1)
            tracer = Tracer()
            install_layers(tracer)
            try:
                traced = run_window(session, workload, half, min_queries=1,
                                    keep_metrics=True)
            finally:
                tracer.uninstall()
            windows = [plain, traced]
        peak_rss = metrics.peak_rss_mb()
        mismatched, notes = verify.check(session, windows)
        if args.trace:
            differing, differences = verify.traced_differences(plain, traced)
            mismatched += differing
            notes += differences
    finally:
        if session is not None:
            session.close()

    failures = [line for window in windows for line in window.failures]
    if args.trace:
        values = metrics.per_layer(plain, traced, tracer.spans,
                                   session.slices)
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(windows[0], setup_seconds, peak_rss)
        units = metrics.END_TO_END
    attempted = sum(window.attempted for window in windows)
    failed = len(failures) + mismatched
    print_report(args, workload, windows, setup_seconds, values, units,
                 failures + notes, failed, attempted)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def print_report(args, workload, windows, setup_seconds, values, units,
                 problems, failed, attempted) -> None:
    from perfbench.metrics import LAYERS
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  set-ups (s): {', '.join(f'{s:.3f}' for s in setup_seconds)}")
    queries = sum(len(window.queries) for window in windows)
    appends = [latency for window in windows
               for latency in window.append_latencies]
    print(f"  latency samples: {queries} queries, {len(appends)} appends "
          f"in {sum(window.elapsed for window in windows):.2f} s")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    print(f"  {'failed_ratio':40s} {failed / max(attempted, 1):14.6g} "
          f"({failed} of {attempted} operations)")
    if args.trace:
        wall = values["trace.query_wall_s"]
        print("  share of query wall time (self time per layer):")
        for layer in (*LAYERS, "trace.unattributed"):
            name = (layer if layer.startswith("trace.")
                    else f"{layer}.self")
            share = values[f"{name}_s"] / wall if wall else 0.0
            print(f"    {layer:24s} {100 * share:6.1f}%")
    for line in problems[:20]:
        print(f"  FAILED: {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources (src/repro) are not in "
              f"{ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
