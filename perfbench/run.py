"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup_uniform --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the gated
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it, ``report``, names every end-to-end
figure the workload has (the gated ones plus the workload-specific
latencies and counts) with its unit, and the outputs that must repeat
exactly for a given seed.  A failed output check prints the failure to
standard error, no numbers, and exits with status 1.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("lookup_uniform", "track_churn", "paper_adapt")

#: The gated end-to-end metrics (BENCHMARK.json ``end_to_end``).
END_TO_END = ("setup_s", "ops_per_s", "ok_frac", "peak_rss_mb", "route_hops_mean")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run a tiny instance (the benchmark's own tests use this)",
    )
    return parser.parse_args(argv)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns a :class:`common.RunResult`."""
    import paper_adapt
    import protocol_loads
    import tracing

    if name == "paper_adapt":
        load = paper_adapt.SMOKE if smoke else paper_adapt.PAPER_ADAPT
        runner = paper_adapt.run
    else:
        load = {
            "lookup_uniform": protocol_loads.LOOKUP_UNIFORM,
            "track_churn": protocol_loads.TRACK_CHURN,
        }[name]
        if smoke:
            load = protocol_loads.smoke(load)
        runner = protocol_loads.run
    if not trace:
        return runner(load, seed, seconds)
    return tracing.traced_run(runner, load, seed, seconds)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    from common import CheckFailed, peak_rss_mb

    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.smoke
        )
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:  # the program under test raised: report, print no numbers
        traceback.print_exc()
        print("perfbench: the program raised; no numbers", file=sys.stderr)
        return 1
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    print(
        json.dumps(
            {
                "report": {
                    k: {"value": v, "unit": u}
                    for k, (v, u) in {**result.metrics, **result.report}.items()
                },
                "samples": result.samples,
                "chunk_host_s": result.chunk_host_s,
                "deterministic": result.deterministic,
            },
            sort_keys=True,
        )
    )
    chosen = result.layers if args.trace else {k: result.metrics[k] for k in END_TO_END}
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
