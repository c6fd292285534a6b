"""Command-line interface: regenerate any figure without pytest.

Usage::

    python -m repro list
    python -m repro fig5-6 --trials 3
    python -m repro fig7-8 --rounds 25
    python -m repro all --out results/
    python -m repro routing --metrics
    python -m repro flightrec --demo
    python -m repro flightrec journal.jsonl --around 103.8 --window 5
    python -m repro chaos
    python -m repro chaos --scenario crash_restart --seed 11
    python -m repro chaos --metrics
    python -m repro top --once
    python -m repro export --out results/

Each command builds the experiment at paper scale (tunable), prints the
paper-style table, and optionally writes it under ``--out``.
``--metrics`` runs any command under a live metrics registry and dumps
it as JSON afterwards.

``flightrec`` is the flight-recorder inspector: it filters and
pretty-prints a journal written by
:meth:`repro.obs.flightrec.FlightRecorder.dump_jsonl` (or, with
``--demo``, injects a double hole grant under the default configuration
and prints the auditor's forensics dump).  It takes its own options, so it is
parsed separately from the figure commands.

``chaos`` runs the seeded fault campaign of :mod:`repro.sim.chaos`
against the message-level protocol, once plain and once under a
committed continuous-query load, and writes one ``BENCH_chaos.json``
verdict row per scenario and campaign; it exits non-zero when any
scenario leaves a persistent invariant violation, loses a stored object
or a committed notification, misses its gray-failure detection budget,
or breaks the flash-crowd contract.  Like ``flightrec`` it owns its
option set and is parsed separately.

``top`` is the live cluster dashboard on the in-band telemetry plane:
it drives a seeded demo cluster and redraws per-node vitals, cluster
rate sparklines, SLO latency tiles, and gray flags each frame
(``--once`` renders a single frame for CI).  ``export`` runs the same
cluster and writes the telemetry as ``metrics.prom`` (Prometheus text
exposition) and ``metrics.jsonl`` (one cluster sample per line).  Both
own their option sets and are parsed separately.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.experiments.config import (
    ExperimentConfig,
    PAPER_CONVERGENCE_POPULATION,
    PAPER_POPULATIONS,
)
from repro.experiments import (
    ablations,
    fig_churn,
    fig_convergence,
    fig_dualpeer_ablation,
    fig_region_maps,
    fig_routing,
    fig_routing_load,
    fig_rushhour,
    fig_scaling,
)


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(seed=args.seed, trials=args.trials)


def _run_fig2_3(args: argparse.Namespace) -> str:
    results = fig_region_maps.run_fig2_fig3(
        _config_from(args), population=args.population or 500
    )
    return fig_region_maps.render_report(results)


def _run_fig5_6(args: argparse.Namespace) -> str:
    populations = (
        (args.population,) if args.population else PAPER_POPULATIONS
    )
    result = fig_scaling.run_scaling(
        _config_from(args), populations=populations
    )
    return fig_scaling.render_report(result)


def _run_fig7_8(args: argparse.Namespace) -> str:
    results = fig_convergence.run_all_scenarios(
        _config_from(args),
        population=args.population or PAPER_CONVERGENCE_POPULATION,
        rounds=args.rounds,
        max_adaptations=100_000,
    )
    rounds = fig_convergence.merged_by_round(results)
    return "\n\n".join(
        [
            "Figure 7: mean workload index by round\n\n"
            + rounds.render_table("mean", x_label="round"),
            "Figure 8: std-dev of workload index by round\n\n"
            + rounds.render_table("std", x_label="round"),
        ]
    )


def _run_fig9_10(args: argparse.Namespace) -> str:
    results = fig_convergence.run_all_scenarios(
        _config_from(args),
        population=args.population or PAPER_CONVERGENCE_POPULATION,
        rounds=200,
        max_adaptations=500,
    )
    ops = fig_convergence.thin_collector(
        fig_convergence.merged_by_adaptation(results), step=25
    )
    return "\n\n".join(
        [
            "Figure 9: std-dev of workload index by number of adaptations\n\n"
            + ops.render_table("std", x_label="adaptations"),
            "Figure 10: mean workload index by number of adaptations\n\n"
            + ops.render_table("mean", x_label="adaptations"),
        ]
    )


def _run_routing(args: argparse.Namespace) -> str:
    cells = fig_routing.run_routing(_config_from(args))
    return fig_routing.render_report(cells)


def _run_routing_load(args: argparse.Namespace) -> str:
    results = fig_routing_load.run_routing_load(
        _config_from(args), population=args.population or 1_000
    )
    return fig_routing_load.render_report(results)


def _run_dualpeer(args: argparse.Namespace) -> str:
    results = fig_dualpeer_ablation.run_ablation(
        _config_from(args), population=args.population or 1_000
    )
    return fig_dualpeer_ablation.render_report(results)


def _run_churn(args: argparse.Namespace) -> str:
    results = fig_churn.run_churn_comparison(
        _config_from(args), population=args.population or 1_000
    )
    return fig_churn.render_report(results)


def _run_rushhour(args: argparse.Namespace) -> str:
    results = fig_rushhour.run_rushhour(
        _config_from(args), population=args.population or 1_000
    )
    return fig_rushhour.render_report(results)


def _run_ablations(args: argparse.Namespace) -> str:
    config = _config_from(args)
    population = args.population or 1_000
    sections = [
        ablations.render_split_policy_report(
            ablations.ablate_split_policy(config, population=population)
        ),
        ablations.render_adaptation_report(
            "trigger ratio",
            ablations.ablate_trigger_ratio(config, population=population),
        ),
        ablations.render_adaptation_report(
            "search TTL",
            ablations.ablate_search_ttl(config, population=population),
        ),
        ablations.render_adaptation_report(
            "mechanism sets",
            ablations.ablate_mechanism_sets(config, population=population),
        ),
        ablations.render_adaptation_report(
            "replication fraction",
            ablations.ablate_replication_fraction(
                config, population=population
            ),
        ),
    ]
    return "\n\n".join(sections)


COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "fig2-3": _run_fig2_3,
    "fig5-6": _run_fig5_6,
    "fig7-8": _run_fig7_8,
    "fig9-10": _run_fig9_10,
    "routing": _run_routing,
    "routing-load": _run_routing_load,
    "dualpeer": _run_dualpeer,
    "churn": _run_churn,
    "rushhour": _run_rushhour,
    "ablations": _run_ablations,
}

DESCRIPTIONS = {
    "fig2-3": "region size & load maps at 500 nodes (Figures 2/3)",
    "fig5-6": "workload-index std/mean vs population (Figures 5/6)",
    "fig7-8": "convergence by adaptation round (Figures 7/8)",
    "fig9-10": "convergence by number of adaptations (Figures 9/10)",
    "routing": "O(2*sqrt(N)) routing-hop check, greedy vs shortcut-cached",
    "routing-load": "routing workload balance across variants",
    "dualpeer": "dual-peer ablation (splits, failover, balance)",
    "churn": "resilience under sustained Poisson churn",
    "rushhour": "directional rush-hour drift vs adaptation",
    "ablations": "design-choice ablations (policies, trigger, TTL, ...)",
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the GeoGrid paper's figures.",
    )
    parser.add_argument(
        "command",
        choices=sorted(COMMANDS) + ["list", "all"],
        help="which experiment to run ('list' prints descriptions)",
    )
    parser.add_argument(
        "--trials", type=int, default=3,
        help="trials per configuration (paper: 100; default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=20070625, help="master random seed"
    )
    parser.add_argument(
        "--population", type=int, default=None,
        help="override the node population (default: per-figure paper value)",
    )
    parser.add_argument(
        "--rounds", type=int, default=25,
        help="adaptation rounds for the convergence figures",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory to also write <command>.txt into",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect runtime metrics during the run and dump the "
             "registry as JSON after each command",
    )
    return parser


def build_chaos_parser() -> argparse.ArgumentParser:
    """The ``chaos`` subcommand's parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Run the seeded fault campaign (asymmetric partitions, gray "
            "failures, crash-restart, regional outages, drop/latency "
            "spikes, churn storms, a flash crowd) against the "
            "message-level protocol, once plain and once under a "
            "committed continuous-query load, and write one "
            "BENCH_chaos.json row per result.  Exit code 1 when any "
            "scenario fails its verdict: a persistent invariant "
            "violation, a lost stored object or notification, a missed "
            "gray-failure detection, or a broken flash-crowd contract."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="campaign seed"
    )
    parser.add_argument(
        "--scenario", action="append", default=None,
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--population", type=int, default=10,
        help="nodes joined before faults are injected",
    )
    parser.add_argument(
        "--objects", type=int, default=16,
        help="location objects stored and verified at the end",
    )
    parser.add_argument(
        "--drop", type=float, default=0.05,
        help="baseline random drop probability during scenarios",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="run the campaign under a live metrics registry and dump it "
             "as JSON afterwards (also written as chaos.metrics.json)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory to write BENCH_chaos.json into (default: cwd)",
    )
    return parser


def _bench_meta() -> Dict[str, str]:
    """Provenance stamped into ``BENCH_chaos.json`` under ``_meta``."""
    import datetime
    import platform
    import subprocess

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "python": platform.python_version(),
    }


def _chaos_row(result, pubsub: bool) -> Dict[str, object]:
    """One scenario's ``BENCH_chaos.json`` verdict row."""
    row: Dict[str, object] = {
        "ok": result.ok,
        "violations": len(result.violations),
        "lost_objects": result.lost_objects,
        "objects": result.objects,
        "dead_letters": result.dead_letters,
        "retries": result.retries,
        "acked": result.acked,
        "duplicates": result.duplicates,
        "sim_time": result.sim_time,
    }
    if pubsub:
        row["expected_notifications"] = result.expected_notifications
        row["lost_notifications"] = result.lost_notifications
    if result.gray_expected is not None:
        row["detect_ticks"] = result.detect_ticks
        row["detect_budget"] = result.detect_budget
    if result.queue_bound and not pubsub:
        # The pubsub arena runs with the overload plane off, so only the
        # plain flash_crowd row asserts the admission contract.
        row["sheds"] = result.sheds
        row["control_sheds"] = result.control_sheds
        row["peak_queue_depth"] = result.peak_queue_depth
        row["queue_bound"] = result.queue_bound
    return row


def _chaos_main(argv: List[str]) -> int:
    import dataclasses
    import json

    from repro.errors import ConfigurationError
    from repro.sim.chaos import (
        CampaignReport,
        ChaosConfig,
        SCENARIOS,
        run_campaign,
        run_pubsub_campaign,
    )

    args = build_chaos_parser().parse_args(argv)
    if args.scenario:
        unknown = [name for name in args.scenario if name not in SCENARIOS]
        if unknown:
            print(
                f"error: unknown scenario(s) {unknown}; "
                f"known: {sorted(SCENARIOS)}",
                file=sys.stderr,
            )
            return 2
    try:
        config = ChaosConfig(
            seed=args.seed,
            population=args.population,
            objects=args.objects,
            drop_probability=args.drop,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = obs.enable() if args.metrics else None
    try:
        plain = run_campaign(config, scenarios=args.scenario)
        pubsub = run_pubsub_campaign(config, scenarios=args.scenario)
    finally:
        if registry is not None:
            obs.disable()
    report = CampaignReport(
        seed=config.seed,
        results=plain.results + [
            dataclasses.replace(result, name=f"pubsub.{result.name}")
            for result in pubsub.results
        ],
    )
    print(report.render())

    payload: Dict[str, object] = {"_meta": _bench_meta()}
    for result in report.results:
        payload[f"chaos.{result.name}"] = _chaos_row(
            result, pubsub=result.name.startswith("pubsub.")
        )
    out_dir = args.out if args.out is not None else pathlib.Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_chaos.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    print(f"[saved to {path}]", file=sys.stderr)
    if registry is not None:
        dump = registry.to_json()
        print()
        print("=== metrics: chaos ===")
        print(dump)
        metrics_path = out_dir / "chaos.metrics.json"
        metrics_path.write_text(dump + "\n")
        print(f"[saved to {metrics_path}]", file=sys.stderr)
    return 0 if report.ok else 1


def build_top_parser() -> argparse.ArgumentParser:
    """The ``top`` subcommand's parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description=(
            "Live cluster dashboard on the in-band telemetry plane: "
            "drives a seeded demo cluster and redraws per-node vitals, "
            "cluster-rate sparklines, SLO latency tiles, and gray flags "
            "each frame.  --once renders a single frame and exits (CI)."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="demo cluster seed"
    )
    parser.add_argument(
        "--population", type=int, default=10,
        help="nodes in the demo cluster",
    )
    parser.add_argument(
        "--interval", type=float, default=10.0,
        help="sim-seconds advanced per frame",
    )
    parser.add_argument(
        "--frames", type=int, default=0,
        help="stop after this many frames (0 = until interrupted)",
    )
    parser.add_argument(
        "--refresh", type=float, default=1.0,
        help="wall-clock seconds between frames",
    )
    parser.add_argument(
        "--width", type=int, default=48,
        help="sparkline width (columns of retained history)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one frame without clearing the screen, then exit",
    )
    return parser


def _top_main(argv: List[str]) -> int:
    import time

    from repro.obs.telemetry import cluster_sample, demo_cluster, drive_traffic
    from repro.viz.dashboard import render_dashboard

    args = build_top_parser().parse_args(argv)
    cluster, rng = demo_cluster(
        seed=args.seed, population=args.population
    )
    frames = 1 if args.once else args.frames
    samples: List[dict] = []
    rendered = 0
    try:
        while frames <= 0 or rendered < frames:
            drive_traffic(
                cluster, rng, duration=args.interval, operations=6
            )
            samples.append(cluster_sample(cluster))
            del samples[: -args.width]
            page = render_dashboard(samples, width=args.width)
            if not args.once and sys.stdout.isatty():
                # Home the cursor and clear to end-of-screen between
                # frames, the standard flicker-free top(1) redraw.
                print("\x1b[H\x1b[J", end="")
            print(page)
            rendered += 1
            if args.once or (frames > 0 and rendered >= frames):
                break
            time.sleep(max(0.0, args.refresh))
    except KeyboardInterrupt:
        pass
    return 0


def build_export_parser() -> argparse.ArgumentParser:
    """The ``export`` subcommand's parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro export",
        description=(
            "Run the seeded demo cluster under a live metrics registry "
            "and export its telemetry: metrics.prom (Prometheus text "
            "exposition of the registry plus the final cluster sample) "
            "and metrics.jsonl (one cluster sample per line)."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="demo cluster seed"
    )
    parser.add_argument(
        "--population", type=int, default=10,
        help="nodes in the demo cluster",
    )
    parser.add_argument(
        "--samples", type=int, default=6,
        help="telemetry samples to collect (one per traffic slice)",
    )
    parser.add_argument(
        "--interval", type=float, default=10.0,
        help="sim-seconds advanced per sample",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory to write metrics.prom / metrics.jsonl into "
             "(default: cwd)",
    )
    return parser


def _export_main(argv: List[str]) -> int:
    from repro.obs.export import (
        registry_to_prometheus,
        sample_to_prometheus,
        samples_to_jsonl,
    )
    from repro.obs.telemetry import cluster_sample, demo_cluster, drive_traffic

    args = build_export_parser().parse_args(argv)
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return 2
    registry = obs.enable()
    try:
        cluster, rng = demo_cluster(
            seed=args.seed, population=args.population
        )
        samples = []
        for _ in range(args.samples):
            drive_traffic(
                cluster, rng, duration=args.interval, operations=6
            )
            samples.append(cluster_sample(cluster))
    finally:
        obs.disable()
    out_dir = args.out if args.out is not None else pathlib.Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    prom_path = out_dir / "metrics.prom"
    prom_path.write_text(
        registry_to_prometheus(registry) + sample_to_prometheus(samples[-1])
    )
    jsonl_path = out_dir / "metrics.jsonl"
    jsonl_path.write_text(samples_to_jsonl(samples))
    print(
        f"exported {args.samples} sample(s) of {len(samples[-1]['nodes'])} "
        f"node(s) at t={samples[-1]['time']:g}"
    )
    for path in (prom_path, jsonl_path):
        print(f"[saved to {path}]", file=sys.stderr)
    return 0


def build_flightrec_parser() -> argparse.ArgumentParser:
    """The ``flightrec`` subcommand's parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro flightrec",
        description=(
            "Dump/filter/pretty-print a flight-recorder journal, or "
            "inject a double hole grant with --demo."
        ),
    )
    parser.add_argument(
        "journal", nargs="?", type=pathlib.Path, default=None,
        help="JSONL journal written by FlightRecorder.dump_jsonl",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="orphan a region, let two partitioned caretakers each grant "
             "it, heal, and print the forensics dump",
    )
    parser.add_argument(
        "--seed", type=int, default=14, help="demo node-placement seed"
    )
    parser.add_argument(
        "--around", type=float, default=None,
        help="keep events within --window of this sim time",
    )
    parser.add_argument(
        "--window", type=float, default=10.0,
        help="half-width of the --around time window",
    )
    parser.add_argument(
        "--last", type=int, default=None,
        help="keep only the final N surviving events",
    )
    parser.add_argument(
        "--kind", action="append", default=None,
        help="keep this event kind (repeatable)",
    )
    parser.add_argument(
        "--trace", type=int, default=None,
        help="keep one causal trace by id",
    )
    parser.add_argument(
        "--grep", default=None,
        help="keep events whose rendered fields contain this substring",
    )
    parser.add_argument(
        "--tree", action="store_true",
        help="render surviving traces as span trees instead of a flat "
             "event listing",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the surviving events as JSONL to this file",
    )
    return parser


def _flightrec_main(argv: List[str]) -> int:
    from repro.obs import causal
    # Not ``from repro.obs import flightrec``: the facade *function* of
    # the same name shadows the submodule as a package attribute.
    from repro.obs.flightrec import filter_events, load_jsonl, render_events

    args = build_flightrec_parser().parse_args(argv)
    if args.demo:
        from repro.protocol.forensics import run_split_brain_repro

        report = run_split_brain_repro(seed=args.seed)
        print(report.render())
        if args.out is not None:
            report.recorder.dump_jsonl(args.out)
            print(f"[saved journal to {args.out}]", file=sys.stderr)
        return 0
    if args.journal is None:
        print(
            "error: provide a journal file or --demo "
            "(see python -m repro flightrec --help)",
            file=sys.stderr,
        )
        return 2
    events = load_jsonl(args.journal)
    selected = filter_events(
        events,
        around=args.around,
        window=args.window,
        last=args.last,
        kind=args.kind,
        trace_id=args.trace,
        grep=args.grep,
    )
    if args.tree:
        for trace_id in causal.trace_ids(selected):
            print(f"--- trace {trace_id} ---")
            # Build from the *full* journal so filtered-out parents still
            # shape the tree; the filter chooses which traces to show.
            print(causal.render_trace(causal.build_trace(events, trace_id)))
            print()
    else:
        print(render_events(selected))
    if args.out is not None:
        import json

        args.out.write_text(
            "".join(
                json.dumps(event, sort_keys=True, default=str) + "\n"
                for event in selected
            )
        )
        print(f"[saved {len(selected)} events to {args.out}]", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # ``flightrec`` takes its own option set (journal filters), so it is
    # routed before the figure parser sees -- and rejects -- its flags.
    if argv and argv[0] == "flightrec":
        try:
            return _flightrec_main(list(argv[1:]))
        except BrokenPipeError:
            # Journal dumps are routinely piped into ``head``; a closed
            # pipe is a normal end of output, not an error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    # ``chaos`` likewise owns its option set (fault-campaign knobs).
    if argv and argv[0] == "chaos":
        return _chaos_main(list(argv[1:]))
    # ``top`` and ``export`` own their option sets (telemetry-plane
    # dashboard and exporters).
    if argv and argv[0] == "top":
        return _top_main(list(argv[1:]))
    if argv and argv[0] == "export":
        return _export_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(COMMANDS):
            print(f"{name:<14} {DESCRIPTIONS[name]}")
        print(
            f"{'flightrec':<14} inspect flight-recorder journals "
            f"(own flags; see 'flightrec --help')"
        )
        print(
            f"{'chaos':<14} seeded fault campaign writing BENCH_chaos.json "
            f"(own flags; see 'chaos --help')"
        )
        print(
            f"{'top':<14} live telemetry dashboard of a demo cluster "
            f"(own flags; see 'top --help')"
        )
        print(
            f"{'export':<14} write metrics.prom / metrics.jsonl telemetry "
            f"exports (own flags; see 'export --help')"
        )
        return 0
    names = sorted(COMMANDS) if args.command == "all" else [args.command]
    registry = obs.enable() if args.metrics else None
    try:
        for name in names:
            report = COMMANDS[name](args)
            print(report)
            print()
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                path = args.out / f"{name}.txt"
                path.write_text(report + "\n")
                print(f"[saved to {path}]", file=sys.stderr)
            if registry is not None:
                dump = registry.to_json()
                print(f"=== metrics: {name} ===")
                print(dump)
                print()
                if args.out is not None:
                    metrics_path = args.out / f"{name}.metrics.json"
                    metrics_path.write_text(dump + "\n")
                    print(f"[saved to {metrics_path}]", file=sys.stderr)
                registry.reset()
    finally:
        if registry is not None:
            obs.disable()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
