"""The benchmark harness behind ``python -m repro bench``.

Runs the repo's micro-operation and routing benchmarks under a live
metrics registry and writes machine-readable ``BENCH_micro_ops.json`` and
``BENCH_routing.json`` snapshots (schema: metric name ->
``{count, mean, p50, p95, p99, min, max, total}``), so the performance
trajectory of the codebase accumulates across PRs instead of living only
in transient pytest-benchmark output.  ``python -m repro bench store``
additionally runs the location-store suite and writes
``BENCH_store.json`` (update throughput, update/lookup hop counts, and
objects migrated per adaptation).  ``python -m repro bench telemetry``
writes ``BENCH_telemetry.json``: gray-failure detection latency from the
chaos campaign, heartbeat digest byte overhead, and the wall-clock cost
of the in-band telemetry plane versus ``telemetry_enabled=False``.

The micro-ops run also measures the *instrumentation overhead*: the same
hot-path workload is timed with the no-op facade (collection off) and
with a live registry *plus* flight recorder, and the ratio is recorded as
``bench.overhead_ratio``.  The instrumentation contract is that this
stays below 1.10 (< 10% with everything on; disabled-mode cost stays
within measurement noise).

Every snapshot carries a ``_meta`` header (git SHA, UTC timestamp,
python version) so the accumulated ``BENCH_*.json`` files form a
comparable trajectory across PRs.  Consumers skip keys starting with
``_``.

Timings are wall-clock (``time.perf_counter``) and therefore noisy at the
microsecond scale; every timed section is repeated and the minimum kept,
the standard way to suppress scheduler noise in micro-benchmarks.
"""

from __future__ import annotations

import datetime
import gc
import json
import math
import os
import pathlib
import platform
import random
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.overlay import BasicGeoGrid
from repro.core.query import LocationQuery
from repro.core.node import Node
from repro.core.routing import (
    ShortcutTable,
    route_to_point,
    route_to_point_cached,
    stretch,
)
from repro.dualpeer import DualPeerGeoGrid
from repro.geometry import Point, Rect
from repro.loadbalance import AdaptationEngine, WorkloadIndexCalculator
from repro.obs.registry import MetricsRegistry
from repro.workload import GnutellaCapacityDistribution, HotspotField

#: The service area every benchmark uses (the paper's 64 mi x 64 mi).
BOUNDS = Rect(0, 0, 64, 64)

#: Default node population for the micro-ops benchmark.
MICRO_POPULATION = 600

#: Default populations swept by the routing benchmark.
ROUTING_POPULATIONS = (256, 1024)

#: Default node population for the store benchmark.
STORE_POPULATION = 400

#: Default moving-object population driven through the store benchmark.
STORE_OBJECTS = 256

#: Default movement steps (each object reports once per step).
STORE_STEPS = 12


def bench_meta() -> Dict[str, str]:
    """Provenance stamped into every ``BENCH_*.json`` under ``_meta``."""
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


def build_network(
    population: int, dual: bool = True, seed: int = 1
) -> Tuple[BasicGeoGrid, HotspotField, random.Random]:
    """A populated overlay under the experiment distributions.

    Mirrors the construction of ``benchmarks/test_micro_ops.py`` so the
    JSON trajectory and the pytest-benchmark numbers describe the same
    workload.
    """
    rng = random.Random(seed)
    field = HotspotField.random(BOUNDS, count=10, rng=rng)
    cls = DualPeerGeoGrid if dual else BasicGeoGrid
    grid = cls(BOUNDS, rng=random.Random(seed + 1), load_fn=field.region_load)
    capacities = GnutellaCapacityDistribution()
    for i in range(population):
        grid.join(
            Node(
                i,
                Point(rng.uniform(0.001, 64), rng.uniform(0.001, 64)),
                capacity=capacities.sample(rng),
            )
        )
    return grid, field, rng


def _random_points(rng: random.Random, count: int) -> List[Point]:
    return [
        Point(rng.uniform(0.001, 64), rng.uniform(0.001, 64))
        for _ in range(count)
    ]


def run_micro_ops(
    registry: MetricsRegistry,
    population: int = MICRO_POPULATION,
    points: int = 256,
    routes: int = 128,
    queries: int = 64,
    repeats: int = 3,
) -> None:
    """Record the micro-operation timings into ``registry``.

    Covers the building blocks every macro experiment is made of: overlay
    construction (joins), point location, region-load evaluation, routing,
    query fan-out, and one full adaptation round.  Batch timings land in
    ``micro.*`` histograms (milliseconds); the per-operation counters and
    hop histograms from the instrumented core land alongside them because
    the whole run executes under ``registry``.
    """
    with obs.capture(registry):
        for _ in range(repeats):
            start = time.perf_counter()
            grid, field, rng = build_network(population)
            registry.observe(
                "micro.build_ms", (time.perf_counter() - start) * 1e3
            )

        targets = _random_points(rng, points)
        for _ in range(repeats):
            start = time.perf_counter()
            for point in targets:
                grid.space.locate(point)
            registry.observe(
                "micro.locate_batch_ms", (time.perf_counter() - start) * 1e3
            )

        regions = list(grid.space.regions)
        for _ in range(repeats):
            start = time.perf_counter()
            total = 0.0
            for region in regions:
                total += field.region_load(region)
            registry.observe(
                "micro.region_load_batch_ms",
                (time.perf_counter() - start) * 1e3,
            )

        pairs = [(grid.random_node(), point) for point in _random_points(rng, routes)]
        for _ in range(repeats):
            start = time.perf_counter()
            for source, target in pairs:
                grid.route_from(source, target)
            registry.observe(
                "micro.route_batch_ms", (time.perf_counter() - start) * 1e3
            )

        requests = [
            LocationQuery.around(
                Point(rng.uniform(4, 60), rng.uniform(4, 60)),
                rng.uniform(1.0, 4.0),
                focal=grid.random_node(),
            )
            for _ in range(queries)
        ]
        for _ in range(repeats):
            start = time.perf_counter()
            for query in requests:
                grid.submit_query(query)
            registry.observe(
                "micro.query_batch_ms", (time.perf_counter() - start) * 1e3
            )

        start = time.perf_counter()
        calc = WorkloadIndexCalculator(grid, field.region_load)
        engine = AdaptationEngine(grid, calc)
        engine.run_round()
        registry.observe(
            "micro.adaptation_round_ms", (time.perf_counter() - start) * 1e3
        )


def run_routing(
    registry: MetricsRegistry,
    populations: Sequence[int] = ROUTING_POPULATIONS,
    samples: int = 200,
    warmup_routes: int = 400,
    shortcut_capacity: int = 32,
) -> None:
    """Record greedy vs shortcut-cached routing into ``registry``.

    One histogram pair per population (``routing.hops.n<N>`` and
    ``routing.stretch.n<N>``) is the machine-readable form of the
    paper's O(2*sqrt(N)) routing claim.  Each population then reruns the
    *same* source/target pairs through :func:`route_to_point_cached`
    against a :class:`~repro.core.routing.ShortcutTable` warmed by
    ``warmup_routes`` unrelated routes, recording
    ``routing.cached.hops.n<N>`` plus the cache's hit/miss/repair
    counters and hit rate -- the cached-vs-greedy comparison behind the
    adaptive shortcut cache.
    """
    with obs.capture(registry):
        for population in populations:
            grid, _, rng = build_network(population, dual=False, seed=7)
            hops_name = f"routing.hops.n{population}"
            stretch_name = f"routing.stretch.n{population}"
            pairs = []
            for _ in range(samples):
                source = grid.space.locate(
                    Point(rng.uniform(0.001, 64), rng.uniform(0.001, 64))
                )
                target = Point(rng.uniform(0.001, 64), rng.uniform(0.001, 64))
                pairs.append((source, target))
            for source, target in pairs:
                result = route_to_point(grid.space, source, target)
                registry.observe(hops_name, result.hops)
                quality = stretch(result)
                if quality is not None:
                    registry.observe(stretch_name, quality)

            # Cached pass over the *identical* pairs: warm the table with
            # unrelated traffic first (the steady-state a long-running
            # deployment converges to), then measure.
            table = ShortcutTable(capacity=shortcut_capacity)
            for _ in range(warmup_routes):
                source = grid.space.locate(
                    Point(rng.uniform(0.001, 64), rng.uniform(0.001, 64))
                )
                target = Point(rng.uniform(0.001, 64), rng.uniform(0.001, 64))
                route_to_point_cached(grid.space, source, target, table)
            table.reset_counters()
            cached_name = f"routing.cached.hops.n{population}"
            for source, target in pairs:
                result = route_to_point_cached(
                    grid.space, source, target, table
                )
                registry.observe(cached_name, result.hops)
            registry.inc(f"routing.shortcut.hits.n{population}", table.hits)
            registry.inc(
                f"routing.shortcut.misses.n{population}", table.misses
            )
            registry.inc(
                f"routing.shortcut.repairs.n{population}", table.repairs
            )
            registry.observe(
                f"routing.shortcut.hit_rate.n{population}", table.hit_rate
            )


def run_store_bench(
    registry: MetricsRegistry,
    population: int = STORE_POPULATION,
    objects: int = STORE_OBJECTS,
    steps: int = STORE_STEPS,
    lookups_per_step: int = 8,
    adaptation_rounds: int = 3,
    seed: int = 5,
) -> None:
    """Record the location-store benchmark into ``registry``.

    Drives a :class:`~repro.workload.moving.MovingObjectWorkload` through
    an :class:`~repro.store.overlay_store.OverlayStore` on a dual-peer
    overlay: every object reports its position each step (updates routed
    greedily to the covering region), interleaved with range lookups that
    follow the population.  Afterwards the adaptation engine runs with
    the store attached, so the records each executed mechanism moved land
    in the ``store.migrated_per_adaptation`` histogram plus per-mechanism
    and per-event counters.

    Headline metrics: ``store.updates_per_s`` (routed update throughput),
    ``store.update_hops`` / ``store.lookup_hops`` (routing cost per
    operation), and ``store.migrated_per_adaptation`` (state shipped per
    load-balance adaptation).
    """
    from repro.store import OverlayStore
    from repro.workload import MovingObjectWorkload

    with obs.capture(registry):
        grid, field, rng = build_network(population, dual=True, seed=seed)
        store = OverlayStore(grid)
        workload = MovingObjectWorkload(
            BOUNDS, population=objects, rng=random.Random(seed + 1)
        )
        origins = [grid.random_node() for _ in range(64)]

        def drive(reports) -> int:
            count = 0
            for report in reports:
                before = store.stats.update_hops
                store.update(
                    rng.choice(origins),
                    report.object_id,
                    report.point,
                    version=report.version,
                )
                registry.observe(
                    "store.update_hops", store.stats.update_hops - before
                )
                count += 1
            return count

        updates = 0
        update_s = 0.0
        start = time.perf_counter()
        updates += drive(workload.initial_reports())
        update_s += time.perf_counter() - start
        for _ in range(steps):
            start = time.perf_counter()
            updates += drive(workload.step())
            update_s += time.perf_counter() - start
            for _ in range(lookups_per_step):
                before = store.stats.lookup_hops
                found = store.lookup(
                    rng.choice(origins), workload.lookup_rect()
                )
                registry.observe(
                    "store.lookup_hops", store.stats.lookup_hops - before
                )
                registry.observe("store.lookup_results", len(found))
        registry.observe(
            "store.updates_per_s",
            updates / update_s if update_s > 0 else 0.0,
        )
        registry.observe("store.objects", store.object_count())

        calc = WorkloadIndexCalculator(grid, field.region_load)
        migrated_before = store.stats.migrated

        def per_adaptation(total: int, record) -> None:
            nonlocal migrated_before
            registry.observe(
                "store.migrated_per_adaptation",
                store.stats.migrated - migrated_before,
            )
            migrated_before = store.stats.migrated

        engine = AdaptationEngine(grid, calc, on_adaptation=per_adaptation)
        engine.ctx.store = store
        engine.run_rounds(adaptation_rounds)
        for mechanism, moved in sorted(engine.ctx.store_motion.items()):
            registry.observe(f"store.migrated.mech_{mechanism}", moved)
        for event, moved in sorted(store.stats.migrated_by_event.items()):
            registry.observe(f"store.migrated.event_{event}", moved)
        # The bench doubles as an invariant sweep: after all the churn,
        # every record must still be homed at the region covering it.
        store.check_placement()


def measure_overhead(
    population: int = 300,
    points: int = 512,
    repeats: int = 7,
) -> Dict[str, float]:
    """Time the instrumented micro-ops benchmark with collection off and on.

    The workload is the full micro-ops mix -- overlay construction, point
    location, region-load evaluation, routing, query fan-out, and one
    adaptation round -- every layer of which is instrumented.  The two
    modes are timed in alternation (``repeats`` runs each, GC paused
    during the timed section) and the minimum of each kept, so transient
    machine load hits both sides equally instead of biasing the ratio.
    Returns ``{"noop_s", "instrumented_s", "ratio"}``.
    """
    probe_rng = random.Random(11)
    targets = _random_points(probe_rng, points)
    pair_targets = _random_points(probe_rng, points // 2)
    query_specs = [
        (
            Point(probe_rng.uniform(4, 60), probe_rng.uniform(4, 60)),
            probe_rng.uniform(1.0, 4.0),
        )
        for _ in range(points // 4)
    ]

    def workload() -> None:
        grid, field, _ = build_network(population, seed=11)
        for point in targets:
            grid.space.locate(point)
        for region in grid.space.regions:
            field.region_load(region)
        for target in pair_targets:
            grid.route_from(grid.random_node(), target)
        for center, radius in query_specs:
            grid.submit_query(
                LocationQuery.around(center, radius, focal=grid.random_node())
            )
        calc = WorkloadIndexCalculator(grid, field.region_load)
        AdaptationEngine(grid, calc).run_round()

    def timed_once() -> float:
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            workload()
            return time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()

    previous = obs.active()
    previous_recorder = obs.flightrec()
    obs.disable()
    obs.disable_flightrec()
    try:
        workload()  # warm allocators and code paths outside the timing
        noop_s = math.inf
        instrumented_s = math.inf
        for _ in range(repeats):
            obs.disable()
            noop_s = min(noop_s, timed_once())
            # The instrumented side carries the full stack: metrics
            # registry *and* flight recorder (the journal sites in the
            # core fire too), so the measured ratio bounds the cost of
            # turning everything on.
            obs.enable()
            obs.enable_flightrec()
            try:
                instrumented_s = min(instrumented_s, timed_once())
            finally:
                obs.disable()
                obs.disable_flightrec()
    finally:
        if previous is not None:
            obs.enable(previous)
        else:
            obs.disable()
        if previous_recorder is not None:
            obs.enable_flightrec(previous_recorder)
        else:
            obs.disable_flightrec()
    return {
        "noop_s": noop_s,
        "instrumented_s": instrumented_s,
        "ratio": instrumented_s / noop_s if noop_s > 0 else 1.0,
    }


def write_bench_files(
    out_dir: pathlib.Path,
    population: int = MICRO_POPULATION,
    routing_populations: Sequence[int] = ROUTING_POPULATIONS,
    samples: int = 200,
    overhead: Optional[Dict[str, float]] = None,
) -> List[pathlib.Path]:
    """Run both benchmarks and write the ``BENCH_*.json`` snapshots.

    Returns the written paths (``BENCH_micro_ops.json`` first).  Pass a
    precomputed ``overhead`` dict to skip re-measuring it (tests do, to
    stay fast).
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = bench_meta()

    micro = MetricsRegistry()
    run_micro_ops(micro, population=population)
    if overhead is None:
        overhead = measure_overhead()
    micro.observe("bench.overhead_ratio", overhead["ratio"])
    micro.observe("bench.overhead_noop_ms", overhead["noop_s"] * 1e3)
    micro.observe(
        "bench.overhead_instrumented_ms", overhead["instrumented_s"] * 1e3
    )
    micro_path = out_dir / "BENCH_micro_ops.json"
    micro_path.write_text(_stamped_json(micro, meta) + "\n")

    routing = MetricsRegistry()
    run_routing(routing, populations=routing_populations, samples=samples)
    routing_path = out_dir / "BENCH_routing.json"
    routing_path.write_text(_stamped_json(routing, meta) + "\n")

    return [micro_path, routing_path]


def write_routing_bench_file(
    out_dir: pathlib.Path,
    populations: Sequence[int] = ROUTING_POPULATIONS,
    samples: int = 200,
    warmup_routes: int = 400,
    shortcut_capacity: int = 32,
) -> List[pathlib.Path]:
    """Run the routing comparison and write ``BENCH_routing.json``.

    Returns the written path in a one-element list (same shape as
    :func:`write_bench_files`, so callers can concatenate and feed
    :func:`render_report`).
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    run_routing(
        registry,
        populations=populations,
        samples=samples,
        warmup_routes=warmup_routes,
        shortcut_capacity=shortcut_capacity,
    )
    path = out_dir / "BENCH_routing.json"
    path.write_text(_stamped_json(registry, bench_meta()) + "\n")
    return [path]


def write_store_bench_file(
    out_dir: pathlib.Path,
    population: int = STORE_POPULATION,
    objects: int = STORE_OBJECTS,
    steps: int = STORE_STEPS,
    adaptation_rounds: int = 3,
) -> List[pathlib.Path]:
    """Run the store benchmark and write ``BENCH_store.json``.

    Returns the written path in a one-element list (same shape as
    :func:`write_bench_files`, so callers can concatenate and feed
    :func:`render_report`).
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    run_store_bench(
        registry,
        population=population,
        objects=objects,
        steps=steps,
        adaptation_rounds=adaptation_rounds,
    )
    path = out_dir / "BENCH_store.json"
    path.write_text(_stamped_json(registry, bench_meta()) + "\n")
    return [path]


def run_telemetry_bench(
    registry: MetricsRegistry,
    seed: int = 7,
    population: int = 8,
    objects: int = 8,
    skip_overhead: bool = False,
    scenarios: Optional[Sequence[str]] = None,
) -> None:
    """Record the telemetry-plane benchmark into ``registry``.

    Three claims of the in-band telemetry PR, each made machine-checkable:

    * **Detection**: the chaos campaign's gray-failure scenario must flag
      the injected gray node in-band within the tick budget
      (``telemetry.detection.detected`` = 1, ``.ticks`` <= ``.budget``)
      with zero false positives across every other scenario
      (``telemetry.detection.false_positives`` = 0).
    * **Digest size**: heartbeat piggybacks stay bounded
      (``telemetry.digest.bytes_max`` <= ``.byte_budget``).
    * **Overhead**: the plane costs < 10% wall-clock on the routing and
      store workloads (``telemetry.overhead.*.ratio`` < 1.10).

    Plus the client-edge SLO latency snapshot of a settled demo cluster
    (``telemetry.slo.*``), the numbers the dashboard tiles show.
    """
    from repro.obs.telemetry import (
        cluster_sample,
        demo_cluster,
        drive_traffic,
        measure_digest_overhead,
        measure_telemetry_overhead,
    )
    from repro.sim.chaos import ChaosConfig, run_campaign

    config = ChaosConfig(
        seed=seed, population=population, objects=objects, recovery=160.0
    )
    report = run_campaign(config, scenarios=scenarios)
    false_positives = 0
    for result in report.results:
        registry.set_gauge(
            f"telemetry.campaign.{result.name}_ok", 1.0 if result.ok else 0.0
        )
        false_positives += len(result.false_positives)
        if result.gray_expected is not None:
            detected = result.detect_ticks is not None
            registry.set_gauge(
                "telemetry.detection.detected", 1.0 if detected else 0.0
            )
            if detected:
                registry.set_gauge(
                    "telemetry.detection.ticks", result.detect_ticks
                )
            registry.set_gauge(
                "telemetry.detection.budget", result.detect_budget
            )
    registry.set_gauge("telemetry.detection.false_positives", false_positives)

    digest = measure_digest_overhead(seed=seed, population=population)
    registry.set_gauge("telemetry.digest.bytes_mean", digest["bytes_mean"])
    registry.set_gauge("telemetry.digest.bytes_max", digest["bytes_max"])
    registry.set_gauge("telemetry.digest.byte_budget", digest["byte_budget"])
    registry.set_gauge(
        "telemetry.digest.within_budget",
        1.0 if digest["within_budget"] else 0.0,
    )

    if not skip_overhead:
        overhead = measure_telemetry_overhead(seed=seed)
        for workload, row in sorted(overhead.items()):
            for key, value in sorted(row.items()):
                registry.set_gauge(
                    f"telemetry.overhead.{workload}.{key}", value
                )

    cluster, rng = demo_cluster(seed=seed, population=population)
    drive_traffic(cluster, rng, duration=30.0, operations=12)
    sample = cluster_sample(cluster)
    for name, row in sorted(sample["slo"].items()):
        for key in ("count", "p50", "p95", "p99"):
            registry.set_gauge(f"telemetry.{name}.{key}", row[key])
    registry.set_gauge("telemetry.flagged_nodes", len(sample["flagged"]))


def write_telemetry_bench_file(
    out_dir: pathlib.Path,
    seed: int = 7,
    population: int = 8,
    objects: int = 8,
    skip_overhead: bool = False,
    scenarios: Optional[Sequence[str]] = None,
) -> List[pathlib.Path]:
    """Run the telemetry benchmark and write ``BENCH_telemetry.json``.

    Returns the written path in a one-element list (same shape as
    :func:`write_bench_files`, so callers can concatenate and feed
    :func:`render_report`).
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    run_telemetry_bench(
        registry,
        seed=seed,
        population=population,
        objects=objects,
        skip_overhead=skip_overhead,
        scenarios=scenarios,
    )
    path = out_dir / "BENCH_telemetry.json"
    path.write_text(_stamped_json(registry, bench_meta()) + "\n")
    return [path]


def run_pubsub_bench(
    registry: MetricsRegistry,
    seed: int = 7,
    population: int = 10,
    objects: int = 16,
    recovery: float = 200.0,
    skip_overhead: bool = False,
    scenarios: Optional[Sequence[str]] = None,
) -> None:
    """Record the subscription-plane benchmark into ``registry``.

    Two claims of the continuous-query PR, each made machine-checkable:

    * **Loss-free delivery**: the pubsub chaos campaign -- every plain
      scenario re-run with live registrations and oracle-checked publish
      bursts before, during, and after the faults -- must lose zero
      committed notifications and leave zero persistent audit violations
      (``pubsub.verdict.loss_free`` = 1).
    * **Overhead**: a cluster serving standing queries costs < 1.10x
      wall-clock on the routing and store workloads vs a build with
      ``NodeConfig.sub_enabled`` off (``pubsub.overhead.*.ratio`` <
      ``pubsub.overhead.budget``).

    Plus a settled demo cluster driven by the shared
    :class:`~repro.workload.subscriptions.SubscriptionWorkload` trace,
    snapshotting the client-edge subscription SLOs the dashboard tiles
    show (``pubsub.slo.sub.*``).
    """
    from repro.obs.telemetry import cluster_sample, demo_cluster
    from repro.sim.chaos import ChaosConfig, run_pubsub_campaign
    from repro.sub.bench import SUB_OVERHEAD_BUDGET, measure_sub_overhead
    from repro.workload.subscriptions import SubscriptionWorkload

    config = ChaosConfig(
        seed=seed, population=population, objects=objects, recovery=recovery
    )
    report = run_pubsub_campaign(config, scenarios=scenarios)
    expected = 0
    lost = 0
    violations = 0
    for result in report.results:
        registry.set_gauge(
            f"pubsub.campaign.{result.name}_ok", 1.0 if result.ok else 0.0
        )
        expected += result.expected_notifications
        lost += result.lost_notifications
        violations += len(result.violations)
    registry.set_gauge("pubsub.campaign.ok", 1.0 if report.ok else 0.0)
    registry.set_gauge("pubsub.campaign.violations", violations)
    registry.set_gauge("pubsub.notify.expected", expected)
    registry.set_gauge("pubsub.notify.delivered", expected - lost)
    registry.set_gauge("pubsub.notify.lost", lost)
    registry.set_gauge(
        "pubsub.verdict.loss_free",
        1.0 if report.ok and lost == 0 and expected > 0 else 0.0,
    )

    if not skip_overhead:
        overhead = measure_sub_overhead(seed=seed)
        within = all(
            row["ratio"] < SUB_OVERHEAD_BUDGET for row in overhead.values()
        )
        for workload, row in sorted(overhead.items()):
            for key, value in sorted(row.items()):
                registry.set_gauge(f"pubsub.overhead.{workload}.{key}", value)
        registry.set_gauge("pubsub.overhead.budget", SUB_OVERHEAD_BUDGET)
        registry.set_gauge(
            "pubsub.overhead.within_budget", 1.0 if within else 0.0
        )

    cluster, _ = demo_cluster(seed=seed, population=population)
    workload = SubscriptionWorkload(
        cluster.bounds,
        subscriptions=4,
        rng=random.Random(f"{seed}:bench:pubsub"),
        duration=1_000_000.0,
        hit_ratio=0.7,
    )
    live = sorted(
        (n for n in cluster.nodes.values() if n.alive and n.joined),
        key=lambda n: n.address,
    )
    for op in workload.initial_subscriptions():
        origin = live[op.subscriber % len(live)]
        cluster.subscribe(origin.node.node_id, op.rect, duration=op.duration)
    cluster.settle(10.0)
    for op in workload.publish_step(count=8):
        origin = live[op.publisher % len(live)]
        origin.publish(op.point, op.payload)
        cluster.run_for(5.0)
    registry.set_gauge(
        "pubsub.demo.delivered",
        sum(len(n.notifications) for n in cluster.nodes.values()),
    )
    sample = cluster_sample(cluster)
    for name, row in sorted(sample["slo"].items()):
        if not name.startswith("slo.sub."):
            continue
        for key in ("count", "p50", "p95", "p99"):
            registry.set_gauge(f"pubsub.{name}.{key}", row[key])


def write_pubsub_bench_file(
    out_dir: pathlib.Path,
    seed: int = 7,
    population: int = 10,
    objects: int = 16,
    recovery: float = 200.0,
    skip_overhead: bool = False,
    scenarios: Optional[Sequence[str]] = None,
) -> List[pathlib.Path]:
    """Run the pubsub benchmark and write ``BENCH_pubsub.json``.

    Returns the written path in a one-element list (same shape as
    :func:`write_bench_files`, so callers can concatenate and feed
    :func:`render_report`).
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    run_pubsub_bench(
        registry,
        seed=seed,
        population=population,
        objects=objects,
        recovery=recovery,
        skip_overhead=skip_overhead,
        scenarios=scenarios,
    )
    path = out_dir / "BENCH_pubsub.json"
    path.write_text(_stamped_json(registry, bench_meta()) + "\n")
    return [path]


def run_overload_bench(
    registry: MetricsRegistry,
    seed: int = 7,
    population: int = 10,
    objects: int = 16,
    recovery: float = 200.0,
    skip_overhead: bool = False,
) -> None:
    """Record the overload-plane benchmark into ``registry``.

    Two claims of the overload-control PR, each made machine-checkable:

    * **Graceful degradation**: the flash_crowd chaos scenario -- a 10x
      query storm at the weakest primary with ``overload_enabled`` on --
      must shed data-plane traffic while losing zero committed store
      objects, shedding zero control-class messages, leaving zero
      persistent audit violations, and keeping every per-node ingress
      queue under its bound (``overload.bench.ok`` = 1).
    * **Overhead**: a cluster with admission control enabled but not
      under storm costs < 1.10x wall-clock on the routing and store
      workloads vs ``overload_enabled=False``
      (``overload.overhead.*.ratio`` < ``overload.overhead.budget``).
    """
    from repro.protocol.overload import (
        OVERLOAD_OVERHEAD_BUDGET,
        measure_overload_overhead,
    )
    from repro.sim.chaos import ChaosConfig, run_scenario

    config = ChaosConfig(
        seed=seed, population=population, objects=objects, recovery=recovery
    )
    result = run_scenario("flash_crowd", config)
    registry.set_gauge("overload.bench.ok", 1.0 if result.ok else 0.0)
    registry.set_gauge("overload.bench.violations", len(result.violations))
    registry.set_gauge("overload.bench.lost_objects", result.lost_objects)
    registry.set_gauge("overload.bench.sheds", result.sheds)
    registry.set_gauge("overload.bench.deflections", result.deflections)
    registry.set_gauge("overload.bench.control_sheds", result.control_sheds)
    registry.set_gauge("overload.bench.peak_queue", result.peak_queue_depth)
    registry.set_gauge("overload.bench.queue_bound", result.queue_bound)
    registry.set_gauge("overload.bench.sim_time", result.sim_time)

    if not skip_overhead:
        overhead = measure_overload_overhead(seed=seed)
        within = all(
            row["ratio"] < OVERLOAD_OVERHEAD_BUDGET
            for row in overhead.values()
        )
        for workload, row in sorted(overhead.items()):
            for key, value in sorted(row.items()):
                registry.set_gauge(
                    f"overload.overhead.{workload}.{key}", value
                )
        registry.set_gauge(
            "overload.overhead.budget", OVERLOAD_OVERHEAD_BUDGET
        )
        registry.set_gauge(
            "overload.overhead.within_budget", 1.0 if within else 0.0
        )


def write_overload_bench_file(
    out_dir: pathlib.Path,
    seed: int = 7,
    population: int = 10,
    objects: int = 16,
    recovery: float = 200.0,
    skip_overhead: bool = False,
) -> List[pathlib.Path]:
    """Run the overload benchmark and write ``BENCH_overload.json``.

    Returns the written path in a one-element list (same shape as
    :func:`write_bench_files`).
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    run_overload_bench(
        registry,
        seed=seed,
        population=population,
        objects=objects,
        recovery=recovery,
        skip_overhead=skip_overhead,
    )
    path = out_dir / "BENCH_overload.json"
    path.write_text(_stamped_json(registry, bench_meta()) + "\n")
    return [path]


def _stamped_json(registry: MetricsRegistry, meta: Dict[str, str]) -> str:
    """The registry snapshot as JSON with the ``_meta`` header first."""
    payload: Dict[str, object] = {"_meta": meta}
    payload.update(json.loads(registry.to_json()))
    return json.dumps(payload, indent=2, sort_keys=False)


def render_report(paths: Sequence[pathlib.Path]) -> str:
    """A human-readable digest of freshly written ``BENCH_*.json`` files."""
    lines = ["Benchmark snapshots"]
    for path in paths:
        snapshot = json.loads(path.read_text())
        meta = snapshot.get("_meta", {})
        metrics = {
            name: row
            for name, row in snapshot.items()
            if not name.startswith("_")
        }
        header = f"\n{path.name} ({len(metrics)} metrics"
        if meta:
            header += (
                f"; {meta.get('git_sha', '?')[:12]} "
                f"@ {meta.get('timestamp_utc', '?')} "
                f"py{meta.get('python', '?')}"
            )
        lines.append(header + "):")
        for name, row in metrics.items():
            lines.append(
                f"  {name:<38} count={row['count']:<8g} "
                f"mean={row['mean']:<12.4g} p50={row['p50']:<12.4g} "
                f"p95={row['p95']:<12.4g} p99={row['p99']:.4g}"
            )
    return "\n".join(lines)
