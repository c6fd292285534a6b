"""The model-layer workload ``paper_adapt``: the paper's own experiment.

A dual-peer GeoGrid of 4 096 nodes with Gnutella-skewed capacities over
the paper's 64 x 64 mile area, ten hot spots, the load-balance
adaptation engine and an :class:`~repro.store.OverlayStore`, all built
through :func:`repro.experiments.build.build_network`.  Each epoch:

1. every hot spot migrates one step (the paper's end-of-epoch move);
2. ``AdaptationEngine.run_until_stable`` rebalances;
3. ``queries`` ``route_from`` calls from random nodes to points drawn
   from the hot-spot field;
4. a store round: ``updates`` object updates and ``lookups`` range
   lookups.

No ``sim`` or ``protocol`` code runs here.  There is no simulated
clock, so the end-to-end figures are hops, workload indices and host
time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.core.query import reset_query_ids
from repro.errors import GeoGridError
from repro.core.region import reset_region_ids
from repro.experiments.build import build_network
from repro.experiments.config import ExperimentConfig, SystemVariant
from repro.sim.rng import RngStreams
from repro.store.overlay_store import OverlayStore

from common import (
    CheckFailed,
    RunResult,
    SteadyClock,
    check_in_rect,
    covers,
    median,
    percentile,
    range_rect,
    tail_percentile,
    uniform_point,
)

#: Seed of the deployment (the experiments' default seed), fixed so
#: that ``--seed`` varies the load on one deployment; see
#: ``protocol_loads.DEPLOYMENT_SEED``.
DEPLOYMENT_SEED = 20070625


@dataclass(frozen=True)
class AdaptLoad:
    """The shape of the paper-scale workload."""

    name: str
    nodes: int
    objects: int
    queries: int
    updates: int
    lookups: int
    max_rounds: int
    #: Epochs per host second asked for.
    epochs_per_host_s: float


PAPER_ADAPT = AdaptLoad(
    name="paper_adapt",
    nodes=4096,
    objects=2048,
    queries=2000,
    updates=1024,
    lookups=128,
    max_rounds=3,
    epochs_per_host_s=1.6,
)

#: A tiny instance for the benchmark's own tests.
SMOKE = AdaptLoad(
    name="paper_adapt",
    nodes=128,
    objects=64,
    queries=100,
    updates=32,
    lookups=8,
    max_rounds=3,
    epochs_per_host_s=1.0,
)


def build(load: AdaptLoad, seed: int):
    """Build the overlay and store the preload; returns (network, store).

    The deployment -- node positions and capacities, join entry points
    and the hot spots' starting places -- comes from the fixed
    ``DEPLOYMENT_SEED``; ``seed`` draws the preloaded objects.
    """
    reset_query_ids()
    reset_region_ids()
    network = build_network(
        SystemVariant.DUAL_PEER_ADAPTATION,
        load.nodes,
        ExperimentConfig(trials=1),
        RngStreams(DEPLOYMENT_SEED),
    )
    store = OverlayStore(network.overlay)
    rng = RngStreams(seed).stream("preload")
    for index in range(load.objects):
        store.update(
            rng.choice(network.nodes),
            f"obj{index}",
            uniform_point(rng),
            version=1,
        )
    return network, store


def check_outputs(network, store: OverlayStore, objects: int) -> None:
    """Raise :class:`CheckFailed` unless the overlay and store are sound."""
    try:
        network.overlay.check_invariants()
        store.check_placement()
    except (AssertionError, GeoGridError) as exc:
        raise CheckFailed(f"overlay check: {exc}") from exc
    if store.object_count() != objects:
        raise CheckFailed(f"store holds {store.object_count()} records for {objects} objects")


def run(load: AdaptLoad, seed: int, seconds: float, setups: int = 3, tracer=None) -> RunResult:
    """Set up ``setups`` times (timing each), then run the epochs."""
    clock = SteadyClock()
    setup_times = []
    for _ in range(setups):
        clock.skip()
        network, store = build(load, seed)
        setup_times.append(clock.lap())
    epochs = max(2, round(seconds * load.epochs_per_host_s))
    streams = RngStreams(seed).fork(1)
    motion = streams.stream("motion")
    traffic = streams.stream("traffic")
    nodes = network.nodes
    versions = {f"obj{i}": 1 for i in range(load.objects)}
    hops: List[int] = []
    index_max: List[float] = []
    index_std: List[float] = []
    epoch_host_s: List[float] = []
    gen_s = 0.0
    ops = 0
    if tracer is not None:
        tracer.begin_timed(engine=network.engine)
    for _ in range(epochs):
        clock.skip()
        network.field.migrate(motion, steps=1)
        network.engine.run_until_stable(max_rounds=load.max_rounds)
        epoch_s = clock.lap()
        summary = network.calc.summary()
        index_max.append(summary.maximum)
        index_std.append(summary.std)
        gen_started = time.perf_counter()
        queries = [
            (traffic.choice(nodes), network.field.sample_point(traffic))
            for _ in range(load.queries)
        ]
        updates = [
            (traffic.choice(nodes), f"obj{traffic.randrange(load.objects)}", uniform_point(traffic))
            for _ in range(load.updates)
        ]
        lookups = [
            (traffic.choice(nodes), range_rect(traffic))
            for _ in range(load.lookups)
        ]
        gen_s += time.perf_counter() - gen_started
        clock.skip()
        for origin, target in queries:
            route = network.overlay.route_from(origin, target)
            if not covers(route.executor.rect, target):
                raise CheckFailed(
                    f"route to {target} ended at {route.executor}, which does not cover it"
                )
            hops.append(route.hops)
        for origin, object_id, point in updates:
            versions[object_id] += 1
            store.update(origin, object_id, point, version=versions[object_id])
        for origin, rect in lookups:
            check_in_rect(rect, store.lookup(origin, rect))
        ops += len(queries) + len(updates) + len(lookups)
        epoch_host_s.append(epoch_s + clock.lap())
    if tracer is not None:
        tracer.end_timed()
    check_outputs(network, store, load.objects)

    result = RunResult(attempted=ops, failed=0, chunk_host_s=epoch_host_s)
    host_s = sum(epoch_host_s)
    result.metrics["setup_s"] = (median(setup_times), "s")
    result.metrics["ops_per_s"] = (ops / host_s, "1/s")
    result.metrics["ok_frac"] = (1.0, "1")
    tail = tail_percentile(len(hops))
    result.report["route_hops_p50"] = (percentile(hops, 50), "hops")
    result.report[f"route_hops_p{tail}"] = (percentile(hops, tail), "hops")
    result.metrics["route_hops_mean"] = (sum(hops) / len(hops), "hops")
    result.report["load_index_max"] = (sum(index_max) / len(index_max), "1")
    result.report["load_index_std"] = (sum(index_std) / len(index_std), "1")
    result.report["failed_frac"] = (0.0, "1")
    result.samples["route_hops"] = len(hops)
    result.deterministic = {
        "epochs": epochs,
        "adaptations": network.engine.total_adaptations,
        "rounds": len(network.engine.round_reports),
        "store_updates": store.stats.updates,
        "route_hops_mean": result.metrics["route_hops_mean"][0],
        **{k: v for k, (v, _u) in result.report.items()},
    }
    result.layers["workload.gen_s"] = (gen_s, "s")
    return result
