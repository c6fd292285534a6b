"""Pins the model layer's seeded behaviour end to end.

A small ``paper_adapt``-shaped loop -- a 512-node dual-peer build with
adaptation, then epochs of hot-spot migration, adaptation rounds, routed
queries and store updates -- must reproduce the figures recorded before
the model-layer hot loops (greedy walk, region-load memo, TTL search)
were optimised.  A performance change to those loops is only admissible
when it leaves every decision, and so every count below, unchanged.
"""

import pytest

from repro.experiments.build import build_network
from repro.experiments.config import ExperimentConfig, SystemVariant
from repro.geometry import Point
from repro.sim.rng import RngStreams
from repro.store.overlay_store import OverlayStore

SEED = 20070625
NODES = 512
EPOCHS = 3
QUERIES = 200
UPDATES = 64
OBJECTS = 32

#: Recorded with the unoptimised loops; integers must match exactly,
#: floats to within summation-order noise of the numeric stack.
EXPECTED = {
    "adaptations": 161,
    "rounds": 9,
    "search_messages": 74250,
    "hop_sum": 3890,
    "mechanism_usage": {"a": 1, "b": 66, "c": 3, "d": 16, "f": 6, "g": 4, "h": 65},
    "adaptation_messages": 2080,
}
EXPECTED_SUMMARY = {
    "count": 512,
    "minimum": -2.2737367544323206e-15,
    "maximum": 0.2920118852504629,
    "mean": 0.010479429560871726,
    "std": 0.03701929786902003,
    "median": 0.0,
    "total": 5.365467935166324,
}


def run_loop():
    network = build_network(
        SystemVariant.DUAL_PEER_ADAPTATION,
        NODES,
        ExperimentConfig(trials=1),
        RngStreams(SEED),
    )
    store = OverlayStore(network.overlay)
    streams = RngStreams(SEED).fork(1)
    motion = streams.stream("motion")
    traffic = streams.stream("traffic")
    hop_sum = 0
    version = 0
    for _ in range(EPOCHS):
        network.field.migrate(motion, steps=1)
        network.engine.run_until_stable(max_rounds=3)
        for _ in range(QUERIES):
            origin = traffic.choice(network.nodes)
            target = network.field.sample_point(traffic)
            hop_sum += network.overlay.route_from(origin, target).hops
        for _ in range(UPDATES):
            version += 1
            store.update(
                traffic.choice(network.nodes),
                f"obj{traffic.randrange(OBJECTS)}",
                Point(traffic.uniform(0.0, 64.0), traffic.uniform(0.0, 64.0)),
                version=version,
            )
    network.overlay.check_invariants()
    store.check_placement()
    counts = {
        "adaptations": network.engine.total_adaptations,
        "rounds": len(network.engine.round_reports),
        "search_messages": network.engine.search_messages,
        "hop_sum": hop_sum,
        "mechanism_usage": network.engine.mechanism_usage(),
        "adaptation_messages": network.engine.adaptation_messages,
    }
    return counts, network.calc.summary()


def test_paper_adapt_shaped_loop_is_pinned():
    counts, summary = run_loop()
    assert counts == EXPECTED
    for name, value in EXPECTED_SUMMARY.items():
        assert getattr(summary, name) == pytest.approx(value, rel=1e-12, abs=1e-12), name
