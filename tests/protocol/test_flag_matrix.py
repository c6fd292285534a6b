"""Every shipped ``NodeConfig`` flag combination serves and partitions.

``dual_peer``, ``adaptation_enabled`` and ``overload_enabled`` are the
boolean settings a deployment can turn; each of their eight combinations
runs the same small workload (store updates, a store lookup, a
subscription and routed lookups) on 16 nodes.  Every operation must be
answered and the live primaries must still tile the plane.
"""

import itertools
import random

import pytest

from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster

BOUNDS = Rect(0, 0, 64, 64)


@pytest.mark.parametrize(
    "dual_peer, adaptation_enabled, overload_enabled",
    list(itertools.product([True, False], repeat=3)),
)
def test_flag_combination_serves_every_operation(
    dual_peer, adaptation_enabled, overload_enabled
):
    config = NodeConfig(
        dual_peer=dual_peer,
        adaptation_enabled=adaptation_enabled,
        overload_enabled=overload_enabled,
    )
    cluster = ProtocolCluster(BOUNDS, seed=5, config=config)
    rng = random.Random(5)
    nodes = [
        cluster.join_node(
            Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
            capacity=rng.choice([1, 10, 100]),
        )
        for _ in range(16)
    ]
    cluster.settle(30)
    ids = [node.node.node_id for node in nodes]

    sub_id, sub_ack = cluster.subscribe(ids[0], Rect(0, 0, 32, 32))
    assert sub_ack.region is not None
    points = {}
    for i in range(8):
        object_id = f"obj-{i}"
        points[object_id] = Point(rng.uniform(1, 63), rng.uniform(1, 63))
        ack = cluster.store_update(ids[i], object_id, points[object_id])
        assert ack.region is not None and ack.region.covers(
            points[object_id]
        )
    records = cluster.store_lookup(ids[1], BOUNDS)
    assert {r.object_id: r.point for r in records} == points
    for _ in range(8):
        origin = rng.choice(ids)
        target = Point(rng.uniform(1, 63), rng.uniform(1, 63))
        ack = cluster.lookup(origin, target)
        assert ack.region is not None and ack.region.covers(target)

    cluster.settle(30)
    cluster.check_partition(allow_caretaker_holes=True)
