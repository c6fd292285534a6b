"""Cross-validation: the message-level protocol against the overlay model.

The overlay model (`repro.core`) is the authoritative description of
GeoGrid's structure; the protocol layer re-implements the same rules as
asynchronous message handlers.  Driving both with identical join
sequences (same coordinates, same entry nodes, basic single-owner mode)
must produce *identical partitions* -- a strong check that the two layers
implement the same system rather than two similar ones.  At the default
latency a join's grant and split announcements overlap the next join's
routing, so only the ownership-claim rule keeps stale split parents from
being caretaken and re-granted there.
"""

import random

import pytest

from repro.core.overlay import BasicGeoGrid
from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.sim.latency import ConstantLatency
from tests.conftest import make_node

BOUNDS = Rect(0, 0, 64, 64)


def run_both(coords, entries, latency=ConstantLatency(0.01)):
    """Join the same sequence into both layers; return both partitions.

    ``latency=None`` runs the protocol at the cluster's default latency.
    """
    overlay = BasicGeoGrid(BOUNDS, rng=random.Random(0))
    overlay_nodes = []
    for index, coord in enumerate(coords):
        node = make_node(index, coord.x, coord.y)
        entry = overlay_nodes[entries[index]] if index > 0 else None
        overlay.join(node, entry=entry)
        overlay_nodes.append(node)

    cluster = ProtocolCluster(
        BOUNDS,
        seed=0,
        latency=latency,
        config=NodeConfig(dual_peer=False),
    )
    protocol_nodes = []
    for index, coord in enumerate(coords):
        pnode = cluster.spawn_node(coord, capacity=1.0, node_id=index)
        if index == 0:
            pnode.start_as_first(BOUNDS)
        else:
            entry_address = protocol_nodes[entries[index]].address
            pnode.start_join(entry=entry_address)
            deadline = cluster.scheduler.now + 60.0
            while not pnode.joined and cluster.scheduler.now < deadline:
                cluster.scheduler.run_until(cluster.scheduler.now + 0.5)
            assert pnode.joined
        protocol_nodes.append(pnode)
    cluster.settle(20)

    overlay_rects = sorted(
        region.rect.as_tuple() for region in overlay.space.regions
    )
    protocol_rects = sorted(
        rect.as_tuple() for rect in cluster.primary_rects()
    )
    return overlay, cluster, overlay_rects, protocol_rects


@pytest.mark.parametrize(
    "latency, count, seed",
    [
        pytest.param(ConstantLatency(0.01), 25, seed, id=str(seed))
        for seed in range(1, 6)
    ]
    + [
        pytest.param(None, 64, seed, id=f"default-latency-64-{seed}")
        for seed in range(1, 11)
    ],
)
def test_identical_partitions(latency, count, seed):
    rng = random.Random(seed)
    coords = [
        Point(rng.uniform(0.01, 63.99), rng.uniform(0.01, 63.99))
        for _ in range(count)
    ]
    entries = [0] + [rng.randrange(index) for index in range(1, count)]
    overlay, cluster, overlay_rects, protocol_rects = run_both(
        coords, entries, latency
    )
    assert overlay_rects == protocol_rects
    overlay.check_invariants()
    cluster.check_partition()


def test_same_owner_for_same_rect():
    """Not only the rects: the same node owns each rect in both layers."""
    rng = random.Random(9)
    coords = [
        Point(rng.uniform(0.01, 63.99), rng.uniform(0.01, 63.99))
        for _ in range(20)
    ]
    entries = [0] + [rng.randrange(index) for index in range(1, 20)]
    overlay, cluster, overlay_rects, protocol_rects = run_both(coords, entries)
    overlay_owner_by_rect = {
        region.rect.as_tuple(): region.primary.node_id
        for region in overlay.space.regions
    }
    for pnode in cluster.nodes.values():
        if pnode.alive and pnode.is_primary():
            rect_key = pnode.owned.rect.as_tuple()
            assert overlay_owner_by_rect[rect_key] == pnode.node.node_id
