"""Tests for perimeter self-repair.

Heartbeat gossip can only mend a missing adjacency when some third node
knows both sides.  When two adjacent primaries are *mutually* blind --
neither has the other in its table, and nobody adjacent to both exists
-- the only remaining signal is the geometry itself: a primary knows its
world bounds, so an uncovered stretch of its own perimeter is proof that
a neighbor is missing.  The perimeter probe walks greedily toward the
gap and the serving primary answers with a direct heartbeat, healing
both tables.
"""

import random

from repro.geometry import Point, Rect
from repro.protocol import ProtocolCluster
from repro.protocol import messages as m
from repro.protocol.node import HEARTBEAT_INTERVAL

BOUNDS = Rect(0, 0, 64, 64)


def build_cluster(count=8, seed=13):
    cluster = ProtocolCluster(BOUNDS, seed=seed)
    rng = random.Random(seed)
    for _ in range(count):
        cluster.join_node(
            Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
            capacity=10,
        )
    cluster.settle(60)
    return cluster


def adjacent_primaries(cluster):
    primaries = [
        n for n in cluster.nodes.values() if n.alive and n.is_primary()
    ]
    for i, a in enumerate(primaries):
        for b in primaries[i + 1:]:
            if a.owned.rect.is_neighbor_of(b.owned.rect):
                return a, b
    raise AssertionError("no adjacent primary pair in cluster")


def blind(node, rect, address):
    """Erase every route from ``node`` to the primary owning ``rect``."""
    node._table_drop(rect)
    node.shortcuts.invalidate_address(address)
    node.host_cache.forget(address)
    node._perimeter_gap = None
    node._perimeter_gap_ticks = 0


class TestHeal:
    def test_mutually_blind_neighbors_relearn_each_other(self):
        cluster = build_cluster()
        a, b = adjacent_primaries(cluster)
        blind(a, b.owned.rect, b.address)
        blind(b, a.owned.rect, a.address)
        assert b.owned.rect not in a.neighbor_table
        assert a.owned.rect not in b.neighbor_table
        # Two heartbeat ticks of damping plus the probe round trip.
        cluster.settle(6 * HEARTBEAT_INTERVAL)
        assert b.owned.rect in a.neighbor_table
        assert a.owned.rect in b.neighbor_table
        assert cluster.network.stats.by_kind.get(m.PERIMETER_PROBE, 0) > 0

    def test_probe_forwards_when_gap_neighbor_is_remote(self):
        """The blinded pair need not be directly connected for the heal:
        the probe is routed greedily through whoever the prober still
        knows, so distance from the gap only costs hops."""
        cluster = build_cluster(count=12, seed=29)
        a, b = adjacent_primaries(cluster)
        blind(a, b.owned.rect, b.address)
        blind(b, a.owned.rect, a.address)
        cluster.settle(8 * HEARTBEAT_INTERVAL)
        cluster.check_partition()
        assert b.owned.rect in a.neighbor_table


class TestQuiescence:
    def test_settled_cluster_sends_no_probes(self):
        """A complete perimeter is never probed: steady state is silent."""
        cluster = build_cluster()
        before = cluster.network.stats.by_kind.get(m.PERIMETER_PROBE, 0)
        cluster.settle(10 * 5.0)
        after = cluster.network.stats.by_kind.get(m.PERIMETER_PROBE, 0)
        assert after == before

    def test_single_node_world_never_probes(self):
        """A primary owning the whole world has no perimeter to cover."""
        cluster = ProtocolCluster(BOUNDS, seed=2)
        cluster.join_node(Point(32, 32), capacity=10)
        cluster.settle(60)
        assert cluster.network.stats.by_kind.get(m.PERIMETER_PROBE, 0) == 0
