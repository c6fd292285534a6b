"""Tests for repro.protocol.node -- single-node handler behavior."""

import pytest

from repro import obs
from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m
from repro.protocol.node import JOIN_RETRY_INTERVAL, JOIN_RETRY_JITTER

BOUNDS = Rect(0, 0, 64, 64)


def two_node_cluster(dual_peer=True):
    cluster = ProtocolCluster(
        BOUNDS, seed=1, config=NodeConfig(dual_peer=dual_peer)
    )
    first = cluster.join_node(Point(16, 16), capacity=10)
    second = cluster.join_node(Point(48, 48), capacity=5)
    cluster.settle(10)
    return cluster, first, second


class TestJoinGrants:
    def test_first_node_owns_bounds(self):
        cluster = ProtocolCluster(BOUNDS, seed=1)
        first = cluster.join_node(Point(10, 10))
        assert first.is_primary()
        assert first.owned.rect == BOUNDS

    def test_dual_peer_second_join_fills_secondary(self):
        cluster, first, second = two_node_cluster(dual_peer=True)
        assert first.is_primary()
        assert second.is_secondary()
        assert second.owned.rect == BOUNDS
        assert first.owned.peer == second.address

    def test_basic_mode_always_splits(self):
        cluster, first, second = two_node_cluster(dual_peer=False)
        assert first.is_primary() and second.is_primary()
        assert first.owned.rect != second.owned.rect
        cluster.check_partition()

    def test_joiner_gets_covering_half(self):
        cluster, first, second = two_node_cluster(dual_peer=False)
        assert second.owned.rect.covers(
            second.node.coord, closed_low_x=True, closed_low_y=True
        )

    def test_split_updates_neighbor_tables(self):
        cluster = ProtocolCluster(BOUNDS, seed=2, config=NodeConfig(dual_peer=False))
        nodes = [
            cluster.join_node(Point(x, y))
            for x, y in [(10, 10), (50, 50), (50, 10), (10, 50)]
        ]
        cluster.settle(30)
        for node in nodes:
            for rect in node.neighbor_table:
                assert node.owned.rect.is_neighbor_of(rect)

    def test_items_partitioned_on_split(self):
        cluster = ProtocolCluster(BOUNDS, seed=3, config=NodeConfig(dual_peer=False))
        first = cluster.join_node(Point(10, 10))
        cluster.publish(first.node.node_id, Point(5, 5), "west-item")
        cluster.publish(first.node.node_id, Point(60, 60), "east-item")
        second = cluster.join_node(Point(50, 50))
        cluster.settle(10)
        all_items = {
            item
            for node in (first, second)
            for _, item in node.owned.items
        }
        assert all_items == {"west-item", "east-item"}
        for node in (first, second):
            for point, _ in node.owned.items:
                assert node.owned.rect.covers(
                    point, closed_low_x=True, closed_low_y=True
                )


class TestApplicationApi:
    def test_route_to_own_region_is_zero_hops(self):
        cluster = ProtocolCluster(BOUNDS, seed=4)
        first = cluster.join_node(Point(10, 10))
        ack = cluster.lookup(first.node.node_id, Point(20, 20))
        assert ack.hops == 0
        assert ack.executor == first.address

    def test_publish_replicated_to_secondary(self):
        cluster, first, second = two_node_cluster(dual_peer=True)
        cluster.publish(first.node.node_id, Point(30, 30), "item")
        assert ("item" in [i for _, i in first.owned.items]) or (
            "item" in [i for _, i in second.owned.items]
        )
        # The secondary holds the replica.
        assert any(i == "item" for _, i in second.owned.items)

    def test_query_returns_stored_items(self):
        cluster, first, second = two_node_cluster()
        cluster.publish(first.node.node_id, Point(30, 30), "find-me")
        results = cluster.query(second.node.node_id, Rect(28, 28, 4, 4))
        items = [item for r in results for _, item in r.items]
        assert "find-me" in items

    def test_query_excludes_items_outside_rect(self):
        cluster, first, second = two_node_cluster()
        cluster.publish(first.node.node_id, Point(5, 5), "far-away")
        results = cluster.query(second.node.node_id, Rect(30, 30, 4, 4))
        items = [item for r in results for _, item in r.items]
        assert "far-away" not in items

    def test_query_fanout_reaches_corner_contact_region(self):
        """Regression: the fan-out used interior overlap (``intersects``)
        to pick neighbor regions, so a region meeting the query rect only
        at its own northeast corner was skipped -- yet closed-high point
        coverage means that region can own a matching item.  The fix uses
        closed-rect ``touches``."""
        cluster = ProtocolCluster(
            BOUNDS, seed=3, config=NodeConfig(dual_peer=False)
        )
        # This join order yields the four exact quadrants.
        quadrants = [(16, 16), (16, 48), (48, 16), (48, 48)]
        nodes = [cluster.join_node(Point(x, y)) for x, y in quadrants]
        cluster.settle(30)
        southwest = next(
            n for n in nodes if n.owned.rect == Rect(0, 0, 32, 32)
        )
        northeast = next(
            n for n in nodes if n.owned.rect == Rect(32, 32, 32, 32)
        )
        # (32, 32) sits on the SW quadrant's closed high edges; inject it
        # there directly so routing ambiguity on the shared corner cannot
        # decide the test.
        southwest.owned.items.append((Point(32, 32), "corner-item"))
        # The query rect touches the SW quadrant *only* at that corner.
        results = cluster.query(
            northeast.node.node_id, Rect(32, 32, 8, 8)
        )
        items = [item for r in results for _, item in r.items]
        assert "corner-item" in items


class TestHostCacheRecovery:
    def test_join_recovers_from_cached_dead_entry(self):
        """Regression: the host cache remembered dead addresses forever,
        so a joiner whose cache held only a crashed entry node re-picked
        it on every retry and never joined.  Failed attempts now strike
        the entry; eviction falls back to the bootstrap server."""
        cluster = ProtocolCluster(BOUNDS, seed=9)
        first = cluster.join_node(Point(10, 10))
        doomed = cluster.join_node(Point(50, 50))
        cluster.settle(20)
        cluster.crash_node(doomed.node.node_id)
        joiner = cluster.spawn_node(Point(30, 50))
        # The joiner has heard only of the (now dead) second node.
        joiner.host_cache.remember(doomed.address)
        with obs.capture() as registry:
            joiner.start_join()
            deadline = cluster.scheduler.now + 300.0
            while not joiner.joined and cluster.scheduler.now < deadline:
                cluster.run_for(5.0)
        assert joiner.joined
        # The dead entry was struck off (the bootstrap fallback may have
        # re-remembered it afterwards -- a crash does not deregister --
        # but the eviction is what broke the retry loop).
        snap = registry.snapshot()
        assert snap["bootstrap.hostcache.evicted"]["total"] >= 1
        assert first.alive


class TestDeparture:
    def test_secondary_promoted_on_primary_departure(self):
        cluster, first, second = two_node_cluster()
        cluster.depart_node(first.node.node_id)
        cluster.settle(15)
        assert second.is_primary()
        assert second.owned.rect == BOUNDS

    def test_departed_node_leaves_bootstrap(self):
        cluster, first, second = two_node_cluster()
        count = cluster.bootstrap.known_count()
        cluster.depart_node(second.node.node_id)
        assert cluster.bootstrap.known_count() == count - 1

    def test_departing_twice_raises(self):
        cluster, first, second = two_node_cluster()
        cluster.depart_node(second.node.node_id)
        with pytest.raises(Exception):
            cluster.depart_node(second.node.node_id)


class TestJoinRetryJitter:
    def test_delay_spread_by_seeded_rng(self):
        """Orphaned joiners must not retry in lockstep waves: each node's
        seeded rng spreads its retry delay around the base interval."""
        cluster = ProtocolCluster(BOUNDS, seed=4)
        cluster.join_node(Point(10, 10))
        nodes = [cluster.spawn_node(Point(20 + i, 20)) for i in range(6)]
        delays = [node._jittered_join_delay() for node in nodes]
        base = JOIN_RETRY_INTERVAL
        jitter = JOIN_RETRY_JITTER
        assert len(set(delays)) > 1  # desynchronized
        for delay in delays:
            assert base * (1 - jitter) <= delay <= base * (1 + jitter)

    def test_jittered_delay_is_reproducible(self):
        """Same seeds, same schedule: the jitter draws come from the
        node's own seeded stream, not global randomness."""
        def sample():
            cluster = ProtocolCluster(BOUNDS, seed=6)
            cluster.join_node(Point(10, 10))
            node = cluster.spawn_node(Point(30, 30))
            return [node._jittered_join_delay() for _ in range(4)]

        assert sample() == sample()
