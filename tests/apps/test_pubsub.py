"""Tests for repro.apps.pubsub -- the publish/subscribe service."""

import random

import pytest

from repro.apps import GeoPubSub
from repro.core.overlay import BasicGeoGrid
from repro.core.query import LocationQuery
from repro.dualpeer import DualPeerGeoGrid
from repro.geometry import Point, Rect
from tests.conftest import make_node

BOUNDS = Rect(0, 0, 64, 64)


def build_service(n=40, seed=2, dual=False):
    cls = DualPeerGeoGrid if dual else BasicGeoGrid
    grid = cls(BOUNDS, rng=random.Random(seed))
    rng = random.Random(seed + 1)
    nodes = []
    for i in range(n):
        node = make_node(i, rng.uniform(0.001, 64), rng.uniform(0.001, 64))
        grid.join(node)
        nodes.append(node)
    return GeoPubSub(grid), grid, nodes


class TestSubscribe:
    def test_subscription_lands_on_overlapping_regions(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(20, 20, 10, 10), focal=nodes[0])
        service.subscribe(query, duration=30.0)
        hosts = [
            region for region in grid.space.regions
            if query.query_rect.intersects(region.rect)
        ]
        for region in hosts:
            assert any(
                s.query is query for s in service.subscriptions_at(region)
            )
        service.check_consistency()

    def test_active_count(self):
        service, grid, nodes = build_service()
        for i in range(3):
            service.subscribe(
                LocationQuery(
                    query_rect=Rect(10 + i, 10, 4, 4), focal=nodes[i]
                ),
                duration=10.0,
                now=0.0,
            )
        assert service.active_subscription_count(now=5.0) == 3
        assert service.active_subscription_count(now=15.0) == 0


class TestPublish:
    def test_matching_event_notifies_subscriber(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(30, 30, 6, 6), focal=nodes[1])
        service.subscribe(query, duration=60.0)
        notifications = service.publish(
            nodes[2], Point(32, 32), "traffic jam", now=1.0
        )
        assert len(notifications) == 1
        assert notifications[0].subscriber == nodes[1]
        assert notifications[0].payload == "traffic jam"

    def test_event_outside_query_rect_not_matched(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(30, 30, 2, 2), focal=nodes[1])
        service.subscribe(query, duration=60.0)
        assert service.publish(nodes[2], Point(50, 50), "far away") == []

    def test_expired_subscription_not_notified(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(30, 30, 6, 6), focal=nodes[1])
        service.subscribe(query, duration=5.0, now=0.0)
        assert service.publish(nodes[2], Point(32, 32), "late", now=10.0) == []

    def test_condition_filters_payload(self):
        service, grid, nodes = build_service()
        query = LocationQuery(
            query_rect=Rect(30, 30, 6, 6),
            focal=nodes[1],
            condition=lambda payload: "parking" in payload,
        )
        service.subscribe(query, duration=60.0)
        assert service.publish(nodes[2], Point(32, 32), "traffic") == []
        assert len(service.publish(nodes[2], Point(32, 32), "parking open")) == 1

    def test_multiple_subscribers_all_notified(self):
        service, grid, nodes = build_service()
        for i in range(4):
            service.subscribe(
                LocationQuery(query_rect=Rect(28, 28, 8, 8), focal=nodes[i]),
                duration=60.0,
            )
        notifications = service.publish(nodes[9], Point(32, 32), "event")
        assert len(notifications) == 4
        assert {n.subscriber for n in notifications} == set(nodes[:4])

    def test_stats_counted(self):
        service, grid, nodes = build_service()
        query = LocationQuery(query_rect=Rect(30, 30, 6, 6), focal=nodes[1])
        service.subscribe(query, duration=60.0)
        service.publish(nodes[2], Point(32, 32), "x")
        assert service.stats.subscriptions == 1
        assert service.stats.publications == 1
        assert service.stats.notifications == 1


class TestRestructuring:
    def test_split_rehomes_subscriptions(self):
        service, grid, nodes = build_service(n=2)
        query = LocationQuery(query_rect=Rect(1, 1, 62, 62), focal=nodes[0])
        service.subscribe(query, duration=60.0)
        # New joins split regions; the subscription must follow.
        rng = random.Random(9)
        for i in range(20):
            grid.join(
                make_node(100 + i, rng.uniform(0.001, 64), rng.uniform(0.001, 64))
            )
        service.check_consistency()
        # An event anywhere inside the big rect still notifies.
        notifications = service.publish(nodes[0], Point(48, 17), "hello")
        assert len(notifications) == 1

    def test_merge_absorbs_subscriptions(self):
        service, grid, nodes = build_service(n=30)
        query = LocationQuery(query_rect=Rect(10, 10, 20, 20), focal=nodes[0])
        service.subscribe(query, duration=60.0)
        rng = random.Random(5)
        leavers = [n for n in nodes[1:] if n.node_id in grid.nodes][:15]
        for node in leavers:
            grid.leave(node)
        service.check_consistency()
        notifications = service.publish(nodes[0], Point(20, 20), "after churn")
        assert len(notifications) == 1

    def test_split_then_merge_round_trip_keeps_one_registration(self):
        """A split followed by the reverse merge must be a no-op.

        Regression guard: the split hands a copy of every overlapping
        subscription to the new half, and the merge folds it back into
        the survivor -- without id-based dedup that round trip would
        leave the survivor hosting the subscription twice (double
        notifications), and stale region keys would keep phantom
        registrations alive at dead regions.
        """
        service, grid, nodes = build_service(n=2)
        query = LocationQuery(query_rect=Rect(1, 1, 62, 62), focal=nodes[0])
        service.subscribe(query, duration=60.0)
        hosted_before = sum(
            len(service.subscriptions_at(region))
            for region in grid.space.regions
        )
        # Split: a third joiner takes half of some region; the wide
        # subscription overlaps both halves, so it is copied across.
        joiner = make_node(100, 48.0, 48.0)
        grid.join(joiner)
        assert service.stats.rehomed_on_split >= 1
        service.check_consistency()
        # Merge: the joiner departs again, folding its half (and the
        # copied subscription) back into a neighbor.
        grid.leave(joiner)
        service.check_consistency()
        # Round trip complete: same number of live registrations as
        # before, every host region holds the subscription exactly once,
        # and none live at regions no longer in the partition.
        assert service.active_subscription_count(now=0.0) == 1
        hosted_after = 0
        for region in grid.space.regions:
            hosts = [
                s
                for s in service.subscriptions_at(region)
                if s.query is query
            ]
            assert len(hosts) <= 1, f"duplicate registration at {region!r}"
            hosted_after += len(hosts)
        assert hosted_after == hosted_before
        phantom_regions = [
            region
            for region in service._by_region
            if region not in grid.space.regions
        ]
        assert not phantom_regions
        # And exactly one notification for a matching event.
        notifications = service.publish(nodes[0], Point(48, 48), "ping")
        assert len(notifications) == 1

    def test_consistency_under_dual_peer_churn(self):
        service, grid, nodes = build_service(n=40, dual=True)
        rng = random.Random(7)
        for i in range(6):
            service.subscribe(
                LocationQuery(
                    query_rect=Rect(
                        rng.uniform(2, 40), rng.uniform(2, 40), 12, 12
                    ),
                    focal=nodes[i],
                ),
                duration=120.0,
            )
        alive = list(nodes)
        next_id = 500
        for _ in range(40):
            if rng.random() < 0.5 and len(alive) > 5:
                victim = alive.pop(rng.randrange(len(alive)))
                if rng.random() < 0.5:
                    grid.leave(victim)
                else:
                    grid.fail(victim)
            else:
                node = make_node(
                    next_id, rng.uniform(0.001, 64), rng.uniform(0.001, 64)
                )
                next_id += 1
                grid.join(node)
                alive.append(node)
        grid.check_invariants()
        service.check_consistency()


def two_band_service():
    """A 64 x 64 space cut at y = 32 into a south and a north band."""
    grid = BasicGeoGrid(BOUNDS, rng=random.Random(0))
    grid.join(make_node(0, 10.0, 10.0))
    grid.join(make_node(1, 10.0, 50.0))
    south = grid.space.locate(Point(10.0, 10.0))
    north = grid.space.locate(Point(10.0, 50.0))
    assert (south.rect, north.rect) == (Rect(0, 0, 64, 32), Rect(0, 32, 64, 32))
    return GeoPubSub(grid), grid, south, north


class TestHostRegions:
    """A subscription lives exactly at the regions that can own a point
    of its closed query rect (half-open regions, low edge closed on the
    space border)."""

    def test_region_sharing_its_south_edge_is_not_a_host(self):
        service, grid, south, north = two_band_service()
        query = LocationQuery(query_rect=Rect(5, 20, 6, 12), focal=south.primary)
        covered = grid.submit_query(query).covered
        assert north in covered  # the fan-out reaches it by edge contact
        service.subscribe(query, duration=60.0)
        assert service.subscriptions_at(north) == []
        assert [s.query for s in service.subscriptions_at(south)] == [query]
        service.check_consistency()

    def test_region_sharing_its_north_edge_survives_a_split(self):
        service, grid, south, north = two_band_service()
        query = LocationQuery(query_rect=Rect(5, 32, 6, 10), focal=north.primary)
        service.subscribe(query, duration=60.0)
        # The south band owns the query's south edge y = 32.
        assert [s.query for s in service.subscriptions_at(south)] == [query]
        grid.join(make_node(2, 10.0, 5.0))  # splits the south band
        service.check_consistency()
        edge_owner = grid.space.locate(Point(8.0, 32.0))
        assert edge_owner.rect.y2 == 32.0
        assert [s.query for s in service.subscriptions_at(edge_owner)] == [query]
        hits = service.publish(north.primary, Point(8.0, 32.0), "on the edge")
        assert [n.subscription.query for n in hits] == [query]

    def test_event_notification_example_subscription(self):
        """The grid of ``examples/event_notification.py``: its
        ``Rect(5, 50, 6, 6)`` subscription fans out to regions along
        y = 56 that own none of its points."""
        rng = random.Random(1985)
        grid = DualPeerGeoGrid(BOUNDS, rng=random.Random(11))
        nodes = []
        for node_id in range(120):
            node = make_node(
                node_id, rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5),
                capacity=rng.choice([1, 10, 100]),
            )
            grid.join(node)
            nodes.append(node)
        service = GeoPubSub(grid)
        query = LocationQuery(query_rect=Rect(5, 50, 6, 6), focal=nodes[9])
        covered = grid.submit_query(query).covered
        service.subscribe(query, duration=120.0)
        service.check_consistency()
        hosts = [r for r in covered if service.subscriptions_at(r)]
        skipped = [r for r in covered if not service.subscriptions_at(r)]
        assert skipped and all(r.rect.y == 56.0 for r in skipped)
        for region in hosts:
            assert region.rect.intersects(query.query_rect) or (
                region.rect.y2 == 50.0 or region.rect.x2 == 5.0
            )


class TestExpiry:
    def test_expire_removes_dead_subscriptions(self):
        service, grid, nodes = build_service()
        service.subscribe(
            LocationQuery(query_rect=Rect(10, 10, 4, 4), focal=nodes[0]),
            duration=5.0, now=0.0,
        )
        service.subscribe(
            LocationQuery(query_rect=Rect(40, 40, 4, 4), focal=nodes[1]),
            duration=50.0, now=0.0,
        )
        dropped = service.expire(now=10.0)
        assert dropped == 1
        assert service.active_subscription_count(now=10.0) == 1
        service.check_consistency()
