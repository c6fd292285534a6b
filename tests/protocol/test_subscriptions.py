"""The continuous-query subscription plane over real protocol messages.

End-to-end coverage for ``repro.sub`` on the message level: routed
registrations with fan-out to every touching region, NOTIFY pushes for
matching store updates and publishes, receive-side deduplication,
synchronous replication to the secondary, state motion through splits,
merges, failover and graceful departure, subscriber-side lease renewal,
and the lease-expiry regression (split twice, merge back, expire exactly
once -- no phantom re-registration).
"""

import random

from repro import obs
from repro.geometry import Point, Rect
from repro.protocol import ProtocolCluster
from repro.protocol import messages as m

BOUNDS = Rect(0, 0, 64, 64)

SUB_CHECKS = ("subscriptions",)


def build_cluster(count=8, seed=21, config=None, drop=0.0):
    cluster = ProtocolCluster(
        BOUNDS, seed=seed, drop_probability=drop, config=config
    )
    rng = random.Random(seed)
    nodes = []
    for _ in range(count):
        nodes.append(
            cluster.join_node(
                Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                capacity=rng.choice([1, 10, 100]),
            )
        )
    cluster.settle(60)
    return cluster, nodes, rng


def holders_of(cluster, sub_id):
    """Live primaries currently indexing ``sub_id``."""
    return [
        pnode
        for pnode in cluster.nodes.values()
        if (
            pnode.alive
            and pnode.owned is not None
            and pnode.owned.role == "primary"
            and pnode.owned.subs.get(sub_id) is not None
        )
    ]


def assert_sub_audit_quiet(cluster, settle=25.0):
    """Two audit passes over the subscription invariant must stay quiet.

    The check is soft (debounced across two consecutive ticks), so a
    clean bill of health needs two sightings with divergence frozen in
    between.
    """
    from repro.obs.audit import InvariantAuditor

    auditor = InvariantAuditor(cluster, checks=SUB_CHECKS)
    auditor.tick()
    cluster.settle(settle)
    auditor.tick()
    assert auditor.violations == []


class TestRegistration:
    def test_subscribe_acks_and_registers(self):
        cluster, nodes, rng = build_cluster()
        sub_id, ack = cluster.subscribe(
            nodes[0].node.node_id, Rect(20, 20, 8, 8)
        )
        assert ack.hops >= 0
        assert ack.region is not None
        cluster.settle(15)
        assert cluster.subscription_count() == 1
        assert holders_of(cluster, sub_id)

    def test_fan_out_registers_at_every_touching_primary(self):
        cluster, nodes, rng = build_cluster()
        # A rect spanning most of the service area touches every region.
        sub_id, _ = cluster.subscribe(
            nodes[0].node.node_id, Rect(2, 2, 60, 60)
        )
        cluster.settle(20)
        primaries = [
            pnode
            for pnode in cluster.nodes.values()
            if (
                pnode.alive
                and pnode.owned is not None
                and pnode.owned.role == "primary"
            )
        ]
        holders = holders_of(cluster, sub_id)
        assert len(holders) == len(primaries)

    def test_replica_holds_a_copy(self):
        cluster, nodes, rng = build_cluster(count=12, seed=5)
        sub_id, _ = cluster.subscribe(
            nodes[0].node.node_id, Rect(20, 20, 8, 8)
        )
        cluster.settle(15)
        replicated = [
            pnode
            for pnode in cluster.nodes.values()
            if (
                pnode.alive
                and pnode.owned is not None
                and pnode.owned.role == "secondary"
                and pnode.owned.subs.get(sub_id) is not None
            )
        ]
        paired = [
            holder
            for holder in holders_of(cluster, sub_id)
            if holder.owned.peer is not None
        ]
        assert len(replicated) >= len(paired) > 0

    def test_audit_stays_quiet_with_live_subscriptions(self):
        cluster, nodes, rng = build_cluster()
        for i in range(3):
            cluster.subscribe(
                nodes[i].node.node_id,
                Rect(rng.uniform(2, 40), rng.uniform(2, 40), 10, 10),
            )
        cluster.settle(15)
        assert_sub_audit_quiet(cluster)


class TestNotifications:
    def test_store_update_inside_rect_notifies(self):
        cluster, nodes, rng = build_cluster()
        origin = nodes[0].node.node_id
        cluster.subscribe(origin, Rect(20, 20, 8, 8))
        cluster.settle(15)
        cluster.store_update(
            nodes[1].node.node_id, "car1", Point(24, 24),
            payload="jam", version=1,
        )
        cluster.run_for(10.0)
        subscriber = cluster.nodes[origin]
        assert [n.payload for n in subscriber.notifications] == ["jam"]
        assert subscriber.notifications[0].point == Point(24, 24)

    def test_publish_inside_rect_notifies(self):
        cluster, nodes, rng = build_cluster()
        origin = nodes[0].node.node_id
        cluster.subscribe(origin, Rect(20, 20, 8, 8))
        cluster.settle(15)
        cluster.publish(nodes[2].node.node_id, Point(21, 27), "accident")
        subscriber = cluster.nodes[origin]
        assert [n.payload for n in subscriber.notifications] == [
            "accident"
        ]

    def test_event_outside_rect_stays_silent(self):
        cluster, nodes, rng = build_cluster()
        origin = nodes[0].node.node_id
        cluster.subscribe(origin, Rect(20, 20, 8, 8))
        cluster.settle(15)
        cluster.store_update(
            nodes[1].node.node_id, "car1", Point(50, 50), version=1
        )
        cluster.publish(nodes[2].node.node_id, Point(5, 5), "far away")
        cluster.run_for(10.0)
        assert cluster.nodes[origin].notifications == []

    def test_duplicate_events_are_deduplicated(self):
        cluster, nodes, rng = build_cluster()
        origin = nodes[0].node.node_id
        cluster.subscribe(origin, Rect(20, 20, 8, 8))
        cluster.settle(15)
        # The same (object, version) re-sent is the same event; only a
        # fresh version is a new one.
        cluster.store_update(
            nodes[1].node.node_id, "car1", Point(24, 24), version=1
        )
        cluster.run_for(10.0)
        cluster.store_update(
            nodes[1].node.node_id, "car1", Point(24, 24), version=1
        )
        cluster.run_for(10.0)
        cluster.store_update(
            nodes[1].node.node_id, "car1", Point(24, 24), version=2
        )
        cluster.run_for(10.0)
        subscriber = cluster.nodes[origin]
        assert len(subscriber.notifications) == 2
        keys = {n.event_key for n in subscriber.notifications}
        assert keys == {("store", "car1", 1), ("store", "car1", 2)}

    def test_two_subscriptions_both_notify_for_one_event(self):
        cluster, nodes, rng = build_cluster()
        origin = nodes[0].node.node_id
        cluster.subscribe(origin, Rect(20, 20, 8, 8))
        cluster.subscribe(origin, Rect(22, 22, 8, 8))
        cluster.settle(15)
        cluster.publish(nodes[2].node.node_id, Point(24, 24), "both")
        assert len(cluster.nodes[origin].notifications) == 2


class TestRestructuring:
    def test_subscription_survives_splits_from_joins(self):
        cluster, nodes, rng = build_cluster(count=4, seed=11)
        origin = nodes[0].node.node_id
        sub_id, _ = cluster.subscribe(
            origin, Rect(20, 20, 10, 10), duration=600.0
        )
        cluster.settle(15)
        # Load the watched ground so joins split the covering regions.
        for i in range(4):
            cluster.join_node(Point(22 + 2 * i, 23), capacity=100)
            cluster.settle(30)
        assert holders_of(cluster, sub_id)
        cluster.publish(nodes[1].node.node_id, Point(25, 25), "post-split")
        assert "post-split" in [
            n.payload for n in cluster.nodes[origin].notifications
        ]
        assert_sub_audit_quiet(cluster)

    def test_subscription_survives_graceful_departure(self):
        cluster, nodes, rng = build_cluster(count=8, seed=11)
        origin = nodes[0].node.node_id
        sub_id, _ = cluster.subscribe(
            origin, Rect(20, 20, 10, 10), duration=600.0
        )
        cluster.settle(15)
        for holder in holders_of(cluster, sub_id):
            if holder.node.node_id != origin:
                cluster.depart_node(holder.node.node_id)
                cluster.settle(60)
                break
        assert holders_of(cluster, sub_id)
        cluster.publish(nodes[1].node.node_id, Point(25, 25), "post-merge")
        assert "post-merge" in [
            n.payload for n in cluster.nodes[origin].notifications
        ]

    def test_subscription_survives_primary_crash(self):
        cluster, nodes, rng = build_cluster(count=12, seed=5)
        origin = nodes[0].node.node_id
        sub_id, _ = cluster.subscribe(
            origin, Rect(20, 20, 10, 10), duration=600.0
        )
        cluster.settle(15)
        for holder in holders_of(cluster, sub_id):
            if holder.node.node_id != origin:
                cluster.crash_node(holder.node.node_id)
                break
        cluster.settle(120)
        assert holders_of(cluster, sub_id)
        cluster.publish(nodes[1].node.node_id, Point(25, 25), "post-crash")
        assert "post-crash" in [
            n.payload for n in cluster.nodes[origin].notifications
        ]


class TestLease:
    def test_expired_lease_stops_notifications(self):
        cluster, nodes, rng = build_cluster()
        origin = nodes[0].node.node_id
        sub_id, _ = cluster.subscribe(
            origin, Rect(20, 20, 8, 8), duration=40.0
        )
        cluster.settle(15)
        assert cluster.subscription_count() == 1
        # Run well past expiry plus the maximum sweep jitter.
        cluster.run_for(80.0)
        assert cluster.subscription_count() == 0
        cluster.publish(nodes[2].node.node_id, Point(24, 24), "too late")
        assert cluster.nodes[origin].notifications == []

    def test_renewal_keeps_bumping_the_version(self):
        cluster, nodes, rng = build_cluster()
        origin = nodes[0].node.node_id
        sub_id, _ = cluster.subscribe(
            origin, Rect(20, 20, 8, 8), duration=500.0
        )
        cluster.settle(15)
        cluster.run_for(160.0)
        holders = holders_of(cluster, sub_id)
        assert holders
        # ~5 renewal intervals elapsed; every holder converged past v0.
        for holder in holders:
            assert holder.owned.subs.get(sub_id).version >= 3

    def test_renewal_repairs_a_region_that_lost_every_copy(self):
        cluster, nodes, rng = build_cluster(count=8, seed=21)
        origin = nodes[0].node.node_id
        sub_id, _ = cluster.subscribe(
            origin, Rect(20, 20, 8, 8), duration=600.0
        )
        cluster.settle(15)
        # Wipe the registration from every holder (as if a region lost
        # primary and secondary at once): the subscriber's periodic
        # re-assertion is the only thing that can bring it back.
        for holder in holders_of(cluster, sub_id):
            holder.owned.subs.remove(sub_id)
        assert not holders_of(cluster, sub_id)
        cluster.run_for(80.0)
        assert holders_of(cluster, sub_id)

    def test_split_split_merge_then_expire_exactly_once(self):
        """The lease-expiry regression: restructuring must not extend it.

        The watched ground splits twice (joins), merges back (graceful
        departures), and through all of it the subscriber keeps
        re-asserting the lease.  The absolute expiry still stands: once
        it passes, the subscription disappears everywhere and never
        phantom-re-registers -- not from renewal, not from anti-entropy,
        not from a handoff.
        """
        cluster, nodes, rng = build_cluster(count=4, seed=11)
        origin = nodes[0].node.node_id
        sub_id, _ = cluster.subscribe(
            origin, Rect(20, 20, 10, 10), duration=420.0
        )
        cluster.settle(15)
        expires_at = cluster.nodes[origin]._my_subs[sub_id].expires_at()

        joined = []
        for i in range(2):  # split the watched ground twice
            joined.append(
                cluster.join_node(Point(23 + 3 * i, 24), capacity=100)
            )
            cluster.settle(40)
        assert holders_of(cluster, sub_id)
        for pnode in joined:  # and merge it back
            cluster.depart_node(pnode.node.node_id)
            cluster.settle(60)
        assert holders_of(cluster, sub_id)
        assert cluster.subscription_count() == 1

        # Let the lease lapse (plus maximum sweep jitter), then keep the
        # cluster running across several renewal and sync intervals: the
        # record must stay gone everywhere.
        cluster.run_for(max(0.0, expires_at - cluster.scheduler.now))
        cluster.run_for(60.0)
        assert cluster.subscription_count() == 0
        assert not holders_of(cluster, sub_id)
        for _ in range(3):
            cluster.run_for(30.0)
            assert not holders_of(cluster, sub_id), (
                "expired lease phantom-re-registered"
            )
        assert sub_id not in cluster.nodes[origin]._my_subs
        cluster.publish(nodes[1].node.node_id, Point(25, 25), "late")
        assert cluster.nodes[origin].notifications == []


class TestDisabledPlane:
    def test_idle_plane_is_byte_invisible(self):
        """Without subscriptions the plane must not perturb the run.

        A default-config run that stores and publishes but never
        subscribes sends no subscription message and records no ``sub.``
        metric: the unused plane emits nothing.
        """
        with obs.capture() as registry:
            cluster, nodes, rng = build_cluster(count=6, seed=3)
            for i in range(6):
                cluster.store_update(
                    nodes[i % len(nodes)].node.node_id,
                    f"obj{i}",
                    Point(rng.uniform(1, 63), rng.uniform(1, 63)),
                    version=1,
                )
            cluster.publish(nodes[1].node.node_id, Point(30, 30), "x")
            cluster.run_for(60.0)
        sent = cluster.network.stats.by_kind
        assert sent.get(m.STORE_ACK)
        sub_kinds = (m.SUBSCRIBE, m.SUB_FANOUT, m.SUB_ACK, m.SUB_SYNC, m.NOTIFY)
        assert not any(kind in sent for kind in sub_kinds)
        assert not any(name.startswith("sub.") for name in registry.snapshot())
