"""The distributed load adaptation: mechanism (b) over real messages.

Workload statistics ride on neighbor heartbeats; an overloaded weak
primary proposes a primary switch to a stronger, cooler neighbor; region
state ships in the request/accept exchange.  These tests drive actual
query traffic (the load sensor counts *served* requests) and watch the
hot region migrate onto the strong node.
"""

import random
from collections import Counter

import pytest

from repro.geometry import Point, Rect
from repro.obs import causal
from repro.protocol import NodeConfig, ProtocolCluster

BOUNDS = Rect(0, 0, 64, 64)

ADAPTIVE = NodeConfig(dual_peer=False, adaptation_enabled=True)


def build_hot_cluster(seed=33, count=8, config=ADAPTIVE):
    """A small cluster where a weak node serves the hot corner."""
    cluster = ProtocolCluster(BOUNDS, seed=seed, config=config)
    rng = random.Random(seed)
    nodes = []
    # First node is weak and sits in the (to-be) hot southwest corner.
    nodes.append(cluster.join_node(Point(8, 8), capacity=1))
    for _ in range(count - 1):
        nodes.append(
            cluster.join_node(
                Point(rng.uniform(16, 63), rng.uniform(16, 63)),
                capacity=rng.choice([10, 100]),
            )
        )
    cluster.settle(40)
    return cluster, nodes, rng


def drive_traffic(cluster, nodes, rng, target_area, duration=120.0, rate=2.0):
    """Issue lookups into ``target_area`` while time advances."""
    steps = int(duration / 2.0)
    for _ in range(steps):
        for _ in range(int(rate)):
            origin = rng.choice(nodes)
            if not origin.alive:
                continue
            point = Point(
                rng.uniform(target_area.x + 0.1, target_area.x2),
                rng.uniform(target_area.y + 0.1, target_area.y2),
            )
            origin.send_to_point(point, "hot query")
        cluster.run_for(2.0)


class TestStatExchange:
    def test_load_rate_measured(self):
        cluster, nodes, rng = build_hot_cluster()
        hot_area = Rect(0, 0, 12, 12)
        drive_traffic(cluster, nodes, rng, hot_area, duration=30.0)
        server = next(
            n for n in cluster.nodes.values()
            if n.alive and n.is_primary()
            and n.owned.rect.covers(Point(6, 6), closed_low_x=True,
                                    closed_low_y=True)
        )
        assert server.load_rate > 0.0

    def test_neighbors_learn_stats(self):
        cluster, nodes, rng = build_hot_cluster()
        drive_traffic(cluster, nodes, rng, Rect(0, 0, 12, 12), duration=40.0)
        primaries = [
            n for n in cluster.nodes.values() if n.alive and n.is_primary()
        ]
        with_stats = [n for n in primaries if n.neighbor_stats]
        assert len(with_stats) >= len(primaries) // 2


class TestPrimarySwitch:
    def test_hot_region_moves_to_stronger_node(self):
        cluster, nodes, rng = build_hot_cluster()
        weak = nodes[0]
        assert weak.node.capacity == 1
        # The hot spot sits wherever the weak node's region ended up.
        hot_rect = weak.owned.rect
        probe = hot_rect.center
        drive_traffic(cluster, nodes, rng, hot_rect, duration=200.0)
        # Whoever serves the hot region now must be stronger than the
        # original weak owner: the switch moved ownership.
        server = next(
            n for n in cluster.nodes.values()
            if n.alive and n.is_primary()
            and n.owned.rect.covers(probe, closed_low_x=True,
                                    closed_low_y=True)
        )
        assert server.node.capacity > 1
        switches = sum(
            n.switches_completed for n in cluster.nodes.values()
        )
        assert switches >= 2  # both parties count a completed switch
        cluster.settle(30)
        cluster.check_partition()

    def test_switch_preserves_stored_items(self):
        cluster, nodes, rng = build_hot_cluster()
        hot_area = Rect(0, 0, 12, 12)
        reporter = nodes[-1].node.node_id
        cluster.publish(reporter, Point(6, 6), "persistent-item")
        drive_traffic(cluster, nodes, rng, hot_area, duration=200.0)
        cluster.settle(30)
        results = cluster.query(reporter, Rect(5, 5, 2, 2))
        items = [item for r in results for _, item in r.items]
        assert "persistent-item" in items

    def test_no_switch_without_load(self):
        cluster, nodes, rng = build_hot_cluster()
        cluster.settle(300)  # plenty of adaptation intervals, no traffic
        switches = sum(
            n.switches_completed for n in cluster.nodes.values()
        )
        assert switches == 0

    def test_adaptation_disabled_by_default(self):
        config = NodeConfig(dual_peer=False)
        cluster, nodes, rng = build_hot_cluster(config=config)
        drive_traffic(cluster, nodes, rng, Rect(0, 0, 12, 12), duration=120.0)
        switches = sum(
            n.switches_completed for n in cluster.nodes.values()
        )
        assert switches == 0


class TestTriggerUnderLoss:
    """The sqrt(2) trigger over a lossy network (5% message drop).

    Workload stats ride best-effort heartbeats and the switch handshake
    rides the reliable channel, so the trigger must still fire -- and
    fire *once* per hot region, not re-trigger spuriously off stale or
    partially-delivered statistics.
    """

    def build_lossy_cluster(self, seed=33, count=8):
        cluster = ProtocolCluster(
            BOUNDS, seed=seed, drop_probability=0.05, config=ADAPTIVE
        )
        rng = random.Random(seed)
        nodes = [cluster.join_node(Point(8, 8), capacity=1)]
        for _ in range(count - 1):
            nodes.append(
                cluster.join_node(
                    Point(rng.uniform(16, 63), rng.uniform(16, 63)),
                    capacity=rng.choice([10, 100]),
                )
            )
        cluster.settle(40)
        return cluster, nodes, rng

    def test_trigger_fires_through_loss(self):
        cluster, nodes, rng = self.build_lossy_cluster()
        weak = nodes[0]
        assert weak.node.capacity == 1
        hot_rect = weak.owned.rect
        probe = hot_rect.center
        drive_traffic(cluster, nodes, rng, hot_rect, duration=200.0)
        server = next(
            n for n in cluster.nodes.values()
            if n.alive and n.is_primary()
            and n.owned.rect.covers(probe, closed_low_x=True,
                                    closed_low_y=True)
        )
        assert server.node.capacity > 1
        switches = sum(
            n.switches_completed for n in cluster.nodes.values()
        )
        assert switches >= 2  # both parties count a completed switch
        cluster.settle(30)
        cluster.check_partition()

    def test_no_spurious_double_adaptation(self):
        """Lost stat heartbeats must not re-fire the trigger on stale
        numbers: once traffic stops, the load windows roll to zero and
        switching stops with them -- many idle adaptation intervals
        later the tally is unchanged."""
        cluster, nodes, rng = self.build_lossy_cluster()
        weak = nodes[0]
        hot_rect = weak.owned.rect
        drive_traffic(cluster, nodes, rng, hot_rect, duration=200.0)
        tally = lambda: sum(
            n.switches_completed for n in cluster.nodes.values()
        )
        under_load = tally()
        assert under_load >= 2  # the trigger fired through the loss
        # Let traffic stop; stale stats + loss must not keep switching.
        cluster.settle(200)
        assert tally() == under_load
        cluster.check_partition()


class TestHotspotSwitches:
    """A long hotspot on a dual-peer cluster switches primaries; every
    switch must hand its region over without a conflict, and the pair
    test and cooldown keep any one node from switching over and over.

    Each switch installs the shipped claim one stamp up, so the
    initiator's heartbeats for the region it is giving away are stale on
    arrival.  Under load, no owner may yield to another and no neighbor
    may caretake a region whose owner is alive.
    """

    @pytest.mark.parametrize(
        "seed, hotspot",
        [(5, Point(48, 16)), (6, Point(32, 32))],
        ids=["seed5-48x16", "seed6-32x32"],
    )
    def test_no_conflict_while_switching(self, monkeypatch, seed, hotspot):
        cluster = ProtocolCluster(
            BOUNDS, seed=seed, config=NodeConfig(adaptation_enabled=True)
        )
        rng = random.Random(seed)
        for _ in range(32):
            cluster.join_node(
                Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                capacity=rng.choice([1, 10, 100]),
            )
        cluster.settle(30)
        cluster.check_partition()
        seen = []
        installs = Counter()
        annotate = causal.annotate

        def recording(event, *args, **fields):
            seen.append(event)
            if event == "switch_installed":
                installs[fields["owner"]] += 1
            annotate(event, *args, **fields)

        monkeypatch.setattr(causal, "annotate", recording)
        ids = sorted(cluster.nodes)
        for _ in range(300):
            for _ in range(20):
                origin = cluster.nodes[rng.choice(ids)]
                target = Point(
                    hotspot.x + rng.uniform(-2, 2),
                    hotspot.y + rng.uniform(-2, 2),
                )
                if origin.joined:
                    origin.send_to_point(target, None)
            cluster.run_for(1.0)
        monkeypatch.undo()
        assert seen.count("switch_installed") > 0
        assert max(installs.values()) <= 6
        assert seen.count("ownership_yield") == 0
        assert seen.count("caretake_adopt") == 0
        cluster.run_for(5.0)
        cluster.check_partition()
