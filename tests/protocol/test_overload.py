"""Tests for the overload control plane (repro.protocol.overload).

Classification and budgets are pure-function tests; admission, SHED
NACKs, backpressure deflection, escalation, and stat expiry are driven
through real ProtocolCluster nodes.  The final class pins the PR's
purity contract: with ``overload_enabled=False`` (and even enabled but
unstressed) the plane sends no messages and consumes no randomness, so
seeded runs are identical to the pre-plane behavior.
"""

import random
from types import SimpleNamespace

import pytest

from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m
from repro.protocol import node as node_module
from repro.protocol import overload
from repro.protocol.node import FAILURE_HORIZON
from repro.sim.transport import Message

BOUNDS = Rect(0, 0, 64, 64)

OVERLOADED = NodeConfig(dual_peer=False, overload_enabled=True)


def build_cluster(seed=1, config=OVERLOADED, count=4, settle=30):
    """Four primaries, one per quadrant, with the overload plane on."""
    cluster = ProtocolCluster(BOUNDS, seed=seed, config=config)
    spots = [(10, 10), (50, 10), (10, 50), (50, 50), (30, 30)]
    nodes = [
        cluster.join_node(Point(x, y), capacity=10)
        for x, y in spots[:count]
    ]
    cluster.settle(settle)
    return cluster, nodes


class TestClassification:
    def test_control_and_ack_classes(self):
        assert overload.wire_priority(m.HEARTBEAT) == overload.PRIORITY_CONTROL
        assert overload.wire_priority(m.JOIN_GRANT) == overload.PRIORITY_CONTROL
        assert overload.wire_priority(m.SHED) == overload.PRIORITY_CONTROL
        assert overload.wire_priority(m.RELIABLE_ACK) == overload.PRIORITY_ACK

    def test_data_query_gossip_classes(self):
        assert overload.wire_priority(m.STORE_UPDATE) == overload.PRIORITY_DATA
        assert overload.wire_priority(m.NOTIFY) == overload.PRIORITY_DATA
        assert overload.wire_priority(m.ROUTE) == overload.PRIORITY_QUERY
        assert (
            overload.wire_priority(m.STORE_LOOKUP) == overload.PRIORITY_QUERY
        )
        assert (
            overload.wire_priority(m.PERIMETER_PROBE)
            == overload.PRIORITY_GOSSIP
        )

    def test_reliable_envelope_classed_by_payload(self):
        grant = SimpleNamespace(kind=m.JOIN_GRANT, body=None)
        update = SimpleNamespace(kind=m.STORE_UPDATE, body=None)
        assert (
            overload.wire_priority(m.RELIABLE, grant)
            == overload.PRIORITY_CONTROL
        )
        assert (
            overload.wire_priority(m.RELIABLE, update)
            == overload.PRIORITY_DATA
        )

    def test_shortcut_hop_classed_by_inner_kind(self):
        hop = SimpleNamespace(kind=m.STORE_UPDATE, body=None)
        assert (
            overload.wire_priority(m.SHORTCUT_HOP, hop)
            == overload.PRIORITY_DATA
        )
        route = SimpleNamespace(kind=m.ROUTE, body=None)
        assert (
            overload.wire_priority(m.MISROUTE, route)
            == overload.PRIORITY_QUERY
        )

    def test_unknown_kind_defaults_to_data(self):
        assert overload.wire_priority("no-such-kind") == overload.PRIORITY_DATA

    def test_budget_floor_and_scale(self):
        assert overload.admission_budget(1) == 16
        assert overload.admission_budget(100) == 400

    def test_limits_cover_only_sheddable_kinds(self):
        limits = overload.admission_limits(100)
        assert m.HEARTBEAT not in limits
        assert m.JOIN_GRANT not in limits
        assert m.RELIABLE_ACK not in limits
        # Envelope kinds are classified by payload, never by themselves.
        assert m.RELIABLE not in limits
        assert m.SHORTCUT_HOP not in limits
        # Strict degradation order: gossip < queries < data.
        assert limits[m.PERIMETER_PROBE] < limits[m.ROUTE]
        assert limits[m.ROUTE] < limits[m.STORE_UPDATE]
        assert limits[m.STORE_UPDATE] == 100

    def test_limits_never_below_one(self):
        limits = overload.admission_limits(1)
        assert all(limit >= 1 for limit in limits.values())


def saturate(cluster, node, depth=None):
    """Pin the transport's in-flight count for ``node`` at ``depth``."""
    if depth is None:
        depth = node._overload_budget
    cluster.network._in_flight[node.address] = depth


def route_message(source, destination, origin, request_id=901):
    return Message(
        source=source.address,
        destination=destination.address,
        kind=m.ROUTE,
        body=m.RouteBody(
            origin=origin.address,
            target=Point(1, 1),
            payload="storm",
            request_id=request_id,
        ),
        sent_at=0.0,
    )


class TestAdmission:
    def test_admits_below_limit(self):
        cluster, nodes = build_cluster()
        hot, peer = nodes[0], nodes[1]
        assert hot._overload_admit(route_message(peer, hot, peer))
        assert hot.sheds == 0

    def test_sheds_query_at_limit(self):
        cluster, nodes = build_cluster()
        hot, peer = nodes[0], nodes[1]
        saturate(cluster, hot, depth=hot._admit_limits[m.ROUTE])
        assert not hot._overload_admit(route_message(peer, hot, peer))
        assert hot.sheds == 1
        assert hot.shed_by_kind[m.ROUTE] == 1

    def test_control_admitted_at_any_depth(self):
        cluster, nodes = build_cluster()
        hot, peer = nodes[0], nodes[1]
        saturate(cluster, hot, depth=10 * hot._overload_budget)
        beat = Message(
            source=peer.address,
            destination=hot.address,
            kind=m.HEARTBEAT,
            body=None,
            sent_at=0.0,
        )
        assert hot._overload_admit(beat)
        assert hot.sheds == 0

    def test_gossip_shed_before_queries(self):
        cluster, nodes = build_cluster()
        hot, peer = nodes[0], nodes[1]
        saturate(cluster, hot, depth=hot._admit_limits[m.PERIMETER_PROBE])
        assert hot._overload_admit(route_message(peer, hot, peer))
        probe = Message(
            source=peer.address,
            destination=hot.address,
            kind=m.PERIMETER_PROBE,
            body=None,
            sent_at=0.0,
        )
        assert not hot._overload_admit(probe)

    def test_shed_request_gets_nack_with_retry_after(self):
        cluster, nodes = build_cluster()
        hot, peer = nodes[0], nodes[1]
        saturate(cluster, hot)
        hot._receive(route_message(peer, hot, peer, request_id=77))
        cluster.network._in_flight[hot.address] = 0
        cluster.run_for(5.0)
        assert peer.shed_received.get(m.ROUTE) == 1
        kind, retry_after, depth = peer.shed_notices[-1]
        assert kind == m.ROUTE
        # The hint is depth-scaled: at full budget it exceeds the base.
        assert retry_after > overload.RETRY_AFTER
        assert depth >= hot._overload_budget

    def test_reliable_payload_shed_silently(self):
        cluster, nodes = build_cluster()
        hot, peer = nodes[0], nodes[1]
        saturate(cluster, hot)
        envelope = Message(
            source=peer.address,
            destination=hot.address,
            kind=m.RELIABLE,
            body=SimpleNamespace(
                kind=m.STORE_UPDATE,
                body=SimpleNamespace(origin=peer.address, request_id=5),
            ),
            sent_at=0.0,
        )
        before = cluster.network.stats.by_kind.get(m.SHED, 0)
        assert not hot._overload_admit(envelope)
        assert hot.sheds == 1
        assert cluster.network.stats.by_kind.get(m.SHED, 0) == before

    def test_disabled_plane_never_sheds(self):
        cluster, nodes = build_cluster(
            config=NodeConfig(dual_peer=False, overload_enabled=False)
        )
        hot, peer = nodes[0], nodes[1]
        saturate(cluster, hot, depth=10_000)
        hot._receive(route_message(peer, hot, peer))
        assert hot.sheds == 0


class TestDeflection:
    def find_forks(self, cluster, nodes):
        """A (node, target, progress-making neighbors) triple to deflect."""
        for node in nodes:
            for corner in (Point(63, 63), Point(1, 63), Point(63, 1)):
                own = node.owned.rect.distance_to_point(corner)
                if own <= 0:
                    continue
                closer = []
                for info in node.neighbor_table.values():
                    endpoint = node._live_endpoint(info)
                    if endpoint is None or endpoint == node.address:
                        continue
                    distance = info.rect.distance_to_point(corner)
                    if distance < own - 1e-12:
                        closer.append((distance, info.rect, endpoint))
                if len(closer) >= 2:
                    closer.sort(key=lambda row: row[0])
                    return node, corner, closer
        raise AssertionError("no node with two progress-making neighbors")

    def test_deflects_around_saturated_best(self):
        cluster, nodes = build_cluster(count=5)
        node, target, closer = self.find_forks(cluster, nodes)
        (_, best_rect, _), (_, _, calm_endpoint) = closer[0], closer[1]
        node.neighbor_pressure = {best_rect: 1.0}
        hops = []
        node._send_hop = lambda addr, kind, body, inner_kind=None: (
            hops.append(addr)
        )
        body = m.RouteBody(
            origin=node.address, target=target, payload="x", request_id=31
        )
        assert node._route_forward(m.ROUTE, body, target)
        assert node.deflections == 1
        assert hops == [calm_endpoint]

    def test_no_deflection_when_best_is_calm(self):
        cluster, nodes = build_cluster(count=5)
        node, target, closer = self.find_forks(cluster, nodes)
        best_endpoint = closer[0][2]
        node.neighbor_pressure = {}
        hops = []
        node._send_hop = lambda addr, kind, body, inner_kind=None: (
            hops.append(addr)
        )
        body = m.RouteBody(
            origin=node.address, target=target, payload="x", request_id=32
        )
        assert node._route_forward(m.ROUTE, body, target)
        assert node.deflections == 0
        assert hops == [best_endpoint]

    def test_no_deflection_when_all_saturated(self):
        """Strict progress beats calm: with no calm alternative the
        greedy best is used even at full pressure."""
        cluster, nodes = build_cluster(count=5)
        node, target, closer = self.find_forks(cluster, nodes)
        best_endpoint = closer[0][2]
        node.neighbor_pressure = {
            info.rect: 1.0 for info in node.neighbor_table.values()
        }
        hops = []
        node._send_hop = lambda addr, kind, body, inner_kind=None: (
            hops.append(addr)
        )
        body = m.RouteBody(
            origin=node.address, target=target, payload="x", request_id=33
        )
        assert node._route_forward(m.ROUTE, body, target)
        assert node.deflections == 0
        assert hops == [best_endpoint]


class TestEscalation:
    CONFIG = NodeConfig(
        dual_peer=False, overload_enabled=True, adaptation_enabled=True
    )

    @pytest.fixture(autouse=True)
    def _no_periodic_switch_check(self, monkeypatch):
        # Only escalation may call _consider_switch in these tests.
        monkeypatch.setattr(node_module, "ADAPTATION_INTERVAL", 10_000.0)

    def test_sustained_shedding_calls_consider_switch(self):
        cluster, nodes = build_cluster(config=self.CONFIG)
        node = nodes[0]
        calls = []
        node._consider_switch = lambda: calls.append(1)
        node._shed_window = 3
        node._roll_stat_window()
        assert not calls  # one window is noise, not a trend
        node._shed_window = 2
        node._roll_stat_window()
        assert len(calls) == 1
        assert node._shed_streak == 0  # reset after escalating

    def test_quiet_window_resets_streak(self):
        cluster, nodes = build_cluster(config=self.CONFIG)
        node = nodes[0]
        calls = []
        node._consider_switch = lambda: calls.append(1)
        node._shed_window = 3
        node._roll_stat_window()
        node._shed_window = 0
        node._roll_stat_window()  # quiet window breaks the streak
        node._shed_window = 1
        node._roll_stat_window()
        assert not calls

    def test_no_escalation_without_adaptation(self):
        cluster, nodes = build_cluster()
        node = nodes[0]
        calls = []
        node._consider_switch = lambda: calls.append(1)
        for _ in range(5):
            node._shed_window = 2
            node._roll_stat_window()
        assert not calls


class TestStatExpiry:
    def test_stale_neighbor_stats_decay(self):
        cluster, nodes = build_cluster(count=4, settle=40)
        victim = nodes[1]
        victim_rect = victim.owned.rect
        watchers = [
            node for node in nodes
            if node is not victim and victim_rect in node.neighbor_stats
        ]
        assert watchers, "heartbeats never populated neighbor stats"
        cluster.crash_node(victim.node.node_id)
        cluster.settle(3 * FAILURE_HORIZON)
        for node in watchers:
            if not node.alive:
                continue
            assert victim_rect not in node.neighbor_stats
            assert victim_rect not in node.neighbor_pressure

    def test_fresh_stats_survive_the_sweep(self):
        cluster, nodes = build_cluster(count=4, settle=40)
        live = [n for n in nodes if n.alive and n.is_primary()]
        with_stats = [n for n in live if n.neighbor_stats]
        assert with_stats, "heartbeats never populated neighbor stats"
        cluster.settle(100)  # many sweep periods, heartbeats flowing
        assert any(n.neighbor_stats for n in with_stats if n.alive)


class TestDisabledPurity:
    def drive(self, enabled, seed=11):
        cluster = ProtocolCluster(
            BOUNDS,
            seed=seed,
            config=NodeConfig(dual_peer=False, overload_enabled=enabled),
        )
        rng = random.Random(seed)
        nodes = [
            cluster.join_node(
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
                capacity=rng.choice([1, 10]),
            )
            for _ in range(6)
        ]
        cluster.settle(30)
        for index in range(40):
            origin = nodes[index % len(nodes)]
            if not origin.alive:
                continue
            point = Point(rng.uniform(1, 63), rng.uniform(1, 63))
            if index % 3 == 0:
                origin.store_update(object_id=f"pure-{index}", point=point)
            else:
                origin.send_to_point(point, "pure")
            cluster.run_for(1.0)
        cluster.run_for(20.0)
        return cluster

    def test_enabled_but_unstressed_is_identical(self):
        """Ambient load never trips admission, so the enabled plane's
        message trace is byte-for-byte the disabled one's."""
        on = self.drive(enabled=True)
        off = self.drive(enabled=False)
        assert all(n.sheds == 0 for n in on.nodes.values())
        assert m.SHED not in on.network.stats.by_kind
        assert on.network.stats.sent == off.network.stats.sent
        assert on.network.stats.by_kind == off.network.stats.by_kind
        assert on.scheduler.now == off.scheduler.now

    def test_overload_off_by_default(self):
        assert NodeConfig().overload_enabled is False
        cluster = ProtocolCluster(BOUNDS, seed=1)
        node = cluster.join_node(Point(10, 10))
        assert node._overload is False


class TestVitalsSurface:
    def test_heartbeats_carry_queue_pressure(self):
        cluster, nodes = build_cluster(count=4, settle=40)
        node = nodes[0]
        sent = []
        original = cluster.network.send
        cluster.network.send = lambda *args, **kwargs: (
            sent.append(args), original(*args, **kwargs)
        )
        try:
            # Pin a deep queue and let one heartbeat round go out.
            cluster.network._in_flight[node.address] = node._overload_budget
            node._send_neighbor_heartbeats()
        finally:
            cluster.network.send = original
            cluster.network._in_flight[node.address] = 0
        beats = [
            args[3] for args in sent if args[2] == m.HEARTBEAT
        ]
        assert beats
        assert all(beat.pressure == 1.0 for beat in beats)

    def test_receiver_records_neighbor_pressure(self):
        cluster, nodes = build_cluster(count=4, settle=40)
        node = nodes[0]
        watcher = next(
            n for n in nodes[1:]
            if n.alive and node.owned.rect in n.neighbor_stats
        )
        beat = m.HeartbeatBody(
            rect=node.owned.rect,
            role="primary",
            load=node.load_rate,
            capacity=node.node.capacity,
            pressure=0.9,
        )
        watcher._on_heartbeat(
            Message(
                source=node.address,
                destination=watcher.address,
                kind=m.HEARTBEAT,
                body=beat,
                sent_at=0.0,
            )
        )
        assert watcher.neighbor_pressure[node.owned.rect] == 0.9
