"""Epoch-stamped heartbeats and the receiver's fold memo.

A primary stamps every neighbor heartbeat with the epoch of its advert
``(rect, secondary, gossip, caretaken)``.  A receiver that already folded
that epoch, and whose own view has not moved since, replays the fold's
durable effects (claim stamps, shortcut refreshes) instead of
re-deriving them.  Each test below drives beats through ``_receive`` and
would fail against a memo that skipped the fold unconditionally.
"""

import random

from repro.core.node import synthetic_address
from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m
from repro.protocol.node import FAILURE_HORIZON, HEARTBEAT_INTERVAL
from repro.sim.transport import Message
from tests.protocol.test_shortcuts import sends_during

BOUNDS = Rect(0, 0, 64, 64)


def quiet_cluster(count=12, seed=41, config=None):
    """A settled cluster with every periodic timer stopped.

    Only the beats a test feeds by hand reach the receiver afterwards,
    so its view moves exactly when the test moves it.
    """
    cluster = ProtocolCluster(
        BOUNDS, seed=seed, config=config or NodeConfig(dual_peer=False)
    )
    rng = random.Random(seed)
    for _ in range(count):
        cluster.join_node(
            Point(rng.uniform(1, 63), rng.uniform(1, 63)), capacity=10
        )
    cluster.settle(60)
    for node in cluster.nodes.values():
        for timer in node._timers:
            timer.cancel()
    cluster.scheduler.run_all()
    return cluster


def primaries(cluster):
    return [n for n in cluster.nodes.values() if n.alive and n.is_primary()]


def neighbor_pair(cluster):
    """A primary and a primary neighbor it holds in its table."""
    by_address = {n.address: n for n in primaries(cluster)}
    for node in primaries(cluster):
        for info in node.neighbor_table.values():
            sender = by_address.get(info.primary)
            if sender is not None and sender.owned.rect == info.rect:
                return node, sender
    raise AssertionError("no primary neighbor pair")


def beat_from(cluster, sender, receiver):
    """The heartbeat ``sender``'s next tick addresses to ``receiver``."""
    sent = sends_during(cluster, sender._send_neighbor_heartbeats)
    return next(
        body for _, dest, kind, body in sent
        if kind == m.HEARTBEAT and dest == receiver.address
    )


def deliver(cluster, sender, receiver, body):
    receiver._receive(
        Message(
            source=sender.address,
            destination=receiver.address,
            kind=m.HEARTBEAT,
            body=body,
            sent_at=cluster.scheduler.now,
        )
    )


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestReplay:
    def test_unchanged_epoch_replays_without_geometry(self, monkeypatch):
        """(a) A repeated beat runs no shortcut learning and no adjacency
        test, yet re-stamps the claims it witnessed."""
        cluster = quiet_cluster()
        node, sender = neighbor_pair(cluster)
        body = beat_from(cluster, sender, node)
        assert body.epoch > 0
        deliver(cluster, sender, node, body)  # full fold, memo stored
        now = cluster.scheduler.now
        claim = node._claims_heard[sender.owned.rect][0]
        node._claims_heard[sender.owned.rect] = (claim, now - 3.0)
        learned = count_calls(monkeypatch, node, "_learn_shortcut")
        adjacency = count_calls(monkeypatch, Rect, "is_neighbor_of")
        deliver(cluster, sender, node, body)
        assert learned == []
        assert adjacency == []
        assert node._claims_heard[sender.owned.rect][1] == now

    def test_dropped_adjacent_entry_readopted_next_beat(self):
        """(b) Self-heal still takes one beat: the drop moves the view,
        so the unchanged advert is folded in full again."""
        cluster = quiet_cluster()
        node, sender = neighbor_pair(cluster)
        body = beat_from(cluster, sender, node)
        deliver(cluster, sender, node, body)
        gossiped = [
            info.rect for info in body.neighbors
            if info.rect in node.neighbor_table
            and node.owned.rect.is_neighbor_of(info.rect)
        ]
        rect = gossiped[0] if gossiped else sender.owned.rect
        node._table_drop(rect)
        assert rect not in node.neighbor_table
        deliver(cluster, sender, node, body)
        assert rect in node.neighbor_table

    def test_rival_streams_keep_confronting(self):
        """(c) Two unchanged streams claiming one far rect for different
        primaries keep producing ``claim_confront`` past the horizon."""
        cluster = quiet_cluster(count=16, seed=47)
        by_address = {n.address: n for n in primaries(cluster)}
        witness, senders = None, []
        for node in primaries(cluster):
            senders = [
                by_address[info.primary]
                for info in node.neighbor_table.values()
                if info.primary in by_address
            ]
            if len(senders) >= 2:
                witness = node
                break
        assert witness is not None
        a, b = senders[:2]
        known = [witness.owned.rect, *witness.neighbor_table]
        rect = next(
            r for r in (n.owned.rect for n in primaries(cluster))
            if not any(r.touches(k) for k in known)
        )
        p1, p2 = synthetic_address(901), synthetic_address(902)

        def stream(sender, primary, epoch):
            body = beat_from(cluster, sender, witness)
            neighbors = body.neighbors + (
                m.NeighborInfo(rect=rect, primary=primary),
            )
            return m.HeartbeatBody(
                rect=body.rect, role="primary", secondary=body.secondary,
                neighbors=neighbors, caretaken=body.caretaken, epoch=epoch,
            )

        beat_a, beat_b = stream(a, p1, 10_001), stream(b, p2, 20_001)
        start = cluster.scheduler.now
        confronts = []

        def feed(sender, body):
            sent = sends_during(
                cluster, lambda: deliver(cluster, sender, witness, body)
            )
            confronts.extend(
                (cluster.scheduler.now, dest) for _, dest, kind, sent_body
                in sent
                if kind == m.NEIGHBOR_UPDATE and sent_body.info.rect == rect
            )

        for k in range(12):
            at = start + 1.0 + k * HEARTBEAT_INTERVAL
            cluster.scheduler.at(at, lambda: feed(a, beat_a))
            cluster.scheduler.at(at + 0.5, lambda: feed(b, beat_b))
        cluster.scheduler.run_all()
        late = [dest for at, dest in confronts if at > start + 2 * FAILURE_HORIZON]
        assert {p1, p2} <= set(late)

    def test_probing_fold_repeats(self):
        """(d) A fold that sent a confrontation probe sends it again on the
        next beat with the same epoch."""
        cluster = quiet_cluster()
        node, sender = neighbor_pair(cluster)
        body = beat_from(cluster, sender, node)
        rival = synthetic_address(903)
        # A new advert (it gossips a rival claim to the receiver's own
        # ground, at the receiver's stamp), hence a new epoch.
        body = m.HeartbeatBody(
            rect=body.rect, role="primary", secondary=body.secondary,
            neighbors=body.neighbors + (
                m.NeighborInfo(
                    rect=node.owned.rect, primary=rival,
                    stamp=node.owned.stamp,
                ),
            ),
            caretaken=body.caretaken, epoch=body.epoch + 1,
        )
        for _ in range(2):
            sent = sends_during(
                cluster, lambda: deliver(cluster, sender, node, body)
            )
            probes = [
                dest for _, dest, kind, _ in sent
                if kind == m.HEARTBEAT and dest == rival
            ]
            assert probes == [rival]


class TestEpoch:
    def test_epoch_bumps_iff_advert_changes(self):
        """(e) Sender side: same advert, same epoch; any change bumps."""
        cluster = quiet_cluster()
        node, sender = neighbor_pair(cluster)
        first = beat_from(cluster, sender, node).epoch
        assert beat_from(cluster, sender, node).epoch == first
        hole = Rect(100, 100, 1, 1)
        sender._caretake(hole)
        assert beat_from(cluster, sender, node).epoch == first + 1
        assert beat_from(cluster, sender, node).epoch == first + 1
        sender._release_hole(hole)
        assert beat_from(cluster, sender, node).epoch == first + 2

    def test_unstamped_beats_always_fold(self, monkeypatch):
        """(e) ``epoch=0`` beats (probes, perimeter replies) fold in full
        even when a memo for their sender exists."""
        cluster = quiet_cluster()
        node, sender = neighbor_pair(cluster)
        stamped = beat_from(cluster, sender, node)
        deliver(cluster, sender, node, stamped)
        assert sender.address in node._fold_memos
        unstamped = m.HeartbeatBody(
            rect=stamped.rect, role="primary", secondary=stamped.secondary,
            neighbors=stamped.neighbors, caretaken=stamped.caretaken,
        )
        assert unstamped.epoch == 0
        adjacency = count_calls(monkeypatch, Rect, "is_neighbor_of")
        for _ in range(2):
            adjacency.clear()
            deliver(cluster, sender, node, unstamped)
            assert adjacency


class TestOverlapInvariant:
    def test_no_shortcut_overlaps_a_neighbor_rect(self):
        """(f) Across a seeded n=64 run -- joins, lookups, a crash -- no
        cache ever holds a rect overlapping one of its table's rects."""
        cluster = ProtocolCluster(BOUNDS, seed=64)
        rng = random.Random(64)
        violations = []

        def check():
            for node in cluster.nodes.values():
                if not node.alive:
                    continue
                for entry in node.shortcuts.entries():
                    for rect in node.neighbor_table:
                        if entry.rect.intersects(rect):
                            violations.append((node.address, entry, rect))

        for _ in range(64):
            cluster.join_node(
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
                capacity=rng.choice([1.0, 10.0, 100.0]),
            )
            check()
        ids = [n.node.node_id for n in cluster.nodes.values()]
        for step in range(60):
            if step == 20:
                cluster.crash_node(ids[7])
            for _ in range(4):
                origin = rng.choice(ids)
                if cluster.nodes[origin].alive:
                    cluster.nodes[origin].send_to_point(
                        Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                        payload=None,
                    )
            cluster.run_for(1.0)
            check()
        assert sum(len(n.shortcuts) for n in cluster.nodes.values()) > 0
        assert violations == []


class TestSuspicion:
    def test_silent_primary_with_secondary_suspected_once(self, monkeypatch):
        """An entry whose primary went silent but whose secondary is set
        stays in the table (the secondary will take over); the sweep must
        invalidate its shortcuts once, not on every tick, and routing
        must keep avoiding the silent primary."""
        cluster = quiet_cluster()
        node, sender = neighbor_pair(cluster)
        rect = sender.owned.rect
        silent = sender.address
        backup = synthetic_address(904)
        node._table_put(m.NeighborInfo(
            rect=rect, primary=silent, secondary=backup,
            stamp=sender.owned.stamp,
        ))
        node.last_seen[silent] = cluster.scheduler.now - 1_000.0
        invalidated = count_calls(
            monkeypatch, node.shortcuts, "invalidate_address"
        )
        for _ in range(5):
            node._check_failures()
        assert [args for args in invalidated if args == (silent,)] == [
            (silent,)
        ]
        assert silent in node.suspected
        assert rect in node.neighbor_table
        target = rect.center
        body = m.RouteBody(
            origin=node.address, target=target, payload=None,
            request_id=424_242,
        )
        node.shortcuts.clear()
        sent = sends_during(
            cluster, lambda: node._route_forward(m.ROUTE, body, target)
        )
        destinations = [dest for _, dest, _, _ in sent]
        assert destinations == [backup]
