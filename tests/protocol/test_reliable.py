"""Tests for repro.protocol.reliable -- the reliable-exchange layer."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.core.node import NodeAddress
from repro.protocol import messages as m
from repro.protocol import ProtocolCluster
from repro.protocol.reliable import (
    ReliableChannel,
    RetryPolicy,
    tally_stats,
)
from repro.sim.scheduler import EventScheduler
from repro.sim.transport import Message, SimNetwork

BOUNDS = Rect(0, 0, 64, 64)


class Harness:
    """Two endpoints wired through real channels over the sim transport."""

    def __init__(self, policy=None, dedup_capacity=1024):
        self.scheduler = EventScheduler()
        self.network = SimNetwork(self.scheduler, rng=random.Random(5))
        self.delivered = []
        self.a = NodeAddress("10.0.0.1", 7000)
        self.b = NodeAddress("10.0.0.2", 7000)
        self.sender = ReliableChannel(
            address=self.a,
            network=self.network,
            scheduler=self.scheduler,
            rng=random.Random(7),
            default_policy=policy or RetryPolicy(jitter=0.0),
        )
        self.receiver = ReliableChannel(
            address=self.b,
            network=self.network,
            scheduler=self.scheduler,
            rng=random.Random(8),
            dedup_capacity=dedup_capacity,
        )
        self.network.register(self.a, Point(1, 1), self._on_a)
        self.network.register(self.b, Point(2, 2), self._on_b)

    def _on_a(self, message):
        if message.kind == m.RELIABLE_ACK:
            self.sender.on_ack(message.source, message.body.nonce)

    def _on_b(self, message):
        if message.kind == m.RELIABLE:
            self.receiver.on_receive(
                message,
                lambda kind, body, envelope: self.delivered.append(
                    (kind, body)
                ),
            )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(timeout=4.0, backoff=2.0, max_timeout=10.0)
        assert policy.attempt_timeout(1) == 4.0
        assert policy.attempt_timeout(2) == 8.0
        assert policy.attempt_timeout(3) == 10.0  # capped

    def test_per_class_policy_lookup(self):
        special = RetryPolicy(timeout=1.0, max_attempts=2, jitter=0.0)
        channel = Harness().sender
        channel.policies["special"] = special
        assert channel.policy_for("special") is special
        assert channel.policy_for("other") is channel.default_policy


class TestExchange:
    def test_delivery_and_ack(self):
        h = Harness()
        h.sender.send(h.b, "ping", {"x": 1})
        h.scheduler.run_until(5.0)
        assert h.delivered == [("ping", {"x": 1})]
        assert h.sender.stats.sent == 1
        assert h.sender.stats.acked == 1
        assert h.sender.pending_count() == 0

    def test_retry_heals_transient_loss(self):
        h = Harness()
        h.network.block_one_way(h.a, h.b)
        h.sender.send(h.b, "ping", "payload")
        h.scheduler.run_until(5.0)
        assert h.delivered == []
        h.network.unblock_one_way(h.a, h.b)
        h.scheduler.run_until(60.0)
        assert h.delivered == [("ping", "payload")]
        assert h.sender.stats.retries >= 1
        assert h.sender.stats.acked == 1

    def test_dead_letter_after_budget(self):
        gave_up = []
        h = Harness(policy=RetryPolicy(timeout=2.0, max_attempts=3, jitter=0.0))
        h.network.block_one_way(h.a, h.b)
        h.sender.send(
            h.b, "ping", "doomed", on_give_up=lambda: gave_up.append(True)
        )
        h.scheduler.run_until(120.0)
        assert gave_up == [True]
        assert h.sender.stats.dead_lettered == 1
        assert h.sender.pending_count() == 0
        letter = h.sender.dead_letters[-1]
        assert letter.kind == "ping"
        assert letter.destination == h.b
        assert letter.attempts == 3

    def test_lost_ack_retransmit_deduplicated(self):
        # Acks from b never reach a: every retransmit arrives at b, but
        # the inner message must be dispatched exactly once.
        h = Harness(policy=RetryPolicy(timeout=2.0, max_attempts=3, jitter=0.0))
        h.network.block_one_way(h.b, h.a)
        h.sender.send(h.b, "ping", "once")
        h.scheduler.run_until(120.0)
        assert h.delivered == [("ping", "once")]
        assert h.receiver.stats.duplicates == 2
        assert h.sender.stats.dead_lettered == 1  # acks never arrived

    def test_on_ack_callback_fires(self):
        acked = []
        h = Harness()
        h.sender.send(h.b, "ping", None, on_ack=lambda: acked.append(True))
        h.scheduler.run_until(5.0)
        assert acked == [True]

    def test_stray_ack_counted(self):
        h = Harness()
        h.sender.on_ack(h.b, 999)
        assert h.sender.stats.stray_acks == 1

    def test_ack_from_wrong_endpoint_ignored(self):
        h = Harness()
        nonce = h.sender.send(h.b, "ping", None)
        other = NodeAddress("10.0.0.9", 7000)
        h.sender.on_ack(other, nonce)
        assert h.sender.stats.stray_acks == 1
        assert h.sender.pending_count() == 1  # still armed for the real ack

    def test_cancel_all_drops_pending_without_dead_letters(self):
        h = Harness()
        h.network.block_one_way(h.a, h.b)
        h.sender.send(h.b, "ping", None)
        h.sender.cancel_all()
        h.scheduler.run_until(120.0)
        assert h.sender.stats.dead_lettered == 0
        assert h.sender.pending_count() == 0

    def test_dedup_lru_is_bounded(self):
        h = Harness(dedup_capacity=2)
        source = h.a
        for nonce in (1, 2, 3):
            h.receiver.on_receive(
                Message(
                    source=source,
                    destination=h.b,
                    kind=m.RELIABLE,
                    body=m.ReliableBody(nonce=nonce, kind="k", body=None),
                    sent_at=0.0,
                ),
                lambda kind, body, envelope: None,
            )
        # Nonce 1 was evicted from the LRU, so its retransmit re-dispatches
        # (acceptable: the window only has to cover in-flight retries).
        assert len(h.receiver._seen) == 2
        assert (source, 1) not in h.receiver._seen

    def test_tally_stats_sums_channels(self):
        h = Harness()
        h.sender.send(h.b, "ping", None)
        h.scheduler.run_until(5.0)
        totals = tally_stats([h.sender, h.receiver])
        assert totals["sent"] == 1
        assert totals["acked"] == 1
        assert totals["dead_lettered"] == 0


class TestProtocolIntegration:
    def test_departure_handoff_survives_one_way_loss(self):
        """A draining departure retries its DEPART until the peer acks,
        even when the forward path is eating messages for a while."""
        cluster = ProtocolCluster(BOUNDS, seed=3)
        rng = random.Random(3)
        for _ in range(6):
            cluster.join_node(
                Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                capacity=10,
            )
        cluster.settle(40)
        leaver = next(
            n for n in cluster.nodes.values()
            if n.alive and n.is_primary() and n.owned.peer is not None
        )
        peer_address = leaver.owned.peer
        rect = leaver.owned.rect
        cluster.store_update(
            leaver.node.node_id, "obj-handoff", rect.center, version=1
        )
        cluster.settle(10)
        # Eat the first DEPART attempts; heal inside the retry budget.
        cluster.network.block_one_way(leaver.address, peer_address)
        leaver.depart()
        cluster.run_for(6.0)
        cluster.network.heal_partitions()
        cluster.settle(120)
        survivor = next(
            n for n in cluster.nodes.values()
            if n.alive and n.address == peer_address
        )
        assert survivor.is_primary()
        assert any(
            record.object_id == "obj-handoff"
            for record in survivor.owned.store.records()
        )

    def test_grant_rides_reliable_channel(self):
        """Joins succeed under heavy loss because grants retransmit."""
        cluster = ProtocolCluster(BOUNDS, seed=9, drop_probability=0.10)
        rng = random.Random(9)
        for _ in range(8):
            cluster.join_node(
                Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                capacity=10,
            )
        cluster.settle(60)
        stats = tally_stats(
            node.reliable for node in cluster.nodes.values()
        )
        assert stats["acked"] > 0
