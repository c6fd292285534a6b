"""The adaptive routing shortcut cache on the protocol layer.

Unit coverage for :class:`repro.protocol.shortcuts.ShortcutCache` plus
message-level behavior: passive learning from return paths and gossip,
the MISROUTE NACK repair of a poisoned entry, eager invalidation on
partition changes, caretaker-hole advertisement, and a seeded churn
property at 1% message loss.
"""

import math
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import synthetic_address
from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m
from repro.protocol.node import CHECK_INTERVAL, FAILURE_HORIZON
from repro.protocol.shortcuts import ShortcutCache
from repro.sim.latency import DistanceLatency
from repro.sim.transport import Message

BOUNDS = Rect(0, 0, 64, 64)


def info(rect, primary_id, secondary_id=None):
    return m.NeighborInfo(
        rect=rect,
        primary=synthetic_address(primary_id),
        secondary=(
            synthetic_address(secondary_id)
            if secondary_id is not None
            else None
        ),
    )


class TestShortcutCacheUnit:
    def test_learn_and_get(self):
        cache = ShortcutCache()
        entry = info(Rect(0, 0, 8, 8), 1)
        assert cache.learn(entry) is True
        assert cache.get(Rect(0, 0, 8, 8)) == entry
        assert Rect(0, 0, 8, 8) in cache
        assert len(cache) == 1

    def test_relearn_same_entry_reports_no_change(self):
        cache = ShortcutCache()
        entry = info(Rect(0, 0, 8, 8), 1)
        cache.learn(entry)
        assert cache.learn(entry) is False
        assert cache.learn(info(Rect(0, 0, 8, 8), 2)) is True

    def test_capacity_evicts_least_recently_used(self):
        cache = ShortcutCache(capacity=2)
        a, b, c = (
            info(Rect(i * 10, 0, 8, 8), i + 1) for i in range(3)
        )
        cache.learn(a)
        cache.learn(b)
        cache.touch(a.rect)  # b is now least recently used
        cache.learn(c)
        assert a.rect in cache and c.rect in cache and b.rect not in cache

    def test_capacity_zero_disables(self):
        """There is no disabled cache: capacity zero is refused outright."""
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            ShortcutCache(capacity=0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ShortcutCache(capacity=-1)

    def test_new_rect_replaces_overlapping_entries(self):
        """A post-split/merge claim supersedes stale overlapping ones."""
        cache = ShortcutCache()
        cache.learn(info(Rect(0, 0, 16, 16), 1))
        cache.learn(info(Rect(0, 0, 8, 8), 2))  # a split half
        assert Rect(0, 0, 16, 16) not in cache
        assert cache.get(Rect(0, 0, 8, 8)).primary == synthetic_address(2)

    def test_invalidate_rect(self):
        cache = ShortcutCache()
        cache.learn(info(Rect(0, 0, 8, 8), 1))
        assert cache.invalidate_rect(Rect(0, 0, 8, 8)) is True
        assert cache.invalidate_rect(Rect(0, 0, 8, 8)) is False

    def test_invalidate_overlapping(self):
        cache = ShortcutCache()
        cache.learn(info(Rect(0, 0, 8, 8), 1))
        cache.learn(info(Rect(20, 20, 8, 8), 2))
        assert cache.invalidate_overlapping(Rect(4, 4, 30, 30)) == 2
        assert len(cache) == 0

    def test_invalidate_address_drops_primary_entries(self):
        cache = ShortcutCache()
        cache.learn(info(Rect(0, 0, 8, 8), 1))
        cache.learn(info(Rect(20, 20, 8, 8), 2, secondary_id=1))
        assert cache.invalidate_address(synthetic_address(1)) == 1
        assert Rect(0, 0, 8, 8) not in cache
        # The entry naming it only as secondary survives, demoted.
        survivor = cache.get(Rect(20, 20, 8, 8))
        assert survivor.secondary is None

    def test_clear(self):
        cache = ShortcutCache()
        cache.learn(info(Rect(0, 0, 8, 8), 1))
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_best_requires_strict_progress(self):
        cache = ShortcutCache()
        near = info(Rect(30, 30, 8, 8), 1)
        far = info(Rect(0, 0, 8, 8), 2)
        cache.learn(near)
        cache.learn(far)
        target = Point(34, 34)
        assert cache.best(target, better_than=1.0) == near
        # Nothing strictly beats a zero bound.
        assert cache.best(target, better_than=0.0) is None

    def test_best_of_empty_cache(self):
        assert ShortcutCache().best(Point(1, 1), better_than=100.0) is None

    def test_best_keeps_the_first_of_equal_distances(self):
        """Mirror-image rects tie exactly; the earlier entry wins."""
        cache = ShortcutCache(8)
        left = info(Rect(0, 10, 4, 4), 1)
        right = info(Rect(16, 10, 4, 4), 2)
        cache.learn(left)
        cache.learn(right)
        assert cache.best(Point(10, 12), better_than=100.0) == left
        cache.touch(left.rect)
        assert cache.best(Point(10, 12), better_than=100.0) == right


class ReferenceCache:
    """The cache as an ``OrderedDict`` LRU with the plain distance scan:
    what :class:`ShortcutCache` must keep deciding, entry for entry."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()

    def learn(self, entry):
        existing = self.entries.get(entry.rect)
        if existing is not None:
            self.entries[entry.rect] = entry
            self.entries.move_to_end(entry.rect)
            return existing != entry
        for rect in [r for r in self.entries if r.intersects(entry.rect)]:
            del self.entries[rect]
        self.entries[entry.rect] = entry
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return True

    def touch(self, rect):
        if rect in self.entries:
            self.entries.move_to_end(rect)

    def refresh(self, entry):
        if self.entries.get(entry.rect) != entry:
            return False
        self.entries.move_to_end(entry.rect)
        return True

    def invalidate_rect(self, rect):
        return self.entries.pop(rect, None) is not None

    def invalidate_overlapping(self, rect):
        stale = [r for r in self.entries if r == rect or r.intersects(rect)]
        for r in stale:
            del self.entries[r]
        return len(stale)

    def invalidate_address(self, address):
        removed = 0
        for rect in list(self.entries):
            entry = self.entries[rect]
            if entry.primary == address:
                del self.entries[rect]
                removed += 1
            elif entry.secondary == address:
                self.entries[rect] = entry.with_secondary(None)
        return removed

    @staticmethod
    def distance(rect, point):
        dx = max(rect.x - point.x, 0.0, point.x - rect.x2)
        dy = max(rect.y - point.y, 0.0, point.y - rect.y2)
        return (dx * dx + dy * dy) ** 0.5

    def best(self, target, better_than, eps=1e-12):
        best_entry, best_dist = None, better_than - eps
        for rect, entry in self.entries.items():
            distance = self.distance(rect, target)
            if distance < best_dist:
                best_entry, best_dist = entry, distance
        return best_entry


class TestMatchesReferenceCache:
    """Seeded random operation sequences through the cache and through
    :class:`ReferenceCache`: every return value, ``best()`` pick,
    ``entries()`` list and eviction order must agree.  (``refresh`` is
    the fold-replay shorthand for ``touch`` when ``get`` equals.)"""

    @staticmethod
    def random_rect(rng):
        # Quadtree cells of a 64 x 64 space, so learns overlap and evict.
        size = 64.0 / 2 ** rng.randint(2, 5)
        return Rect(
            size * rng.randrange(int(64 / size)),
            size * rng.randrange(int(64 / size)), size, size,
        )

    @staticmethod
    def random_point(rng):
        # Cell corners and centres give many exactly equal distances.
        return Point(rng.randint(0, 32) * 2.0, rng.randint(0, 32) * 2.0)

    def bounds_for(self, ref, target, rng):
        """``better_than`` values around the cached distances: one that
        puts a candidate exactly at ``better_than - eps``, ties, and
        random and open bounds."""
        bounds = [(math.inf, 1e-12), (0.0, 1e-12), (rng.uniform(0, 40), 1e-12)]
        if ref.entries:
            rect = rng.choice(list(ref.entries))
            distance = ref.distance(rect, target)
            bounds.append((distance, 0.0))
            if (distance + 1e-12) - 1e-12 == distance:
                bounds.append((distance + 1e-12, 1e-12))
            bounds.append((distance + 1e-9, 1e-12))
        return bounds

    def check_state(self, cache, ref):
        assert cache.entries() == list(ref.entries.values())
        assert list(cache.rects()) == list(ref.entries)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_operation_sequences(self, seed):
        rng = random.Random(seed)
        capacity = rng.choice([1, 3, 8, 32])
        cache, ref = ShortcutCache(capacity), ReferenceCache(capacity)
        addresses = list(range(1, 7))
        picks = 0
        for _ in range(400):
            op = rng.random()
            if op < 0.4:
                entry = info(
                    self.random_rect(rng), rng.choice(addresses),
                    rng.choice([None, *addresses]),
                )
                assert cache.learn(entry) == ref.learn(entry)
            elif op < 0.5:
                known = list(ref.entries)
                rect = (
                    rng.choice(known) if known and rng.random() < 0.8
                    else self.random_rect(rng)
                )
                cache.touch(rect)
                ref.touch(rect)
            elif op < 0.55:
                # A cached entry, an equal copy of one, or a changed one.
                known = list(ref.entries.values())
                entry = (
                    rng.choice(known) if known
                    else info(self.random_rect(rng), 1)
                )
                entry = rng.choice([
                    entry, entry.with_secondary(entry.secondary),
                    entry.with_secondary(synthetic_address(99)),
                ])
                assert cache.refresh(entry) == ref.refresh(entry)
            elif op < 0.6:
                rect = self.random_rect(rng)
                assert cache.invalidate_rect(rect) == ref.invalidate_rect(rect)
            elif op < 0.65:
                rect = self.random_rect(rng)
                assert cache.invalidate_overlapping(rect) == (
                    ref.invalidate_overlapping(rect)
                )
            elif op < 0.7:
                address = synthetic_address(rng.choice(addresses))
                assert cache.invalidate_address(address) == (
                    ref.invalidate_address(address)
                )
            else:
                target = self.random_point(rng)
                for better_than, eps in self.bounds_for(ref, target, rng):
                    # No two entries share a rect, so equality pins
                    # which entry was picked.
                    got = cache.best(target, better_than, eps)
                    want = ref.best(target, better_than, eps)
                    assert got == want, (target, better_than, eps)
                    picks += want is not None
            self.check_state(cache, ref)
        assert picks > 0

    def test_candidate_at_the_bound_is_not_taken(self):
        cache, ref = ShortcutCache(4), ReferenceCache(4)
        entry = info(Rect(8, 0, 8, 8), 1)
        cache.learn(entry)
        ref.learn(entry)
        target = Point(4, 4)
        distance = ref.distance(entry.rect, target)
        assert distance == 4.0
        for better_than, eps in ((4.0, 0.0), (4.0 + 1e-12, 1e-12)):
            assert better_than - eps == distance
            assert cache.best(target, better_than, eps) is None
            assert ref.best(target, better_than, eps) is None
        assert cache.best(target, math.nextafter(4.0, 5.0), 0.0) is entry

    def test_equal_distances_keep_the_lru_first(self):
        """Four cells around one point tie exactly; the pick follows LRU
        order through touches and re-learns."""
        cache, ref = ShortcutCache(8), ReferenceCache(8)
        target = Point(16, 16)
        cells = [
            info(Rect(x, y, 4, 4), n)
            for n, (x, y) in enumerate(
                [(20, 20), (8, 20), (8, 8), (20, 8)], 1
            )
        ]
        for entry in cells:
            cache.learn(entry)
            ref.learn(entry)
        for rect in [cells[0].rect, cells[2].rect, cells[1].rect]:
            assert cache.best(target, 100.0) is ref.best(target, 100.0)
            cache.touch(rect)
            ref.touch(rect)
        assert cache.best(target, 100.0) is cells[3]
        self.check_state(cache, ref)


def build_cluster(count=10, seed=11, drop=0.0, latency=None):
    cluster = ProtocolCluster(
        BOUNDS, seed=seed, latency=latency, drop_probability=drop
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


class TestPassiveLearning:
    def test_traffic_populates_caches(self):
        """Routed lookups plus gossip leave shortcut entries behind
        without any dedicated cache-fill messages."""
        cluster, nodes, rng = build_cluster(count=12)
        for _ in range(20):
            origin = rng.choice(nodes)
            cluster.lookup(
                origin.node.node_id,
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
            )
        assert any(len(n.shortcuts) > 0 for n in nodes if n.alive)

    def test_entries_are_structurally_consistent(self):
        cluster, nodes, rng = build_cluster(count=12)
        for _ in range(20):
            origin = rng.choice(nodes)
            cluster.lookup(
                origin.node.node_id,
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
            )
        for node in nodes:
            if not node.alive or node.owned is None:
                continue
            for entry in node.shortcuts.entries():
                assert entry.primary != node.address
                assert not entry.rect.intersects(node.owned.rect)
                assert entry.rect not in node.neighbor_table

    def test_origin_learns_executor_region_from_delivery_ack(self):
        cluster, nodes, _ = build_cluster(count=12)
        origin = nodes[0]
        origin.shortcuts.clear()
        target = Point(63, 63)
        ack = cluster.lookup(origin.node.node_id, target)
        assert ack.region is not None
        if ack.executor != origin.address and not ack.region.is_neighbor_of(
            origin.owned.rect
        ):
            assert origin.shortcuts.get(ack.region) is not None


class TestMisrouteRepair:
    """Hand-deliver a SHORTCUT_HOP so the receiver's serve/progress/NACK
    decision -- and the sender-side cache repair -- is deterministic,
    free of background timer traffic polluting the counters."""

    def poisoned_pair(self):
        cluster, nodes, rng = build_cluster(count=10, seed=23)
        origin = next(n for n in nodes if n.alive and n.is_primary())
        victim = max(
            (
                n
                for n in nodes
                if n.alive
                and n.is_primary()
                and n.address != origin.address
            ),
            key=lambda n: n.owned.rect.center.distance_to(
                origin.owned.rect.center
            ),
        )
        return cluster, origin, victim

    def deliver_hop(self, cluster, origin, victim, target, sender_distance):
        body = m.RouteBody(
            origin=origin.address,
            target=target,
            payload=None,
            request_id=987_654,
            hops=1,
        )
        envelope = m.ShortcutHopBody(
            kind=m.ROUTE,
            body=body,
            target=target,
            claimed_rect=Rect(
                target.x - 0.25, target.y - 0.25, 0.5, 0.5
            ),
            sender_distance=sender_distance,
        )
        origin.shortcuts.clear()
        origin.shortcuts.learn(
            m.NeighborInfo(rect=envelope.claimed_rect, primary=victim.address)
        )
        victim._on_shortcut_hop(
            Message(
                source=origin.address,
                destination=victim.address,
                kind=m.SHORTCUT_HOP,
                body=envelope,
                sent_at=0.0,
            )
        )
        cluster.settle(10)
        return envelope.claimed_rect

    def test_useless_hop_bounces_and_repairs_senders_cache(self):
        """No serve, no progress: the receiver NACKs, the sender drops
        the stale entry and counts a repair."""
        cluster, origin, victim = self.poisoned_pair()
        # Target inside the origin's own region: the victim cannot serve
        # it, and (sender_distance=0) cannot make progress either.
        target = origin.owned.rect.center
        claimed = self.deliver_hop(
            cluster, origin, victim, target, sender_distance=0.0
        )
        assert origin.shortcuts.repairs == 1
        assert claimed not in origin.shortcuts

    def test_nack_teaches_the_receivers_actual_claim(self):
        cluster, origin, victim = self.poisoned_pair()
        target = origin.owned.rect.center
        self.deliver_hop(cluster, origin, victim, target, sender_distance=0.0)
        if not victim.owned.rect.is_neighbor_of(origin.owned.rect):
            learned = origin.shortcuts.get(victim.owned.rect)
            assert learned is not None
            assert learned.primary == victim.address

    def test_hop_with_progress_is_served_not_bounced(self):
        """A stale-rect hop that still makes strict progress keeps
        routing instead of NACKing: staleness alone never costs a
        round-trip when the hop helped."""
        cluster, origin, victim = self.poisoned_pair()
        target = victim.owned.rect.center
        claimed = self.deliver_hop(
            cluster, origin, victim, target, sender_distance=1_000.0
        )
        assert origin.shortcuts.repairs == 0
        # No NACK came back.  The fictional claimed rect may still have
        # been *superseded* -- the delivery ack teaches the executor's
        # real region, which overlap-evicts it -- but never repaired.
        if claimed not in origin.shortcuts:
            assert any(
                entry.rect.intersects(claimed)
                for entry in origin.shortcuts.entries()
            )


class TestEagerInvalidation:
    def test_crash_of_cached_primary_purges_entries(self):
        """Suspicion of a node drops shortcut entries routed through it."""
        cluster, nodes, rng = build_cluster(count=10, seed=29)
        for _ in range(20):
            origin = rng.choice(nodes)
            cluster.lookup(
                origin.node.node_id,
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
            )
        victim = next(
            n for n in reversed(nodes) if n.alive and n.is_primary()
        )
        cluster.crash_node(victim.node.node_id)
        cluster.settle(90)
        for node in nodes:
            if not node.alive or node.owned is None:
                continue
            for entry in node.shortcuts.entries():
                assert entry.primary != victim.address

    def test_join_split_invalidates_overlapping_entries(self):
        """A partition change heard via announcements evicts overlapping
        cached claims instead of waiting for a MISROUTE."""
        cluster, nodes, rng = build_cluster(count=8, seed=31)
        for _ in range(16):
            origin = rng.choice(nodes)
            cluster.lookup(
                origin.node.node_id,
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
            )
        joiner = cluster.join_node(Point(40, 40), capacity=100)
        cluster.settle(60)
        # Wherever the joiner landed, no cache may still hold a claim for
        # a rect overlapping its region under a *different* primary with
        # the split announcement fully propagated.
        for node in cluster.nodes.values():
            if not node.alive or node.owned is None:
                continue
            for entry in node.shortcuts.entries():
                if entry.rect == joiner.owned.rect:
                    assert entry.primary in (
                        joiner.address,
                        joiner.owned.peer,
                    )


class TestCaretakerAdvertisement:
    def test_heartbeats_advertise_caretaken_holes_as_shortcuts(self):
        """A hole has no owner to heartbeat it into neighbor tables; the
        caretaker's advertisement is cached so routing toward the hole
        finds the node serving it."""
        config = NodeConfig(dual_peer=False)
        cluster = ProtocolCluster(BOUNDS, seed=3, config=config)
        quadrants = [(16, 16), (48, 16), (16, 48), (48, 48)]
        nodes = [cluster.join_node(Point(x, y)) for x, y in quadrants]
        cluster.settle(40)
        victim = next(
            n
            for n in nodes
            if n.alive and n.owned.rect.covers(Point(48, 48))
        )
        hole = victim.owned.rect
        cluster.crash_node(victim.node.node_id)
        cluster.settle(90)
        caretakers = {
            n.address
            for n in cluster.nodes.values()
            if n.alive and hole in n.caretaker_rects
        }
        assert caretakers, "somebody must caretake the crashed quadrant"
        cached = [
            n.shortcuts.get(hole)
            for n in cluster.nodes.values()
            if n.alive and n.owned is not None
        ]
        assert any(
            entry is not None and entry.primary in caretakers
            for entry in cached
        )


def sends_during(cluster, action):
    """The ``(source, destination, kind, body)`` sends ``action`` makes."""
    sent = []
    original = cluster.network.send
    cluster.network.send = lambda *args, **kwargs: (
        sent.append(args), original(*args, **kwargs)
    )
    try:
        action()
    finally:
        cluster.network.send = original
    return sent


def primary_with_secondary(nodes):
    return next(
        n for n in nodes
        if n.alive and n.is_primary() and n.owned.peer is not None
        and n.neighbor_table
    )


class TestStaleRoutingState:
    """Routing state naming a node that can no longer serve the claim."""

    def test_gossip_leaves_out_suspected_primaries(self):
        """A far node cannot tell a suspected primary from a live one, so
        heartbeats relay only the claims their sender believes live."""
        cluster, nodes, _ = build_cluster(count=10, seed=41)
        node = next(
            n for n in nodes
            if n.alive and n.is_primary() and len(n.neighbor_table) >= 2
        )
        gone = next(iter(node.neighbor_table.values())).primary
        node.suspected.add(gone)
        sent = sends_during(cluster, node._send_neighbor_heartbeats)
        beats = [body for _, _, kind, body in sent if kind == m.HEARTBEAT]
        assert beats
        live = [
            info for info in node.neighbor_table.values()
            if info.primary != gone
        ]
        for beat in beats:
            assert list(beat.neighbors) == live

    def test_request_never_forwarded_to_own_secondary(self):
        """A secondary relays every request to its primary, so a stale
        neighbor entry naming our own secondary would bounce a request
        between the two forever."""
        cluster, nodes, _ = build_cluster(count=10, seed=41)
        node = primary_with_secondary(nodes)
        node.shortcuts.clear()
        rect, entry = next(iter(node.neighbor_table.items()))
        peer = node.owned.peer
        node._table_put(
            m.NeighborInfo(rect=rect, primary=peer, stamp=entry.stamp)
        )
        body = m.RouteBody(
            origin=node.address, target=rect.center, payload=None,
            request_id=123_456,
        )
        sent = sends_during(
            cluster, lambda: node._route_forward(m.ROUTE, body, rect.center)
        )
        assert all(destination != peer for _, destination, _, _ in sent)

    def test_entry_naming_own_secondary_becomes_a_hole(self):
        """Our secondary serves our region only: a neighbor claim naming
        it as primary is dead, so the failure sweep caretakes the
        region instead of waiting on a clock the peer heartbeats keep
        fresh."""
        cluster, nodes, _ = build_cluster(count=10, seed=41)
        node = primary_with_secondary(nodes)
        rect, entry = next(iter(node.neighbor_table.items()))
        node._table_put(m.NeighborInfo(
            rect=rect, primary=node.owned.peer, stamp=entry.stamp
        ))
        node._check_failures()
        assert rect not in node.neighbor_table
        assert rect in node.caretaker_rects

    def test_suspected_primary_backed_by_own_secondary_becomes_a_hole(self):
        """Nor can our secondary (or we) be promoted into another region:
        a suspected primary whose named secondary is ours leaves its
        region without an owner."""
        cluster, nodes, _ = build_cluster(count=10, seed=41)
        node = primary_with_secondary(nodes)
        rect, entry = next(iter(node.neighbor_table.items()))
        node._table_put(m.NeighborInfo(
            rect=rect, primary=entry.primary, secondary=node.owned.peer,
            stamp=entry.stamp,
        ))
        node.last_seen[entry.primary] = cluster.scheduler.now - 1_000.0
        node._check_failures()
        assert entry.primary in node.suspected
        assert rect not in node.neighbor_table
        assert rect in node.caretaker_rects


class TestUnansweredShortcut:
    """A first hop through a shortcut must be answered by the delivery
    ack within the failure timeout, or the entry goes: a departed or
    crashed endpoint drops the hop without a NACK."""

    def far_pair(self):
        cluster, nodes, _ = build_cluster(count=16, seed=47)
        primaries = [n for n in nodes if n.alive and n.is_primary()]

        def near(node):
            # Regions whose claims our neighbors relay to us.
            rects = set(node.neighbor_table)
            for other in primaries:
                if other.owned.rect in node.neighbor_table:
                    rects.update(other.neighbor_table)
            return rects

        for origin in primaries:
            for far in primaries:
                rect = far.owned.rect
                if far is not origin and all(
                    not rect.touches(r) for r in near(origin)
                ):
                    return cluster, origin, far
        raise AssertionError("no primary three hops from another")

    def route_through(self, cluster, origin, entry):
        origin.shortcuts.clear()
        origin.shortcuts.learn(entry)
        origin.send_to_point(entry.rect.center, None)
        cluster.run_for(FAILURE_HORIZON + 2 * CHECK_INTERVAL)

    def test_unanswered_first_hop_drops_the_entry(self):
        cluster, origin, far = self.far_pair()
        gone = m.NeighborInfo(
            rect=far.owned.rect, primary=synthetic_address(999)
        )
        self.route_through(cluster, origin, gone)
        assert origin.shortcuts.get(far.owned.rect) != gone

    def test_answered_first_hop_keeps_the_entry(self):
        cluster, origin, far = self.far_pair()
        live = m.NeighborInfo(rect=far.owned.rect, primary=far.address)
        self.route_through(cluster, origin, live)
        assert origin.shortcuts.get(far.owned.rect) == live


def churn_then_lookup(seed):
    """Seeded churn at 1% loss -- joins, a departure and a crash -- then
    six lookups, each of which must reach an executor serving its target
    (the protocol analogue of the model layer's executor-equivalence
    property)."""
    cluster = ProtocolCluster(
        BOUNDS,
        seed=seed,
        latency=DistanceLatency(),
        drop_probability=0.01,
    )
    rng = random.Random(seed)
    nodes = []
    for _ in range(8):
        nodes.append(
            cluster.join_node(
                Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                capacity=rng.choice([1, 10, 100]),
            )
        )
    cluster.settle(60)
    # Churn: two more joins, one graceful departure, one crash.
    for _ in range(2):
        nodes.append(
            cluster.join_node(
                Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                capacity=rng.choice([10, 100]),
            )
        )
    departer = next(
        n for n in nodes if n.alive and n.is_primary()
    )
    cluster.depart_node(departer.node.node_id)
    cluster.settle(30)
    victim = next(
        n for n in reversed(nodes) if n.alive and n.is_primary()
    )
    cluster.crash_node(victim.node.node_id)
    cluster.settle(90)
    origins = [n for n in nodes if n.alive and n.joined]
    for _ in range(6):
        target = Point(rng.uniform(1, 63), rng.uniform(1, 63))
        ack = cluster.lookup(
            rng.choice(origins).node.node_id, target, timeout=120.0
        )
        executor = next(
            n
            for n in cluster.nodes.values()
            if n.alive and n.address == ack.executor
        )
        rects = [executor.owned.rect] + list(executor.caretaker_rects)
        assert any(
            r.covers(target, closed_low_x=True, closed_low_y=True)
            or r.distance_to_point(target) < 1e-9
            for r in rects
        )


class TestChurnProperty:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_routing_correct_under_churn_and_loss(self, seed):
        """Seeded churn at 1% loss: joins, a departure, and a crash never
        stop shortcut-cached routing from reaching an executor that
        serves the target."""
        churn_then_lookup(seed)

    @pytest.mark.parametrize("seed", [2, 3, 12, 13, 47, 69, 72, 88, 90, 98])
    def test_routing_correct_at_formerly_failing_seeds(self, seed):
        """Seeds at which a lookup used to time out, every attempt sent
        through a shortcut to a node that had departed or crashed."""
        churn_then_lookup(seed)

    def test_miss_rate_falls_once_cache_converges(self):
        """On a stable partition the cache warms up: the second batch of
        identical traffic resolves more hops through shortcuts than the
        first."""
        cluster, nodes, rng = build_cluster(count=14, seed=37)
        for node in nodes:
            node.shortcuts.clear()  # settle-phase traffic pre-warms them
        pairs = [
            (
                rng.choice(nodes).node.node_id,
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
            )
            for _ in range(15)
        ]

        def run_batch():
            hits_before = sum(n.shortcuts.hits for n in nodes)
            total_before = hits_before + sum(
                n.shortcuts.misses for n in nodes
            )
            for origin_id, target in pairs:
                cluster.lookup(origin_id, target)
            hits = sum(n.shortcuts.hits for n in nodes) - hits_before
            total = (
                sum(n.shortcuts.hits + n.shortcuts.misses for n in nodes)
                - total_before
            )
            return hits / total if total else 0.0

        cold = run_batch()
        warm = run_batch()
        assert warm > cold
