"""The idle-tick sweeps match their unmemoized references.

Two per-tick sweeps skip their work while nothing relevant changed:

* ``_find_perimeter_gap`` remembers the ``(_view_epoch, rect)`` at which
  the neighbor table and caretaken holes alone covered the perimeter
  (shortcuts only add cover, so the answer is then ``None``);
* ``_check_failures`` rebuilds the claim ledger only once the lower
  bound ``_claims_oldest`` on its stamps leaves the failure horizon,
  skips its neighbor-table pass while ``(_view_epoch, owned.peer)`` is
  unchanged and the smallest ``last_seen`` of the table primaries is
  inside the horizon, and skips its stats-expiry pass while a lower
  bound on the stats timestamps is; its timer then sleeps through the
  ticks at which none of its guards can act.

The differential tests drive a live cluster through a crash and a join
and check every sweep against the full computation it replaces; the
invalidation test walks each view helper and the rect change that must
retire the perimeter memo.
"""

import math
import random

from repro.core.node import synthetic_address
from repro.geometry import Point, Rect
from repro.geometry.rect import perimeter_gap
from repro.protocol import ProtocolCluster
from repro.protocol import messages as m
from repro.protocol.failure import CHECK_INTERVAL, PEER_TIMEOUT
from repro.protocol.node import (
    FAILURE_HORIZON, HEARTBEAT_INTERVAL, ProtocolNode,
)
from tests.protocol.test_heartbeat_memo import (
    beat_from,
    deliver,
    neighbor_pair,
    quiet_cluster,
)
from tests.protocol.test_perimeter import (
    adjacent_primaries,
    blind,
    build_cluster,
)

SEED = 20070625
BOUNDS = Rect(0, 0, 64, 64)


def full_scan(node):
    """The unmemoized perimeter scan over every claim the node knows."""
    known = [info.rect for info in node.neighbor_table.values()]
    known.extend(node.caretaker_rects)
    known.extend(info.rect for info in node.shortcuts.entries())
    return perimeter_gap(node.owned.rect, node.bounds, known)


def build(count, seed=SEED):
    cluster = ProtocolCluster(BOUNDS, seed=seed)
    rng = random.Random(seed)
    for _ in range(count):
        cluster.join_node(
            Point(rng.uniform(1, 63), rng.uniform(1, 63)),
            capacity=rng.choice((1.0, 5.0, 10.0)),
        )
    return cluster, rng


def churn_run(cluster, rng):
    """200 t of routed traffic with one crash (t=50) and one join (t=100)."""
    ids = sorted(cluster.nodes)
    for step in range(200):
        if step == 50:
            victim = rng.choice(ids)
            cluster.crash_node(victim)
            ids.remove(victim)
        if step == 100:
            cluster.join_node(
                Point(rng.uniform(1, 63), rng.uniform(1, 63)), capacity=5.0
            )
        origin = cluster.nodes[rng.choice(ids)]
        origin.send_to_point(Point(rng.uniform(0, 64), rng.uniform(0, 64)), step)
        cluster.run_for(1.0)


def test_perimeter_memo_matches_full_scan(monkeypatch):
    original = ProtocolNode._find_perimeter_gap
    tally = {"memo_hits": 0, "gaps": 0, "calls": 0}

    def checked(self):
        if (self._view_epoch, self.owned.rect) == self._perimeter_covered:
            tally["memo_hits"] += 1
        result = original(self)
        tally["calls"] += 1
        tally["gaps"] += result is not None
        assert result == full_scan(self)
        return result

    monkeypatch.setattr(ProtocolNode, "_find_perimeter_gap", checked)
    cluster, rng = build(32)
    churn_run(cluster, rng)
    # Steady-state ticks answered from the memo.
    assert tally["memo_hits"] > tally["calls"] // 2
    # Gaps are rare in a healthy 32-node overlay (gossip heals a missing
    # adjacency before the next tick); a mutually blind pair with no
    # common neighbor keeps one open until the perimeter probe heals it,
    # which drives the full-scan branch.
    cluster = build_cluster()
    a, b = adjacent_primaries(cluster)
    blind(a, b.owned.rect, b.address)
    blind(b, a.owned.rect, a.address)
    cluster.settle(6 * HEARTBEAT_INTERVAL)
    assert tally["gaps"] > 0
    assert b.owned.rect in a.neighbor_table


def test_claim_ledger_expiry_matches_per_tick_rebuild(monkeypatch):
    original = ProtocolNode._check_failures
    tally = {"expired": 0, "checks": 0}

    def checked(self):
        now = self.scheduler.now
        before = self._claims_heard
        expected = before
        if self.alive and self.owned is not None:
            expected = {
                rect: claim for rect, claim in before.items()
                if now - claim[1] <= FAILURE_HORIZON
            }
        original(self)
        tally["checks"] += 1
        tally["expired"] += len(before) - len(expected)
        assert list(self._claims_heard.items()) == list(expected.items())
        assert all(
            claim[1] >= self._claims_oldest
            for claim in self._claims_heard.values()
        )

    monkeypatch.setattr(ProtocolNode, "_check_failures", checked)
    cluster, rng = build(32)
    churn_run(cluster, rng)
    assert tally["checks"] > 1000
    assert tally["expired"] > 0


def test_replayed_stamps_keep_the_bound_valid(monkeypatch):
    """A memoized fold replayed into an emptied ledger must lower the
    bound again, or its claims would never expire."""
    cluster = quiet_cluster()
    node, sender = neighbor_pair(cluster)
    body = beat_from(cluster, sender, node)
    deliver(cluster, sender, node, body)  # full fold, memo stored
    replays = []
    original = ProtocolNode._replay_fold

    def replay(self, memo):
        replays.append(original(self, memo))
        return replays[-1]

    monkeypatch.setattr(ProtocolNode, "_replay_fold", replay)

    def age_out():
        cluster.scheduler.run_all()
        cluster.scheduler.run_until(cluster.scheduler.now + FAILURE_HORIZON + 1.0)
        for address in node.last_seen:
            node.last_seen[address] = cluster.scheduler.now
        node._check_failures()

    age_out()
    assert node._claims_heard == {}
    assert node._claims_oldest == math.inf
    replays.clear()
    deliver(cluster, sender, node, body)
    assert replays == [True]
    assert node._claims_heard
    assert node._claims_oldest == cluster.scheduler.now
    age_out()
    assert node._claims_heard == {}


def shares_edge(a, b):
    """Whether ``b`` borders ``a`` along a stretch of positive length."""
    if a.x2 == b.x or b.x2 == a.x:
        return min(a.y2, b.y2) > max(a.y, b.y)
    if a.y2 == b.y or b.y2 == a.y:
        return min(a.x2, b.x2) > max(a.x, b.x)
    return False


def test_view_helpers_and_rect_changes_retire_the_memo():
    cluster, _ = build(16)
    cluster.settle(20)
    node = next(
        n for n in cluster.nodes.values()
        if n.alive and n.is_primary()
        and any(
            shares_edge(n.owned.rect, rect) for rect in n.neighbor_table
        )
    )
    node.shortcuts.clear()
    rect = next(r for r in node.neighbor_table if shares_edge(node.owned.rect, r))
    info = node.neighbor_table[rect]

    def memo_current():
        return node._perimeter_covered == (node._view_epoch, node.owned.rect)

    def find():
        result = node._find_perimeter_gap()
        assert result == full_scan(node)
        return result

    assert find() is None and memo_current()

    # Caretaking only adds cover, but it is a view change all the same.
    far = Rect(node.owned.rect.x, node.owned.rect.y, 1e-3, 1e-3)
    node._caretake(far)
    assert not memo_current()
    assert find() is None and memo_current()
    node._release_hole(far)
    assert not memo_current()
    assert find() is None and memo_current()

    node._table_drop(rect)
    assert not memo_current()
    assert find() is not None

    node._caretake(rect)
    assert find() is None and memo_current()
    node._release_hole(rect)
    assert not memo_current()
    assert find() is not None

    # Cover the stretch with a shortcut only: the scan answers None, but
    # the memo is not stored -- the cache can lose the entry without a
    # view change.
    node.shortcuts.learn(info)
    assert find() is None and not memo_current()
    node.shortcuts.invalidate_rect(rect)
    assert find() is not None

    node._table_put(info)
    assert find() is None and memo_current()

    # A split (same view, smaller rect) opens the cut line.
    owned = node.owned.rect
    node.owned.rect = Rect(owned.x, owned.y, owned.width / 2, owned.height)
    assert not memo_current()
    assert find() is not None
    node.owned.rect = owned
    assert find() is None and memo_current()


def sweep_state(node):
    """Everything the failure sweep's passes may change."""
    return (
        list(node.neighbor_table.items()),
        set(node.suspected),
        list(node.caretaker_rects.items()),
        dict(node.last_seen),
        node._view_epoch,
        node.shortcuts.entries(),
        node.network.stats.sent,
        list(node.neighbor_stats.items()),
        list(node._neighbor_stats_at.items()),
        list(node.neighbor_pressure.items()),
    )


def full_stats_pass(node, now):
    """The unbounded stats-expiry pass, as a ``(started, expired)`` pair
    of the rects it would start a clock for and expire."""
    started = [r for r in node.neighbor_stats if r not in node._neighbor_stats_at]
    expired = [
        r for r, heard in node._neighbor_stats_at.items()
        if r in node.neighbor_stats and now - heard > FAILURE_HORIZON
    ]
    return started, expired


def fault_run(cluster, rng):
    """200 t of routed traffic with a secondary crash (t=40), a whole
    region crashed (t=70: its primary and secondary) and a join (t=120)."""
    def owners():
        return [n for n in cluster.nodes.values() if n.alive and n.owned]

    ids = sorted(cluster.nodes)
    for step in range(200):
        if step == 40:
            victim = next(
                n for n in owners()
                if n.is_secondary() and n.owned.peer is not None
            )
            cluster.crash_node(victim.node.node_id)
        if step == 70:
            victim = next(
                n for n in owners()
                if n.is_primary() and n.owned.peer is not None
            )
            secondary = next(
                n for n in owners() if n.address == victim.owned.peer
            )
            cluster.crash_node(victim.node.node_id)
            cluster.crash_node(secondary.node.node_id)
        if step == 120:
            cluster.join_node(
                Point(rng.uniform(1, 63), rng.uniform(1, 63)), capacity=5.0
            )
        live = [i for i in ids if cluster.nodes[i].alive]
        origin = cluster.nodes[rng.choice(live)]
        origin.send_to_point(Point(rng.uniform(0, 64), rng.uniform(0, 64)), step)
        cluster.run_for(1.0)


def test_failure_sweep_bounds_skip_only_no_op_passes(monkeypatch):
    """At every tick where a bound skips a pass, running the full pass
    there changes nothing."""
    original = ProtocolNode._check_failures
    full_pass = ProtocolNode._sweep_neighbors
    tally = dict.fromkeys(
        ("ticks", "neighbor_skips", "neighbor_passes", "stats_skips",
         "stats_passes", "caretakes", "evictions", "expired", "suspects"),
        0,
    )

    def counted(self, now, peer):
        tally["neighbor_passes"] += 1
        return full_pass(self, now, peer)

    def checked(self):
        if not self.alive or self.owned is None:
            return original(self)
        passes = tally["neighbor_passes"]
        stats_bound = (
            self.scheduler.now - self._stats_oldest <= FAILURE_HORIZON
            and len(self._neighbor_stats_at) == len(self.neighbor_stats)
        )
        holes, peer = len(self.caretaker_rects), self.owned.peer
        suspects = len(self.suspected)
        stats = set(self.neighbor_stats)
        original(self)
        if not self.alive or self.owned is None or not self.is_primary():
            return
        now = self.scheduler.now
        tally["ticks"] += 1
        tally["caretakes"] += len(self.caretaker_rects) > holes
        tally["evictions"] += peer is not None and self.owned.peer is None
        tally["suspects"] += len(self.suspected) > suspects
        expired = stats - set(self.neighbor_stats)
        tally["expired"] += len(expired)
        if tally["neighbor_passes"] == passes:
            tally["neighbor_skips"] += 1
            memo = (self._sweep_key, self._sweep_oldest)
            before = sweep_state(self)
            full_pass(self, now, self.owned.peer)
            assert sweep_state(self) == before
            self._sweep_key, self._sweep_oldest = memo
        tally["stats_skips" if stats_bound else "stats_passes"] += 1
        # Right after the sweep, skipped pass or not, nothing is left to
        # expire or to clock: the full pass would change nothing.
        assert not (stats_bound and expired)
        assert full_stats_pass(self, now) == ([], [])
        assert all(
            heard >= self._stats_oldest
            for heard in self._neighbor_stats_at.values()
        )

    monkeypatch.setattr(ProtocolNode, "_sweep_neighbors", counted)
    monkeypatch.setattr(ProtocolNode, "_check_failures", checked)
    cluster, rng = build(32)
    fault_run(cluster, rng)
    assert tally["neighbor_skips"] > tally["ticks"] // 2
    assert tally["stats_skips"] > tally["ticks"] // 2
    for key in ("neighbor_passes", "stats_passes", "caretakes", "evictions",
                "expired", "suspects"):
        assert tally[key] > 0, (key, tally)


def full_sweep_state(node):
    """Everything a full ``_check_failures`` may change, its bounds too."""
    return sweep_state(node) + (
        node._sweep_key, node._sweep_oldest, node._stats_oldest,
        node._claims_oldest, list(node._claims_heard.items()),
        dict(node._shortcut_unacked), node.owned.peer, node.owned.role,
    )


def sweep_can_act(node, now, tick):
    """Whether the sweep, with the node's state as it is at ``now``, can
    act at ``tick``: the guards of ``_check_failures`` one by one, with a
    claim, shortcut or peer stamp not yet written taken as written at
    ``now`` (it can be no older)."""
    owned = node.owned

    def past(stamp, timeout):
        return tick - stamp > timeout

    stamps = [now, node._claims_oldest]
    stamps.extend(sent for _, sent in node._shortcut_unacked.values())
    if any(past(stamp, FAILURE_HORIZON) for stamp in stamps):
        return True
    if owned.peer is not None and past(node.last_seen.get(owned.peer, now), PEER_TIMEOUT):
        return True
    if owned.role != "primary":
        return False
    return (
        node._sweep_key != (node._view_epoch, owned.peer)
        or past(node._sweep_oldest, FAILURE_HORIZON)
        or past(node._stats_oldest, FAILURE_HORIZON)
        or len(node._neighbor_stats_at) != len(node.neighbor_stats)
    )


def next_tick(tick, after):
    """The first lattice tick past ``tick`` strictly after ``after``."""
    tick += CHECK_INTERVAL
    while tick <= after:
        tick += CHECK_INTERVAL
    return tick


def test_failure_sweep_sleeps_exactly_through_no_op_ticks(monkeypatch):
    """The sweep's timer fires on exactly the lattice tick at which the
    sweep can next act, or the first one after a wake; at every tick it
    sleeps through, a full ``_check_failures`` changes nothing."""
    original = ProtocolNode._check_failures
    original_wake = ProtocolNode._wake_sweep
    watch = {}
    firing = set()
    tally = dict.fromkeys(("fires", "slept", "probes", "wakes"), 0)

    def wake(self):
        entry = watch.get(self)
        if entry is not None and self not in firing and entry["woken"] is None:
            entry["woken"] = self.scheduler.now
            tally["wakes"] += 1
        original_wake(self)

    def probe(node, tick, entry):
        if watch.get(node) is not entry or not node.alive or node.owned is None:
            return
        if node._sweep_timer.due <= tick:
            return  # woken onto this very tick
        tally["probes"] += 1
        before = full_sweep_state(node)
        node._sweep_failures(tick)
        assert full_sweep_state(node) == before, (node.address, tick)

    def checked(self):
        now = self.scheduler.now
        entry = watch.pop(self, None)
        if entry is not None and entry["timer"] is self._sweep_timer:
            expected = entry["due"]
            if entry["woken"] is not None:
                expected = min(expected, next_tick(entry["tick"], entry["woken"]))
            assert now == expected, (self.address, entry)
            tally["fires"] += 1
        firing.add(self)
        try:
            original(self)
        finally:
            firing.discard(self)
        if not self.alive or self.owned is None:
            return
        due = now + CHECK_INTERVAL
        while not sweep_can_act(self, now, due):
            due += CHECK_INTERVAL
        entry = {"tick": now, "due": due, "woken": None, "timer": self._sweep_timer}
        watch[self] = entry
        tick = now + CHECK_INTERVAL
        while tick < due:
            tally["slept"] += 1
            self.scheduler.at(tick, lambda t=tick: probe(self, t, entry))
            tick += CHECK_INTERVAL

    monkeypatch.setattr(ProtocolNode, "_check_failures", checked)
    monkeypatch.setattr(ProtocolNode, "_wake_sweep", wake)
    cluster, rng = build(32)
    fault_run(cluster, rng)
    assert tally["fires"] > 1000
    assert tally["slept"] > tally["fires"]
    assert tally["probes"] > tally["slept"] // 2
    assert tally["wakes"] > 100


def test_failure_sweep_sleep_is_capped_for_stamps_not_yet_written():
    """A claim, shortcut or peer stamp written while the sweep sleeps is
    no older than the sleep, so the sweep is back by the first tick past
    each timeout from there; those writes need no wake."""
    cluster, _ = build(12)
    cluster.settle(30)
    node = next(n for n in cluster.nodes.values() if n.alive and n.is_secondary())
    timer = node._sweep_timer
    now = cluster.scheduler.now
    node._claims_heard, node._claims_oldest = {}, math.inf
    node._shortcut_unacked.clear()

    def capped(timeout):
        tick = timer.due
        while not tick - now > timeout:
            tick += CHECK_INTERVAL
        return tick

    del node.last_seen[node.owned.peer]
    expected = capped(PEER_TIMEOUT)
    node._sleep_sweep(now)
    assert timer.due == expected
    node.owned.peer = None
    expected = capped(FAILURE_HORIZON)
    node._sleep_sweep(now)
    assert timer.due == expected


def test_failure_sweep_bound_follows_peer_claims_and_unclocked_stats():
    """The cases a clean churn run rarely reaches: a claim naming our
    peer as another region's primary is dropped however fresh its clock
    (the bound must not skip it, before or after the peer changes), and
    a stats entry without a timestamp gets its clock on the next tick."""
    cluster = quiet_cluster()
    node, sender = neighbor_pair(cluster)
    now = cluster.scheduler.now
    node._check_failures()
    assert node._sweep_key == (node._view_epoch, node.owned.peer)
    held = node.neighbor_table[sender.owned.rect]

    # Our peer becomes the address a live entry names as primary.
    node.owned.peer = held.primary
    node._check_failures()
    assert held.rect not in node.neighbor_table

    # A claim naming our peer, kept while its own secondary is heard.
    rect, other = next(
        (r, i) for r, i in node.neighbor_table.items()
        if i.primary != node.owned.peer
    )
    backup = synthetic_address(905)
    node.last_seen[backup] = now
    node._table_put(m.NeighborInfo(
        rect=rect, primary=node.owned.peer, secondary=backup,
        stamp=other.stamp + 1,
    ))
    for _ in range(3):
        node._check_failures()
        assert rect in node.neighbor_table
    node.last_seen[backup] = now - 1_000.0
    node._check_failures()
    assert rect not in node.neighbor_table

    # Stats written without a timestamp start their clock at this tick.
    node._check_failures()
    unclocked = Rect(60, 60, 1, 1)
    node.neighbor_stats[unclocked] = (0.0, 1.0)
    node._check_failures()
    assert node._neighbor_stats_at[unclocked] == now
