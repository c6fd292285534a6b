"""Split-brain resolution: two primaries claiming the same territory.

Unreliable failure detection can double-assign a region (a caretaker
fills a hole whose owner was merely slow; a grant-decline is lost).  The
resolution protocol: witnesses forward the deterministic winner's claim
to the loser, the loser probes the winner directly, and on first-hand
evidence the loser abandons its region and rejoins.
"""

import random

import pytest

from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol.node import OwnedRegion

BOUNDS = Rect(0, 0, 64, 64)


def cluster_with_split_brain(seed=51):
    """Build a healthy cluster, then force two primaries onto one rect."""
    cluster = ProtocolCluster(
        BOUNDS, seed=seed, config=NodeConfig(dual_peer=False)
    )
    rng = random.Random(seed)
    nodes = [
        cluster.join_node(
            Point(rng.uniform(1, 63), rng.uniform(1, 63)), capacity=10
        )
        for _ in range(6)
    ]
    cluster.settle(30)
    victim = max(
        (n for n in cluster.nodes.values() if n.is_primary()),
        key=lambda n: (n.address.ip, n.address.port),
    )
    usurper = cluster.spawn_node(victim.owned.rect.center, capacity=10)
    # Simulate a bad caretaker grant: the usurper installs the same rect.
    usurper._attach()
    usurper.owned = OwnedRegion(
        rect=victim.owned.rect, role="primary", peer=None
    )
    usurper._set_table(victim.neighbor_table.values())
    usurper.joined = True
    usurper._start_timers()
    return cluster, victim, usurper


class TestSplitBrainResolution:
    def test_conflict_resolves_to_disjoint_coverage(self):
        cluster, victim, usurper = cluster_with_split_brain()
        center = victim.owned.rect.center
        # Nudge off dyadic boundaries: the rejoining loser may split the
        # winner's region exactly through the old center.
        probe = Point(center.x + 0.0031, center.y + 0.0047)
        cluster.settle(120)
        # Exactly one live primary covers an interior point of the
        # contested area (the original rect need not survive verbatim).
        covering = [
            n for n in cluster.nodes.values()
            if n.alive and n.is_primary() and n.owned.rect.covers(probe)
        ]
        assert len(covering) == 1
        cluster.check_partition(allow_caretaker_holes=True)

    def test_loser_abandons_the_contested_claim(self):
        cluster, victim, usurper = cluster_with_split_brain()
        contested = victim.owned.rect
        loser = max(
            (victim, usurper),
            key=lambda n: (n.address.ip, n.address.port),
        )
        cluster.settle(120)
        # Whatever the loser owns now, it is not the full contested rect.
        assert loser.owned is None or loser.owned.rect != contested

    def test_loser_rejoins_somewhere(self):
        cluster, victim, usurper = cluster_with_split_brain()
        loser = max(
            (victim, usurper),
            key=lambda n: (n.address.ip, n.address.port),
        )
        cluster.settle(180)
        assert loser.alive
        assert loser.joined
        assert loser.owned is not None
