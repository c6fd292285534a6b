"""The replicated location store over real protocol messages.

End-to-end coverage for ``repro.store`` on the message level: routed
updates and range lookups, dual-peer replication, cross-region eviction,
state motion through splits/merges/switches, crash failover from the
replica, anti-entropy repair on lossy networks, and the store invariants
staying quiet under seeded churn with 1% message loss.
"""

import random

import pytest

from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.sim.churn import ChurnConfig, ChurnProcess

BOUNDS = Rect(0, 0, 64, 64)

STORE_CHECKS = ("store_placement", "store_replication")


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


def scatter_objects(cluster, nodes, rng, count, version=1):
    """Insert ``count`` objects via routed, acked updates."""
    positions = {}
    for i in range(count):
        object_id = f"obj{i}"
        point = Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5))
        origin = rng.choice([n for n in nodes if n.alive])
        ack = cluster.store_update(
            origin.node.node_id, object_id, point, version=version
        )
        assert ack is not None
        positions[object_id] = point
    return positions


def assert_store_audit_quiet(cluster, settle=25.0):
    """Two audit passes over the store invariants must confirm nothing.

    The store checks are soft (debounced across two consecutive ticks),
    so a clean bill of health needs two sightings with the divergence
    frozen in between.
    """
    from repro.obs.audit import InvariantAuditor

    auditor = InvariantAuditor(cluster, checks=STORE_CHECKS)
    auditor.tick()
    cluster.settle(settle)
    auditor.tick()
    assert auditor.violations == []


class TestDataPlane:
    def test_update_acked_and_looked_up(self):
        cluster, nodes, rng = build_cluster()
        ack = cluster.store_update(
            nodes[0].node.node_id, "car1", Point(20, 20), version=1
        )
        assert ack.hops >= 0
        found = cluster.store_lookup(
            nodes[1].node.node_id, Rect(18, 18, 4, 4)
        )
        assert [r.object_id for r in found] == ["car1"]
        assert found[0].version == 1

    def test_cross_region_move_evicts_old_copy(self):
        cluster, nodes, rng = build_cluster()
        cluster.store_update(
            nodes[0].node.node_id, "car1", Point(5, 5), version=1
        )
        cluster.store_update(
            nodes[0].node.node_id, "car1", Point(60, 60), version=2,
            prev_point=Point(5, 5),
        )
        cluster.settle(20)
        assert cluster.store_object_count() == 1
        found = cluster.store_lookup(
            nodes[1].node.node_id, Rect(0, 0, 64, 64)
        )
        assert [r.version for r in found] == [2]

    def test_lookup_fans_out_across_regions(self):
        cluster, nodes, rng = build_cluster(count=10, seed=5)
        positions = scatter_objects(cluster, nodes, rng, 20)
        found = cluster.store_lookup(
            nodes[0].node.node_id, Rect(0, 0, 64, 64), wait=40.0
        )
        assert {r.object_id for r in found} == set(positions)

    def test_replica_holds_copy(self):
        cluster, nodes, rng = build_cluster()
        cluster.store_update(
            nodes[0].node.node_id, "car1", Point(33, 33), version=1
        )
        cluster.settle(25)  # replication + a sync round
        holders = [
            pnode
            for pnode in cluster.nodes.values()
            if pnode.alive
            and pnode.owned is not None
            and "car1" in pnode.owned.store
        ]
        roles = sorted(p.owned.role for p in holders)
        assert roles == ["primary", "secondary"]


class TestFailover:
    def test_crash_promotes_replica_with_objects(self):
        cluster, nodes, rng = build_cluster(count=8, seed=11)
        positions = scatter_objects(cluster, nodes, rng, 30)
        cluster.settle(25)
        victim = next(
            n
            for n in cluster.nodes.values()
            if n.alive
            and n.is_primary()
            and n.owned.peer is not None
            and len(n.owned.store)
        )
        held = {r.object_id for r in victim.owned.store.records()}
        cluster.crash_node(victim.node.node_id)
        cluster.settle(60)
        assert cluster.store_object_count() == len(positions)
        survivor = rng.choice(
            [n for n in cluster.nodes.values() if n.alive]
        )
        found = cluster.store_lookup(
            survivor.node.node_id, Rect(0, 0, 64, 64), wait=40.0
        )
        assert held <= {r.object_id for r in found}
        assert_store_audit_quiet(cluster)


class TestEndToEnd:
    def test_objects_survive_adaptations_and_crash(self):
        """The acceptance scenario: N objects inserted through routed
        updates survive splits (joins), merges (departures), load-balance
        switches, and a primary crash -- every one still retrievable and
        zero store-invariant violations."""
        config = NodeConfig(adaptation_enabled=True)
        cluster, nodes, rng = build_cluster(count=8, seed=33, config=config)
        positions = scatter_objects(cluster, nodes, rng, 40)

        # Splits: new joiners carve up existing regions, and each grant
        # ships the handed half's records.
        for _ in range(4):
            nodes.append(
                cluster.join_node(
                    Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                    capacity=rng.choice([10, 100]),
                )
            )
        cluster.settle(30)
        assert cluster.store_object_count() == len(positions)

        # Switches: drive traffic at the plane so overloaded primaries
        # trade places with stronger neighbors (store state ships in the
        # switch request/accept exchange).
        for _ in range(30):
            origin = rng.choice([n for n in nodes if n.alive])
            origin.send_to_point(
                Point(rng.uniform(1, 63), rng.uniform(1, 63)), "load"
            )
            cluster.run_for(2.0)
        cluster.settle(30)
        assert cluster.store_object_count() == len(positions)

        # Merge: a graceful departure folds its region (and records)
        # into a neighbor.
        departer = next(
            n
            for n in cluster.nodes.values()
            if n.alive and n.is_primary() and n.owned.peer is not None
        )
        cluster.depart_node(departer.node.node_id)
        cluster.settle(40)
        assert cluster.store_object_count() == len(positions)

        # Crash: a primary holding records dies; its replica promotes.
        victim = next(
            n
            for n in cluster.nodes.values()
            if n.alive
            and n.is_primary()
            and n.owned.peer is not None
            and len(n.owned.store)
        )
        cluster.crash_node(victim.node.node_id)
        cluster.settle(60)

        # Every object is still retrievable through a routed lookup...
        assert cluster.store_object_count() == len(positions)
        survivor = next(
            n for n in cluster.nodes.values() if n.alive and n.is_primary()
        )
        found = cluster.store_lookup(
            survivor.node.node_id, Rect(0, 0, 64, 64), wait=60.0
        )
        assert {r.object_id for r in found} == set(positions)
        # ... and the store invariants audit clean.
        assert_store_audit_quiet(cluster)


class TestChurnWithLoss:
    def test_zero_objects_lost_under_seeded_churn_and_loss(self):
        """The resilience scenario: dual-peer on, 1% message loss, and a
        seeded ``sim.churn`` process joining/departing/crashing nodes.
        No stored object may be lost, and the store auditor must stay
        quiet once the churn stops."""
        cluster, nodes, rng = build_cluster(count=12, seed=77, drop=0.01)
        positions = scatter_objects(cluster, nodes, rng, 30)
        cluster.settle(25)

        spawn_rng = random.Random(78)

        def spawn() -> bool:
            pnode = cluster.spawn_node(
                Point(
                    spawn_rng.uniform(0.5, 63.5),
                    spawn_rng.uniform(0.5, 63.5),
                ),
                capacity=spawn_rng.choice([1, 10, 100]),
            )
            pnode.start_join()
            return True

        def remove(graceful: bool) -> bool:
            alive = [n for n in cluster.nodes.values() if n.alive]
            alive_addrs = {n.address for n in alive}
            spawn_rng.shuffle(alive)
            for pnode in alive:
                if pnode.owned is None:
                    continue
                if (
                    pnode.owned.peer is None
                    or pnode.owned.peer not in alive_addrs
                ):
                    # Removing a node whose region's other copy is not on
                    # a live node (primary with an empty or dead slot, or
                    # a secondary whose primary died moments ago) destroys
                    # the last replica mid-failover -- unsurvivable for
                    # any dual-replica system, so churn skips the pick.
                    continue
                if graceful:
                    pnode.depart()
                else:
                    pnode.crash()
                return True
            return False

        churn = ChurnProcess(
            cluster.scheduler,
            rng=random.Random(79),
            config=ChurnConfig(
                join_rate=0.05,
                leave_rate=0.02,
                fail_rate=0.02,
                min_population=8,
                max_population=20,
            ),
            spawn=spawn,
            remove=remove,
            population=cluster.alive_count,
        )
        churn.start()
        cluster.run_for(200.0)
        churn.stop()
        # Quiesce: finish in-flight joins/failovers and give the sync
        # timer a few rounds of anti-entropy to repair lossy handovers.
        cluster.settle(80)

        assert churn.total_events > 0
        assert cluster.store_object_count() == len(positions), (
            f"objects lost under churn "
            f"(joins={churn.joins} departs={churn.departures} "
            f"fails={churn.failures})"
        )
        assert_store_audit_quiet(cluster)
