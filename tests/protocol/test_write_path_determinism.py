"""Pins the protocol layer's seeded write path end to end.

Companion to ``test_protocol_determinism.py``, which pins the read path.
A 32-node cluster with the default :class:`NodeConfig` joins, takes
standing subscriptions, then serves 80 time units of moving-object store
updates (each reporting its ``prev_point``, so boundary crossings evict
the stale copy), publishes, location queries and store range lookups,
losing one primary that has a standing secondary halfway through.  The
counts, the acks and notifications each origin received, and every
secondary's replica were recorded before the routed-request handlers
and the replication messages were folded into one executor rule and one
REPLICATE kind.  A refactor of the write path is only admissible when
it leaves every event, send and replica unchanged.
"""

import random
import zlib

from repro.geometry import Point, Rect
from repro.protocol import ProtocolCluster

SEED = 20070626
NODES = 32
STEPS = 80
OBJECTS = 24
BOUNDS = Rect(0, 0, 64, 64)

#: Recorded when every region claim gained its generation stamp.  At the
#: parent of that change the tables ended this run holding 37 pairs of
#: overlapping claims; with them gone, routes and fan-outs shrink
#: (fired 17917 -> 17324, sent 7486 -> 6868).  Store answers drop from
#: 81 to 75 with the same 74 distinct answering regions (repeated
#: answers from one region: 7 at the parent, 1 now).  Query answers
#: drop from 69 to 64: one query took a cached shortcut to the primary
#: that crashed halfway and was lost (ROUTE alone watches for a lost
#: shortcut hop).  The replicas of nodes 23 and 29 now hold subscription
#: 16/1 at version 3, as their primaries do; at the parent they lagged
#: at version 2.  ``fired`` was re-recorded (17324 -> 12811) when the
#: failure sweep's timer began sleeping through its idle ticks; sends,
#: kinds and replicas are unchanged.
EXPECTED = {"fired": 12811, "sent": 6868}
EXPECTED_BY_KIND = {
    "heartbeat": 4303,
    "join_request": 62,
    "neighbor_update": 316,
    "publish": 12,
    "query": 14,
    "query_fanout": 91,
    "query_result": 64,
    "reliable": 367,
    "reliable_ack": 357,
    "shortcut_hop": 113,
    "store_ack": 79,
    "store_fanout": 109,
    "store_lookup": 12,
    "store_remove": 22,
    "store_result": 75,
    "store_sync": 69,
    "sub_ack": 74,
    "sub_fanout": 132,
    "sub_sync": 386,
    "sync_state": 211,
}
EXPECTED_RECEIVED = {
    "store_acks": 77,
    "sub_acks": 14,
    "query_results": 64,
    "store_results": 75,
    "notifications": 61,
}
EXPECTED_REPLICAS = {
    4: (3, 1053153504),
    6: (1, 1864076704),
    7: (0, 4154564203),
    13: (3, 2064569312),
    18: (2, 1527100653),
    19: (3, 3656240217),
    21: (1, 2985873177),
    22: (4, 1215637864),
    23: (4, 1392584914),
    29: (5, 356035425),
}


def _uniform_point(rng):
    return Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5))


def run_cluster():
    cluster = ProtocolCluster(BOUNDS, seed=SEED)
    rng = random.Random(SEED)
    for _ in range(NODES):
        cluster.join_node(
            _uniform_point(rng), capacity=rng.choice((1.0, 5.0, 10.0))
        )
    cluster.settle(20)
    ids = sorted(cluster.nodes)
    for _ in range(4):
        x, y = rng.uniform(0, 40), rng.uniform(0, 40)
        cluster.nodes[rng.choice(ids)].subscribe(Rect(x, y, 24, 24))
    cluster.run_for(5.0)
    positions = {}
    for step in range(STEPS):
        if step == STEPS // 2:
            victim = next(
                node_id for node_id in ids
                if cluster.nodes[node_id].is_primary()
                and cluster.nodes[node_id].owned.peer is not None
            )
            cluster.crash_node(victim)
            ids.remove(victim)
        origin = cluster.nodes[rng.choice(ids)]
        object_id = f"obj{step % OBJECTS}"
        point = _uniform_point(rng)
        origin.store_update(
            object_id, point, payload=step, version=step + 1,
            prev_point=positions.get(object_id),
        )
        positions[object_id] = point
        if step % 4 == 0:
            origin.publish(_uniform_point(rng), f"item{step}")
        if step % 5 == 0:
            x, y = rng.uniform(0, 48), rng.uniform(0, 48)
            origin.query_rect(Rect(x, y, 16, 16))
        if step % 5 == 2:
            x, y = rng.uniform(0, 48), rng.uniform(0, 48)
            origin.store_lookup(Rect(x, y, 16, 16))
        cluster.run_for(1.0)
    cluster.run_for(15.0)
    return cluster


def received(cluster):
    """Per kind, the total each live origin received (acks, results, pushes)."""
    nodes = [node for node in cluster.nodes.values() if node.alive]
    return {
        "store_acks": sum(len(node.store_acks) for node in nodes),
        "sub_acks": sum(len(node.sub_acks) for node in nodes),
        "query_results": sum(
            len(answers) for node in nodes
            for answers in node.query_results.values()
        ),
        "store_results": sum(
            len(answers) for node in nodes
            for answers in node.store_results.values()
        ),
        "notifications": sum(len(node.notifications) for node in nodes),
    }


def replicas(cluster):
    """Each live secondary's replica, as ``node id -> (count, crc32)``.

    The checksum covers the sorted ``(object id, version)`` store keys,
    the sorted ``(sub id, version)`` registrations and the item log.
    """
    pinned = {}
    for node_id, node in sorted(cluster.nodes.items()):
        if not node.alive or not node.is_secondary():
            continue
        owned = node.owned
        objects = sorted(
            (str(record.object_id), record.version)
            for record in owned.store.records()
        )
        subs = sorted(
            (record.sub_id, record.version) for record in owned.subs.records()
        )
        items = [(point.x, point.y, str(item)) for point, item in owned.items]
        digest = zlib.crc32(repr((objects, subs, items)).encode("utf-8"))
        pinned[node_id] = (len(objects) + len(subs) + len(items), digest)
    return pinned


def test_write_path_counts_are_pinned():
    cluster = run_cluster()
    stats = cluster.network.stats
    observed = {"fired": cluster.scheduler.fired, "sent": stats.sent}
    assert observed == EXPECTED
    assert stats.by_kind == EXPECTED_BY_KIND
    assert received(cluster) == EXPECTED_RECEIVED
    assert replicas(cluster) == EXPECTED_REPLICAS
