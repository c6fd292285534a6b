"""Pins the protocol layer's seeded behaviour end to end.

A 32-node cluster with the default :class:`NodeConfig` joins, then
serves 100 time units of routed lookups (``send_to_point``) and range
lookups over the location store, losing one node to a crash halfway.
The scheduler, transport and routing counts below were recorded before
the message path and the idle-tick sweeps (address hashing, message and
event construction, transport fault checks, perimeter coverage,
claim-ledger expiry) were optimised.  A performance change to the
protocol layer is only admissible when it leaves every event, send and
hop unchanged, and so every count below.
"""

import random

from repro.geometry import Point, Rect
from repro.protocol import ProtocolCluster

SEED = 20070625
NODES = 32
STEPS = 100
BOUNDS = Rect(0, 0, 64, 64)

#: Recorded when every region claim gained its generation stamp.  The
#: parent of that change (the message-path optimisation's record) gave
#: fired 18325, sent 6995, hop_sum 143 and store_answers 95: its neighbor
#: tables ended this run holding 52 pairs of overlapping claims (stale
#: split parents), which drew heartbeats, longer routes and fan-outs, and
#: five lookups were answered twice by the same region.  The distinct
#: answering regions (90) and the delivered routes (99) are unchanged.
#: ``fired`` was re-recorded (16976 -> 12229) when the failure sweep's
#: timer began sleeping through its idle ticks: only the scheduler's
#: event count moved, every send and answer is the same.
EXPECTED = {
    "fired": 12229,
    "sent": 5886,
    "delivered": 99,
    "hop_sum": 128,
    "store_answers": 90,
}
EXPECTED_BY_KIND = {
    "heartbeat": 4650,
    "join_request": 56,
    "neighbor_update": 327,
    "reliable": 31,
    "reliable_ack": 31,
    "route": 81,
    "route_delivered": 99,
    "shortcut_hop": 123,
    "store_fanout": 134,
    "store_lookup": 15,
    "store_result": 90,
    "sync_state": 249,
}


def run_cluster():
    cluster = ProtocolCluster(BOUNDS, seed=SEED)
    rng = random.Random(SEED)
    for _ in range(NODES):
        cluster.join_node(
            Point(rng.uniform(1, 63), rng.uniform(1, 63)),
            capacity=rng.choice((1.0, 5.0, 10.0)),
        )
    cluster.settle(20)
    ids = sorted(cluster.nodes)
    request_ids = []
    lookup_ids = []
    for step in range(STEPS):
        if step == STEPS // 2:
            victim = rng.choice(ids)
            cluster.crash_node(victim)
            ids.remove(victim)
        origin = cluster.nodes[rng.choice(ids)]
        target = Point(rng.uniform(0, 64), rng.uniform(0, 64))
        request_ids.append((origin, origin.send_to_point(target, step)))
        if step % 5 == 0:
            x, y = rng.uniform(0, 48), rng.uniform(0, 48)
            lookup_ids.append(
                (origin, origin.store_lookup(Rect(x, y, 16, 16)))
            )
        cluster.run_for(1.0)
    cluster.run_for(10.0)
    acks = {
        ack.request_id: ack
        for node in cluster.nodes.values()
        for ack in node.delivered
    }
    delivered = [acks[rid] for _, rid in request_ids if rid in acks]
    store_answers = sum(
        len(origin.store_results.get(rid, [])) for origin, rid in lookup_ids
    )
    return cluster, delivered, store_answers


def test_protocol_counts_are_pinned():
    cluster, delivered, store_answers = run_cluster()
    stats = cluster.network.stats
    observed = {
        "fired": cluster.scheduler.fired,
        "sent": stats.sent,
        "delivered": len(delivered),
        "hop_sum": sum(ack.hops for ack in delivered),
        "store_answers": store_answers,
    }
    assert observed == EXPECTED
    assert stats.by_kind == EXPECTED_BY_KIND
