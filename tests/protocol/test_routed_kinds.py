"""The routed-kind table behind the one executor rule.

Every routed request kind is served by one rule
(:meth:`repro.protocol.node.ProtocolNode._execute`) driven by one table
of rows.  These tests pin the table against the other registries that
name kinds: the shortcut hop and its MISROUTE bounce, the reliable-hop
set and the overload priority map.
"""

import pytest

from repro.geometry import Point, Rect
from repro.protocol import ProtocolCluster
from repro.protocol import messages as m
from repro.protocol import overload
from repro.protocol.node import RELIABLE_ROUTED_KINDS
from repro.sim.transport import Message

BOUNDS = Rect(0, 0, 64, 64)

#: The requests the paper routes to the region covering a coordinate.
ROUTED_KINDS = {
    m.JOIN_REQUEST, m.ROUTE, m.PUBLISH, m.QUERY, m.SUBSCRIBE,
    m.STORE_UPDATE, m.STORE_REMOVE, m.STORE_LOOKUP,
}


@pytest.fixture
def node():
    cluster = ProtocolCluster(BOUNDS, seed=7)
    first = cluster.join_node(Point(10, 10))
    assert first.owned.rect == BOUNDS
    return first


def deliver(node, kind, body):
    node._receive(Message(
        source=node.address, destination=node.address, kind=kind,
        body=body, sent_at=0.0,
    ))


def test_the_table_holds_every_routed_kind(node):
    assert set(node._routed) == ROUTED_KINDS
    for kind in ROUTED_KINDS:
        assert node._handlers[kind] == node._on_routed


def test_reliable_hops_are_routed_kinds():
    assert RELIABLE_ROUTED_KINDS <= ROUTED_KINDS


def test_every_prioritised_kind_has_a_handler(node):
    assert set(overload.PRIORITY_OF) <= set(node._handlers)
    # Only the two envelopes, classed by their payload, go unranked.
    assert set(node._handlers) - set(overload.PRIORITY_OF) == {
        m.RELIABLE, m.SHORTCUT_HOP,
    }


@pytest.mark.parametrize("kind", sorted(ROUTED_KINDS))
def test_shortcut_hop_and_misroute_reach_the_rule(node, kind):
    executed = []
    node._execute = lambda *call: executed.append(call)
    body = object()
    target = Point(20, 20)
    deliver(node, m.SHORTCUT_HOP, m.ShortcutHopBody(
        kind=kind, body=body, target=target, claimed_rect=BOUNDS,
        sender_distance=1.0,
    ))
    deliver(node, m.MISROUTE, m.MisrouteBody(
        kind=kind, body=body, target=target, claimed_rect=BOUNDS,
    ))
    assert executed == [(kind, body), (kind, body)]
