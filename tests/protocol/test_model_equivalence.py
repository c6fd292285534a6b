"""Cross-validation: the message-level protocol against the overlay model.

The overlay model (`repro.core`) is the authoritative description of
GeoGrid's structure; the protocol layer re-implements the same rules as
asynchronous message handlers.  Driving both with identical join
sequences (same coordinates, same entry nodes, basic single-owner mode)
must produce *identical partitions* -- a strong check that the two layers
implement the same system rather than two similar ones.  At the default
latency a join's grant and split announcements overlap the next join's
routing, so only the ownership-claim rule keeps stale split parents from
being caretaken and re-granted there.

The primary switch (mechanism (b)) is checked the same way: handed the
same neighbor ``(load, capacity)`` stats, the model's trigger and
:class:`~repro.loadbalance.mechanisms.SwitchPrimaries` and the protocol's
``_consider_switch`` pick the same partner or refuse alike.
"""

import random

import pytest

from repro.core.node import NodeAddress
from repro.core.overlay import BasicGeoGrid
from repro.geometry import Point, Rect
from repro.loadbalance import AdaptationConfig, TriggerRule
from repro.loadbalance.mechanisms import SwitchPrimaries
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m
from repro.sim.latency import ConstantLatency
from tests.conftest import make_node
from tests.loadbalance.conftest import make_row_scenario

BOUNDS = Rect(0, 0, 64, 64)


def run_both(coords, entries, latency=ConstantLatency(0.01)):
    """Join the same sequence into both layers; return both partitions.

    ``latency=None`` runs the protocol at the cluster's default latency.
    """
    overlay = BasicGeoGrid(BOUNDS, rng=random.Random(0))
    overlay_nodes = []
    for index, coord in enumerate(coords):
        node = make_node(index, coord.x, coord.y)
        entry = overlay_nodes[entries[index]] if index > 0 else None
        overlay.join(node, entry=entry)
        overlay_nodes.append(node)

    cluster = ProtocolCluster(
        BOUNDS,
        seed=0,
        latency=latency,
        config=NodeConfig(dual_peer=False),
    )
    protocol_nodes = []
    for index, coord in enumerate(coords):
        pnode = cluster.spawn_node(coord, capacity=1.0, node_id=index)
        if index == 0:
            pnode.start_as_first(BOUNDS)
        else:
            entry_address = protocol_nodes[entries[index]].address
            pnode.start_join(entry=entry_address)
            deadline = cluster.scheduler.now + 60.0
            while not pnode.joined and cluster.scheduler.now < deadline:
                cluster.scheduler.run_until(cluster.scheduler.now + 0.5)
            assert pnode.joined
        protocol_nodes.append(pnode)
    cluster.settle(20)

    overlay_rects = sorted(
        region.rect.as_tuple() for region in overlay.space.regions
    )
    protocol_rects = sorted(
        rect.as_tuple() for rect in cluster.primary_rects()
    )
    return overlay, cluster, overlay_rects, protocol_rects


@pytest.mark.parametrize(
    "latency, count, seed",
    [
        pytest.param(ConstantLatency(0.01), 25, seed, id=str(seed))
        for seed in range(1, 6)
    ]
    + [
        pytest.param(None, 64, seed, id=f"default-latency-64-{seed}")
        for seed in range(1, 11)
    ],
)
def test_identical_partitions(latency, count, seed):
    rng = random.Random(seed)
    coords = [
        Point(rng.uniform(0.01, 63.99), rng.uniform(0.01, 63.99))
        for _ in range(count)
    ]
    entries = [0] + [rng.randrange(index) for index in range(1, count)]
    overlay, cluster, overlay_rects, protocol_rects = run_both(
        coords, entries, latency
    )
    assert overlay_rects == protocol_rects
    overlay.check_invariants()
    cluster.check_partition()


def test_same_owner_for_same_rect():
    """Not only the rects: the same node owns each rect in both layers."""
    rng = random.Random(9)
    coords = [
        Point(rng.uniform(0.01, 63.99), rng.uniform(0.01, 63.99))
        for _ in range(20)
    ]
    entries = [0] + [rng.randrange(index) for index in range(1, 20)]
    overlay, cluster, overlay_rects, protocol_rects = run_both(coords, entries)
    overlay_owner_by_rect = {
        region.rect.as_tuple(): region.primary.node_id
        for region in overlay.space.regions
    }
    for pnode in cluster.nodes.values():
        if pnode.alive and pnode.is_primary():
            rect_key = pnode.owned.rect.as_tuple()
            assert overlay_owner_by_rect[rect_key] == pnode.node.node_id


MARGIN = AdaptationConfig().improvement_margin
#: A neighbor load that makes ``after == before * margin`` exactly for a
#: cap-1 region carrying 1000: the swap misses the strict improvement.
AT_MARGIN = 1000.0 * MARGIN


def model_switch(specs, hot):
    """The model's decision for region ``hot`` of a row built from
    ``specs``: the partner's rect, or ``None`` for a refusal."""
    s = make_row_scenario(specs)
    region = s.region(hot)
    if not TriggerRule().should_adapt(region.primary, s.calc):
        return None, s
    plan = SwitchPrimaries().plan(region, s.ctx)
    return (None if plan is None else plan.partner.rect), s


def protocol_switch(s, hot):
    """``_consider_switch`` of a node holding region ``hot``'s load and
    capacity, with its neighbors' stats in the model's neighbor order."""
    region = s.region(hot)
    cluster = ProtocolCluster(BOUNDS, seed=0, config=NodeConfig(dual_peer=False))
    pnode = cluster.spawn_node(region.rect.center, capacity=region.primary.capacity)
    pnode.start_as_first(BOUNDS)
    pnode.load_rate = s.ctx.region_load(region)
    owners = {}
    for i, neighbor in enumerate(s.overlay.space.neighbors(region)):
        address = NodeAddress(f"10.9.0.{i}", 7000)
        owners[address] = neighbor.rect
        pnode.neighbor_table[neighbor.rect] = m.NeighborInfo(neighbor.rect, address)
        pnode.neighbor_stats[neighbor.rect] = (
            s.ctx.region_load(neighbor), neighbor.primary.capacity,
        )
    sent = []
    pnode.network.send = lambda src, dst, kind, body: sent.append((dst, kind))
    pnode._consider_switch()
    requests = [dst for dst, kind in sent if kind == m.SWITCH_REQUEST]
    assert len(requests) <= 1
    return owners[requests[0]] if requests else None


@pytest.mark.parametrize(
    "specs, hot, expect",
    [
        # (primary capacity, secondary, load) per region, west to east.
        pytest.param([(1, None, 5.0), (100, None, 1.0)], 0, 1, id="swap"),
        pytest.param([(100, None, 0.0), (1, None, 8.0), (100, None, 0.0)],
                     1, "first", id="tie-first-neighbor-wins"),
        pytest.param([(100, None, 90.0), (1, None, 10.0), (10, None, 0.0)],
                     1, 2, id="strongest-is-not-the-best-pair"),
        pytest.param([(1, None, 1000.0), (100, None, AT_MARGIN)], 0, None,
                     id="after-equals-before-times-margin"),
        pytest.param([(1, None, 1000.0), (100, None, AT_MARGIN - 1.0)], 0, 1,
                     id="after-below-the-margin"),
        pytest.param([(1, None, 2.0), (100, None, 500.0)], 0, None,
                     id="pair-would-get-worse"),
        pytest.param([(10, None, 50.0), (10, None, 0.0)], 0, None,
                     id="equal-capacity-neighbor"),
        pytest.param([(1, None, 1e-9), (100, None, 0.0)], 0, None,
                     id="at-min-index-next-to-idle"),
        pytest.param([(1, None, 5e-10), (100, None, 0.0)], 0, None,
                     id="below-min-index-next-to-idle"),
    ],
)
def test_switch_decision_matches_model(specs, hot, expect):
    partner, s = model_switch(specs, hot)
    if expect == "first":
        expect = next(iter(s.overlay.space.neighbors(s.region(hot))))
        assert partner == expect.rect
    elif expect is None:
        assert partner is None
    else:
        assert partner == s.region(expect).rect
    assert protocol_switch(s, hot) == partner
