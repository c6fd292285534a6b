"""Tests for repro.experiments.build."""

import pytest

from repro.core.overlay import BasicGeoGrid
from repro.dualpeer import DualPeerGeoGrid
from repro.geometry.rect import EDGE_TOLERANCE
from repro.sim.rng import RngStreams
from repro.experiments import (
    ExperimentConfig,
    SystemVariant,
    build_field,
    build_network,
    draw_population,
)


@pytest.fixture
def config():
    return ExperimentConfig(trials=1)


class TestBuildField:
    def test_has_requested_hotspots(self, config):
        field = build_field(config, RngStreams(1))
        assert len(field.hotspots) == config.hotspot_count

    def test_deterministic_under_seed(self, config):
        a = build_field(config, RngStreams(1))
        b = build_field(config, RngStreams(1))
        assert a.total_load == b.total_load


class TestDrawPopulation:
    def test_count_and_ids(self, config):
        nodes = draw_population(50, config, RngStreams(1))
        assert len(nodes) == 50
        assert [node.node_id for node in nodes] == list(range(50))

    def test_gnutella_capacities(self, config):
        nodes = draw_population(500, config, RngStreams(1))
        capacities = {node.capacity for node in nodes}
        assert capacities <= {1.0, 10.0, 100.0, 1000.0, 10000.0}

    def test_deterministic(self, config):
        a = draw_population(20, config, RngStreams(3))
        b = draw_population(20, config, RngStreams(3))
        assert [n.coord for n in a] == [n.coord for n in b]


class TestBuildNetwork:
    def test_variant_selects_overlay_class(self, config):
        basic = build_network(
            SystemVariant.BASIC, 30, config, RngStreams(1)
        )
        dual = build_network(
            SystemVariant.DUAL_PEER, 30, config, RngStreams(1)
        )
        assert type(basic.overlay) is BasicGeoGrid
        assert type(dual.overlay) is DualPeerGeoGrid

    def test_adaptation_variant_has_engine(self, config):
        network = build_network(
            SystemVariant.DUAL_PEER_ADAPTATION, 30, config, RngStreams(1)
        )
        assert network.engine is not None
        assert build_network(
            SystemVariant.DUAL_PEER, 30, config, RngStreams(1)
        ).engine is None

    def test_same_streams_same_nodes_across_variants(self, config):
        basic = build_network(
            SystemVariant.BASIC, 25, config, RngStreams(9)
        )
        dual = build_network(
            SystemVariant.DUAL_PEER, 25, config, RngStreams(9)
        )
        assert [n.coord for n in basic.nodes] == [n.coord for n in dual.nodes]
        assert [n.capacity for n in basic.nodes] == [
            n.capacity for n in dual.nodes
        ]

    def test_network_is_sound(self, config):
        network = build_network(
            SystemVariant.DUAL_PEER, 60, config, RngStreams(2)
        )
        network.overlay.check_invariants()
        assert network.overlay.member_count() == 60

    def test_calc_wired_to_field(self, config):
        network = build_network(
            SystemVariant.DUAL_PEER, 40, config, RngStreams(2)
        )
        total = sum(
            network.calc.region_load(region)
            for region in network.overlay.space.regions
        )
        assert total == pytest.approx(network.field.total_load)


def test_seed_14_builds_no_sub_tolerance_region():
    """Seed 14's dual-peer admission used to re-split the weakest full
    region near (30, 32) until two regions 9.3e-10 wide coincided; splits
    below the edge tolerance are now refused, and the whole 4 096-node
    partition passes the invariant check."""
    network = build_network(
        SystemVariant.DUAL_PEER_ADAPTATION, 4096, ExperimentConfig(), RngStreams(14)
    )
    regions = list(network.overlay.space.regions)
    assert min(min(r.rect.width, r.rect.height) for r in regions) >= EDGE_TOLERANCE
    network.overlay.check_invariants()
