"""Tests for repro.core.node."""

import pytest

from repro.core.node import Node, NodeAddress, synthetic_address
from repro.geometry import Point


class TestNodeAddress:
    def test_str(self):
        assert str(NodeAddress("10.0.0.1", 7000)) == "10.0.0.1:7000"

    def test_synthetic_addresses_unique(self):
        seen = {synthetic_address(i) for i in range(1000)}
        assert len(seen) == 1000

    def test_synthetic_address_deterministic(self):
        assert synthetic_address(42) == synthetic_address(42)

    def test_synthetic_address_negative_rejected(self):
        with pytest.raises(ValueError):
            synthetic_address(-1)


class TestNode:
    def test_five_attribute_tuple(self):
        """The paper's <x, y, IP, port, properties> identity."""
        node = Node(
            node_id=7,
            coord=Point(1.0, 2.0),
            capacity=10.0,
            properties={"storage": 100},
        )
        assert node.coord == Point(1.0, 2.0)
        assert node.address.ip
        assert node.address.port == 7000
        assert node.properties["storage"] == 100

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Node(node_id=1, coord=Point(0, 0), capacity=0.0)
        with pytest.raises(ValueError):
            Node(node_id=1, coord=Point(0, 0), capacity=-5.0)

    def test_equality_by_identity(self):
        a = Node(node_id=1, coord=Point(0, 0), capacity=1.0)
        b = Node(node_id=1, coord=Point(9, 9), capacity=99.0)
        c = Node(node_id=2, coord=Point(0, 0), capacity=1.0)
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_explicit_address_kept(self):
        addr = NodeAddress("192.168.1.1", 9000)
        node = Node(node_id=1, coord=Point(0, 0), capacity=1.0, address=addr)
        assert node.address == addr

    def test_default_address_is_synthetic(self):
        node = Node(node_id=70_000, coord=Point(0, 0), capacity=1.0)
        assert node.address == synthetic_address(70_000)
        assert node.address is node.address  # made once, then kept
        assert Node(node_id=3, coord=Point(0, 0), capacity=1.0, address=None).address == (
            synthetic_address(3)
        )

    def test_explicit_address_is_not_replaced(self):
        addr = NodeAddress("10.0.0.9", 7000)
        node = Node(node_id=1, coord=Point(0, 0), capacity=1.0, address=addr)
        assert node.address is addr
        node.address = NodeAddress("10.0.0.8", 7001)
        assert node.address == ("10.0.0.8", 7001)

    def test_usable_in_sets(self):
        nodes = {
            Node(node_id=i % 3, coord=Point(i, i), capacity=1.0)
            for i in range(9)
        }
        assert len(nodes) == 3
