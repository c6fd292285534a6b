"""Shared fixtures for the GeoGrid test suite."""

import random

import pytest
from hypothesis import settings

from repro.geometry import Point, Rect
from repro.core.node import Node
from repro.core.query import reset_query_ids
from repro.core.region import reset_region_ids
from repro.protocol.node import reset_request_ids

# Property tests draw the same examples on every run, so a tier-1 failure
# reproduces as is.  Loaded before the test modules are imported, so their
# per-test ``@settings(...)`` inherit it.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _fresh_id_counters():
    """Rewind the module-level id counters before every test.

    Query, region, and protocol request ids come from process-wide
    ``itertools.count`` streams; without this reset, every id depends on
    how many tests ran earlier, so a failing test can reproduce
    differently under ``pytest path::test`` than inside the full suite.
    """
    reset_query_ids()
    reset_region_ids()
    reset_request_ids()


@pytest.fixture
def bounds() -> Rect:
    """The paper's 64 mi x 64 mi service area."""
    return Rect(0.0, 0.0, 64.0, 64.0)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for test randomness."""
    return random.Random(12345)


def make_node(
    node_id: int, x: float, y: float, capacity: float = 1.0
) -> Node:
    """Terse node construction used all over the suite."""
    return Node(node_id=node_id, coord=Point(x, y), capacity=capacity)


@pytest.fixture
def node_factory():
    """Callable fixture building nodes with auto-incrementing ids."""
    counter = {"next": 0}

    def factory(x: float, y: float, capacity: float = 1.0) -> Node:
        node = make_node(counter["next"], x, y, capacity)
        counter["next"] += 1
        return node

    return factory
