"""Tests for repro.workload.queries."""

import random

import pytest

from repro.geometry import Circle, Point, Rect
from repro.workload import Hotspot, HotspotField, QueryGenerator
from tests.conftest import make_node

BOUNDS = Rect(0, 0, 64, 64)


@pytest.fixture
def rng():
    return random.Random(10)


def single_hotspot_field(center=Point(16, 16), radius=5.0):
    return HotspotField(BOUNDS, [Hotspot(Circle(center, radius))])


class TestSampling:
    def test_centers_inside_bounds(self, rng):
        generator = QueryGenerator(single_hotspot_field())
        for _ in range(300):
            p = generator.sample_center(rng)
            assert BOUNDS.covers(p, closed_low_x=True, closed_low_y=True)

    def test_centers_concentrate_on_hotspot(self, rng):
        center = Point(16, 16)
        generator = QueryGenerator(
            single_hotspot_field(center), background_fraction=0.0
        )
        near = sum(
            1 for _ in range(300)
            if generator.sample_center(rng).distance_to(center) < 8
        )
        assert near > 250

    def test_weights_follow_a_load_move_that_keeps_the_total(self, rng):
        field = HotspotField(BOUNDS, [], cell_size=1.0)
        generator = QueryGenerator(field, background_fraction=0.0)
        field.grid.set_load(0, 0, 1.0)
        assert generator.sample_center(rng).x < 1.0
        # Same total load, now all in the NE cell: the cached
        # cumulative weights must not survive the move.
        field.grid.set_load(0, 0, 0.0)
        field.grid.set_load(63, 63, 1.0)
        for _ in range(20):
            p = generator.sample_center(rng)
            assert p.x > 63.0 and p.y > 63.0

    def test_empty_field_falls_back_to_uniform(self, rng):
        field = HotspotField(BOUNDS, [])
        generator = QueryGenerator(field)
        quadrants = {
            (p.x > 32, p.y > 32)
            for p in (generator.sample_center(rng) for _ in range(200))
        }
        assert len(quadrants) == 4

    def test_background_fraction_one_is_uniform(self, rng):
        generator = QueryGenerator(
            single_hotspot_field(Point(4, 4), 1.0), background_fraction=1.0
        )
        far = sum(
            1 for _ in range(200)
            if generator.sample_center(rng).distance_to(Point(4, 4)) > 16
        )
        assert far > 100

    def test_sampling_follows_migration(self, rng):
        field = single_hotspot_field(Point(8, 8), 4.0)
        generator = QueryGenerator(field, background_fraction=0.0)
        for hotspot in field.hotspots:
            hotspot.circle = hotspot.circle.moved_to(Point(56, 56))
        field.refresh()
        near_new = sum(
            1 for _ in range(200)
            if generator.sample_center(rng).distance_to(Point(56, 56)) < 10
        )
        assert near_new > 150


class TestQueries:
    def test_sample_query_shape(self, rng):
        generator = QueryGenerator(
            single_hotspot_field(), radius_range=(1.0, 2.0)
        )
        focal = make_node(1, 5, 5)
        query = generator.sample_query(focal, rng)
        assert query.focal == focal
        assert 2.0 <= query.query_rect.width <= 4.0
        assert query.query_rect.width == query.query_rect.height

    def test_stream_count(self, rng):
        generator = QueryGenerator(single_hotspot_field())
        focal = make_node(1, 5, 5)
        queries = list(generator.stream(lambda: focal, rng, count=25))
        assert len(queries) == 25

    def test_stream_negative_rejected(self, rng):
        generator = QueryGenerator(single_hotspot_field())
        with pytest.raises(ValueError):
            list(generator.stream(lambda: None, rng, count=-1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius_range": (2.0, 1.0)},
            {"radius_range": (0.0, 1.0)},
            {"background_fraction": -0.1},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            QueryGenerator(single_hotspot_field(), **kwargs)
