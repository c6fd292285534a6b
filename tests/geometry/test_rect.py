"""Tests for repro.geometry.rect -- the paper's region quadruple."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect, SplitAxis

# Overlay rectangles always arise from repeated exact halving of one
# dyadic root rectangle, so edges are dyadic rationals (exact in binary
# floating point).  The strategies mirror that; arbitrary real-valued
# rectangles can differ in the last ulp between `x + width` computed two
# ways, which the overlay never encounters.
coords = st.integers(min_value=-800, max_value=800).map(lambda i: i / 8.0)
sizes = st.integers(min_value=1, max_value=512).map(lambda i: i / 8.0)


@st.composite
def rects(draw):
    return Rect(draw(coords), draw(coords), draw(sizes), draw(sizes))


class TestConstruction:
    def test_quadruple_fields(self):
        r = Rect(1, 2, 3, 4)
        assert (r.x, r.y, r.width, r.height) == (1, 2, 3, 4)
        assert r.x2 == 4 and r.y2 == 6

    @pytest.mark.parametrize("width,height", [(0, 1), (1, 0), (-1, 1), (1, -1)])
    def test_degenerate_extents_rejected(self, width, height):
        with pytest.raises(ValueError):
            Rect(0, 0, width, height)

    def test_area_and_center(self):
        r = Rect(0, 0, 4, 2)
        assert r.area == 8
        assert r.center == Point(2, 1)

    def test_aspect_ratio(self):
        assert Rect(0, 0, 8, 2).aspect_ratio == 4.0
        assert Rect(0, 0, 2, 8).aspect_ratio == 4.0
        assert Rect(0, 0, 3, 3).aspect_ratio == 1.0

    def test_corners(self):
        sw, se, ne, nw = Rect(0, 0, 2, 1).corners()
        assert sw == Point(0, 0)
        assert se == Point(2, 0)
        assert ne == Point(2, 1)
        assert nw == Point(0, 1)


class TestHash:
    """The hash is cached on first use but stays the field-tuple hash,
    so set and dict iteration orders (and seeded traces) do not move."""

    @pytest.mark.parametrize(
        "fields", [(1, 2, 3, 4), (0.5, -7.25, 0.125, 64.0), (0, 0, 64, 64)]
    )
    def test_hash_is_field_tuple_hash(self, fields):
        r = Rect(*fields)
        assert hash(r) == hash(fields)
        assert hash(r) == hash(fields)  # cached path

    def test_hash_survives_copies(self):
        r = Rect(1.5, 2.0, 3.0, 4.25)
        expected = hash((1.5, 2.0, 3.0, 4.25))
        hash(r)  # populate the cache before copying
        moved = dataclasses.replace(r, x=9.0)
        assert hash(moved) == hash((9.0, 2.0, 3.0, 4.25))
        for clone in (
            copy.deepcopy(r),
            copy.copy(r),
            pickle.loads(pickle.dumps(r)),
            pickle.loads(pickle.dumps(Rect(1.5, 2.0, 3.0, 4.25))),
        ):
            assert clone == r
            assert hash(clone) == expected

    def test_equal_rects_collide_in_sets(self):
        assert len({Rect(0, 0, 1, 1), Rect(0.0, 0.0, 1.0, 1.0)}) == 1


class TestCoverage:
    """The paper's exact predicate: (r.x < o.x <= r.x+w) and same for y."""

    def test_interior_point_covered(self):
        assert Rect(0, 0, 10, 10).covers(Point(5, 5))

    def test_low_edges_open(self):
        r = Rect(0, 0, 10, 10)
        assert not r.covers(Point(0, 5))
        assert not r.covers(Point(5, 0))
        assert not r.covers(Point(0, 0))

    def test_high_edges_closed(self):
        r = Rect(0, 0, 10, 10)
        assert r.covers(Point(10, 5))
        assert r.covers(Point(5, 10))
        assert r.covers(Point(10, 10))

    def test_closed_low_flags(self):
        r = Rect(0, 0, 10, 10)
        assert r.covers(Point(0, 5), closed_low_x=True)
        assert r.covers(Point(5, 0), closed_low_y=True)
        assert r.covers(Point(0, 0), closed_low_x=True, closed_low_y=True)

    def test_outside_never_covered(self):
        r = Rect(0, 0, 10, 10)
        assert not r.covers(Point(11, 5))
        assert not r.covers(Point(5, -1))

    @given(rects())
    def test_split_halves_partition_coverage(self, r):
        """After a split, every covered point is covered by exactly one half."""
        for axis in SplitAxis:
            low, high = r.split(axis)
            probes = [
                r.center,
                Point(r.x + r.width * 0.25, r.y + r.height * 0.75),
                Point(r.x2, r.y2),
                Point(r.x + r.width / 2, r.y + r.height / 2),
            ]
            for p in probes:
                if r.covers(p):
                    assert low.covers(p) != high.covers(p)


class TestNeighborship:
    """Neighbors iff the intersection is a line segment."""

    def test_abutting_vertically_are_neighbors(self):
        assert Rect(0, 0, 2, 2).is_neighbor_of(Rect(2, 0, 2, 2))

    def test_abutting_horizontally_are_neighbors(self):
        assert Rect(0, 0, 2, 2).is_neighbor_of(Rect(0, 2, 2, 2))

    def test_partial_edge_overlap_is_neighbor(self):
        assert Rect(0, 0, 2, 2).is_neighbor_of(Rect(2, 1, 2, 4))

    def test_corner_touch_is_not_neighbor(self):
        assert not Rect(0, 0, 2, 2).is_neighbor_of(Rect(2, 2, 2, 2))

    def test_disjoint_are_not_neighbors(self):
        assert not Rect(0, 0, 2, 2).is_neighbor_of(Rect(5, 0, 2, 2))

    def test_overlapping_are_not_neighbors(self):
        assert not Rect(0, 0, 4, 4).is_neighbor_of(Rect(2, 2, 4, 4))

    @given(rects(), rects())
    def test_neighborship_is_symmetric(self, a, b):
        assert a.is_neighbor_of(b) == b.is_neighbor_of(a)

    @given(rects())
    def test_split_halves_are_neighbors(self, r):
        for axis in SplitAxis:
            low, high = r.split(axis)
            assert low.is_neighbor_of(high)


class TestIntersection:
    def test_overlap(self):
        overlap = Rect(0, 0, 4, 4).intersection(Rect(2, 2, 4, 4))
        assert overlap == Rect(2, 2, 2, 2)

    def test_edge_touch_has_no_intersection(self):
        assert Rect(0, 0, 2, 2).intersection(Rect(2, 0, 2, 2)) is None

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 3, 3))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(8, 8, 3, 3))

    @given(rects(), rects())
    def test_intersection_symmetric(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        overlap = a.intersection(b)
        if overlap is not None:
            assert a.contains_rect(overlap)
            assert b.contains_rect(overlap)


class TestTouches:
    """Closed-rect contact: area overlap, shared edge, or shared corner."""

    def test_area_overlap_touches(self):
        assert Rect(0, 0, 4, 4).touches(Rect(2, 2, 4, 4))

    def test_edge_contact_touches(self):
        assert Rect(0, 0, 2, 2).touches(Rect(2, 0, 2, 2))

    def test_corner_contact_touches(self):
        assert Rect(0, 0, 2, 2).touches(Rect(2, 2, 2, 2))

    def test_disjoint_does_not_touch(self):
        assert not Rect(0, 0, 2, 2).touches(Rect(5, 5, 2, 2))
        assert not Rect(0, 0, 2, 2).touches(Rect(3, 0, 2, 2))

    def test_strictly_weaker_than_intersects(self):
        # Zero-measure contact is exactly the gap between the two
        # predicates -- the query fan-out bug hid in it.
        edge, corner = Rect(2, 0, 2, 2), Rect(2, 2, 2, 2)
        for other in (edge, corner):
            assert Rect(0, 0, 2, 2).touches(other)
            assert not Rect(0, 0, 2, 2).intersects(other)

    @given(rects(), rects())
    def test_symmetric(self, a, b):
        assert a.touches(b) == b.touches(a)

    @given(rects(), rects())
    def test_implied_by_intersects(self, a, b):
        if a.intersects(b):
            assert a.touches(b)


class TestDistance:
    def test_inside_is_zero(self):
        assert Rect(0, 0, 4, 4).distance_to_point(Point(2, 2)) == 0.0

    def test_on_border_is_zero(self):
        assert Rect(0, 0, 4, 4).distance_to_point(Point(0, 2)) == 0.0

    def test_axis_aligned_distance(self):
        assert Rect(0, 0, 4, 4).distance_to_point(Point(7, 2)) == 3.0

    def test_diagonal_distance(self):
        assert Rect(0, 0, 4, 4).distance_to_point(Point(7, 8)) == 5.0

    @given(rects(), coords, coords)
    def test_distance_nonnegative(self, r, x, y):
        assert r.distance_to_point(Point(x, y)) >= 0.0


class TestSplitMerge:
    def test_split_vertical_halves_width(self):
        low, high = Rect(0, 0, 8, 4).split(SplitAxis.VERTICAL)
        assert low == Rect(0, 0, 4, 4)
        assert high == Rect(4, 0, 4, 4)

    def test_split_horizontal_halves_height(self):
        low, high = Rect(0, 0, 8, 4).split(SplitAxis.HORIZONTAL)
        assert low == Rect(0, 0, 8, 2)
        assert high == Rect(0, 2, 8, 2)

    def test_longer_axis_prefers_height_on_tie(self):
        assert Rect(0, 0, 4, 4).longer_axis() is SplitAxis.HORIZONTAL
        assert Rect(0, 0, 8, 4).longer_axis() is SplitAxis.VERTICAL
        assert Rect(0, 0, 4, 8).longer_axis() is SplitAxis.HORIZONTAL

    @given(rects())
    def test_split_then_merge_roundtrip(self, r):
        for axis in SplitAxis:
            low, high = r.split(axis)
            assert low.can_merge_with(high)
            merged = low.merge_with(high)
            assert merged.x == pytest.approx(r.x)
            assert merged.y == pytest.approx(r.y)
            assert merged.width == pytest.approx(r.width)
            assert merged.height == pytest.approx(r.height)

    @given(rects())
    def test_split_conserves_area(self, r):
        for axis in SplitAxis:
            low, high = r.split(axis)
            assert low.area + high.area == pytest.approx(r.area)

    def test_cannot_merge_different_widths(self):
        assert not Rect(0, 0, 2, 2).can_merge_with(Rect(0, 2, 3, 2))

    def test_cannot_merge_disjoint(self):
        assert not Rect(0, 0, 2, 2).can_merge_with(Rect(0, 4, 2, 2))

    def test_cannot_merge_corner_touch(self):
        assert not Rect(0, 0, 2, 2).can_merge_with(Rect(2, 2, 2, 2))

    def test_merge_illegal_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 2, 2).merge_with(Rect(5, 5, 2, 2))

    def test_merge_row_pair(self):
        merged = Rect(0, 0, 2, 2).merge_with(Rect(2, 0, 2, 2))
        assert merged == Rect(0, 0, 4, 2)


class TestSampling:
    @given(rects(), st.floats(min_value=0, max_value=0.999),
           st.floats(min_value=0, max_value=0.999))
    def test_sample_interior_point_is_covered(self, r, u, v):
        assert r.covers(r.sample_interior_point(u, v))

    def test_sample_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).sample_interior_point(1.0, 0.5)
