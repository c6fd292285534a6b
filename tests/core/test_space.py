"""Tests for repro.core.space -- the partition manager."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError, PartitionError
from repro.core.region import Region
from repro.core.space import Space, _set_rect
from repro.geometry import Point, Rect, SplitAxis


def make_space(bounds=Rect(0, 0, 64, 64)):
    space = Space(bounds)
    root = Region(rect=bounds)
    space.add_root(root)
    return space, root


class TestRoot:
    def test_add_root(self):
        space, root = make_space()
        assert space.region_count() == 1
        assert space.neighbors(root) == set()

    def test_root_must_match_bounds(self):
        space = Space(Rect(0, 0, 64, 64))
        with pytest.raises(PartitionError):
            space.add_root(Region(rect=Rect(0, 0, 32, 64)))

    def test_double_root_rejected(self):
        space, _ = make_space()
        with pytest.raises(PartitionError):
            space.add_root(Region(rect=space.bounds))

    def test_empty_space_queries_raise(self):
        space = Space(Rect(0, 0, 64, 64))
        with pytest.raises(PartitionError):
            space.any_region()
        with pytest.raises(PartitionError):
            space.locate(Point(1, 1))


class TestSplit:
    def test_split_keeps_low(self):
        space, root = make_space()
        new = space.split_region(root, axis=SplitAxis.VERTICAL, keep="low")
        assert root.rect == Rect(0, 0, 32, 64)
        assert new.rect == Rect(32, 0, 32, 64)
        space.check_invariants()

    def test_split_keeps_high(self):
        space, root = make_space()
        new = space.split_region(root, axis=SplitAxis.VERTICAL, keep="high")
        assert root.rect == Rect(32, 0, 32, 64)
        assert new.rect == Rect(0, 0, 32, 64)
        space.check_invariants()

    def test_split_default_axis_cuts_longer_side(self):
        space, root = make_space(Rect(0, 0, 64, 32))
        new = space.split_region(root)
        assert root.rect.width == 32 and new.rect.width == 32

    def test_split_makes_halves_neighbors(self):
        space, root = make_space()
        new = space.split_region(root)
        assert new in space.neighbors(root)
        assert root in space.neighbors(new)

    def test_split_invalid_keep(self):
        space, root = make_space()
        with pytest.raises(ValueError):
            space.split_region(root, keep="middle")

    def test_split_foreign_region_rejected(self):
        space, _ = make_space()
        with pytest.raises(PartitionError):
            space.split_region(Region(rect=Rect(0, 0, 1, 1)))

    def test_adjacency_updates_after_splits(self):
        space, root = make_space()
        right = space.split_region(root, axis=SplitAxis.VERTICAL)
        top_left = space.split_region(root, axis=SplitAxis.HORIZONTAL)
        # root = SW quarter-ish, right = east half, top_left = NW
        assert right in space.neighbors(root)
        assert top_left in space.neighbors(root)
        assert right in space.neighbors(top_left)
        space.check_invariants()


    def test_split_below_edge_tolerance_refused(self):
        space, root = make_space(Rect(0, 0, 1.5e-9, 64))
        with pytest.raises(PartitionError):
            space.split_region(root, axis=SplitAxis.VERTICAL)
        assert space.region_count() == 1
        assert root.rect == Rect(0, 0, 1.5e-9, 64)
        assert root.stamp == space.stamp == 0
        space.split_region(root, axis=SplitAxis.HORIZONTAL)
        space.check_invariants()

    def test_split_and_merge_stamp_the_regions_they_restructure(self):
        space, root = make_space()
        east = space.split_region(root, axis=SplitAxis.VERTICAL)
        assert space.stamp == root.stamp == east.stamp == 1
        north = space.split_region(east, axis=SplitAxis.HORIZONTAL)
        assert space.stamp == east.stamp == north.stamp == 2
        assert root.stamp == 1
        space.merge_regions(east, north)
        assert space.stamp == east.stamp == north.stamp == 3
        assert root.stamp == 1


class TestEdgeTuples:
    def test_root_split_and_merge_set_the_edge_tuple(self):
        space, root = make_space()
        assert root.edges == (0.0, 64.0, 0.0, 64.0)
        east = space.split_region(root, axis=SplitAxis.VERTICAL)
        assert root.edges == (0.0, 32.0, 0.0, 64.0)
        assert east.edges == (32.0, 64.0, 0.0, 64.0)
        space.merge_regions(root, east)
        assert root.edges == (0.0, 64.0, 0.0, 64.0)

    def test_stale_edge_tuple_is_a_violation(self):
        space, root = make_space()
        east = space.split_region(root, axis=SplitAxis.VERTICAL)
        east.edges = root.edges
        with pytest.raises(PartitionError, match="stale edges"):
            space.check_invariants()


class TestMerge:
    def test_merge_restores_rect(self):
        space, root = make_space()
        new = space.split_region(root, axis=SplitAxis.VERTICAL)
        space.merge_regions(root, new)
        assert root.rect == space.bounds
        assert space.region_count() == 1
        space.check_invariants()

    def test_merge_non_sibling_rejected(self):
        space, root = make_space()
        right = space.split_region(root, axis=SplitAxis.VERTICAL)
        ne = space.split_region(right, axis=SplitAxis.HORIZONTAL)
        # root (west half) cannot merge with the NE quarter.
        with pytest.raises(GeometryError):
            space.merge_regions(root, ne)

    def test_merge_with_self_rejected(self):
        space, root = make_space()
        with pytest.raises(PartitionError):
            space.merge_regions(root, root)

    def test_merge_keeps_survivor_identity(self):
        space, root = make_space()
        new = space.split_region(root)
        rid = root.region_id
        merged = space.merge_regions(root, new)
        assert merged is root
        assert merged.region_id == rid
        assert new not in space


class TestLocate:
    def test_locate_in_single_region(self):
        space, root = make_space()
        assert space.locate(Point(10, 10)) is root

    def test_locate_after_splits(self):
        space, root = make_space()
        east = space.split_region(root, axis=SplitAxis.VERTICAL)
        assert space.locate(Point(10, 10)) is root
        assert space.locate(Point(50, 10)) is east

    def test_locate_outside_bounds_raises(self):
        space, _ = make_space()
        with pytest.raises(PartitionError):
            space.locate(Point(100, 100))

    def test_locate_space_border_points(self):
        """The space's own west/south border is still owned."""
        space, root = make_space()
        east = space.split_region(root, axis=SplitAxis.VERTICAL)
        assert space.locate(Point(0.0, 10.0)) is root
        assert space.locate(Point(10.0, 0.0)) is root
        assert space.locate(Point(0.0, 0.0)) is root
        assert space.locate(Point(64.0, 64.0)) is east

    def test_locate_shared_edge_goes_to_east_owner(self):
        """Half-open rule: a point on a shared vertical edge belongs to
        the region whose *high* edge it is (the western one)."""
        space, root = make_space()
        east = space.split_region(root, axis=SplitAxis.VERTICAL)
        assert space.locate(Point(32.0, 10.0)) is root

    def test_locate_records_path(self):
        space, root = make_space()
        regions = [root]
        for _ in range(5):
            regions.append(space.split_region(regions[-1]))
        path = []
        space.locate(Point(1, 1), hint=regions[-1], path=path)
        assert path[0] is regions[-1]
        assert space.region_covers(path[-1], Point(1, 1))

    def test_locate_with_stale_hint(self):
        space, root = make_space()
        new = space.split_region(root)
        space.merge_regions(root, new)  # new is now stale
        assert space.locate(Point(1, 1), hint=new) is root


class TestIterIntersecting:
    def test_fanout_finds_all_overlapping(self):
        space, root = make_space()
        regions = [root]
        rng = random.Random(3)
        for _ in range(40):
            target = regions[rng.randrange(len(regions))]
            regions.append(space.split_region(target))
        query = Rect(10, 10, 20, 20)
        found = set(space.iter_regions_intersecting(query))
        expected = {r for r in space.regions if r.rect.intersects(query)}
        assert found == expected

    def test_tiny_query_hits_one_region(self):
        space, root = make_space()
        space.split_region(root)
        found = list(space.iter_regions_intersecting(Rect(1, 1, 0.5, 0.5)))
        assert len(found) == 1


class TestInvariantsUnderRandomOperations:
    """Property test: random split/merge sequences keep the partition sane."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_random_split_merge_sequences(self, seed):
        rng = random.Random(seed)
        space, root = make_space()
        regions = [root]
        for _ in range(60):
            if rng.random() < 0.7 or len(regions) < 3:
                target = regions[rng.randrange(len(regions))]
                regions.append(space.split_region(target))
            else:
                target = regions[rng.randrange(len(regions))]
                mergeable = [
                    n for n in space.neighbors(target)
                    if n.rect.can_merge_with(target.rect)
                ]
                if mergeable:
                    absorbed = mergeable[0]
                    space.merge_regions(target, absorbed)
                    regions.remove(absorbed)
        space.check_invariants()
        # Point location agrees with the linear scan everywhere.
        for _ in range(25):
            point = Point(rng.uniform(0.001, 64), rng.uniform(0.001, 64))
            assert space.locate(point) is space._scan(point)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_region_count_tracks_operations(self, seed):
        rng = random.Random(seed)
        space, root = make_space()
        regions = [root]
        splits = merges = 0
        for _ in range(30):
            if rng.random() < 0.6 or len(regions) < 2:
                regions.append(
                    space.split_region(regions[rng.randrange(len(regions))])
                )
                splits += 1
            else:
                target = regions[rng.randrange(len(regions))]
                mergeable = [
                    n for n in space.neighbors(target)
                    if n.rect.can_merge_with(target.rect)
                ]
                if mergeable:
                    space.merge_regions(target, mergeable[0])
                    regions.remove(mergeable[0])
                    merges += 1
        assert space.region_count() == 1 + splits - merges


def grid_4x4():
    """A uniform 4x4 tiling (two rounds of split-every-region)."""
    space, root = make_space()
    for _ in range(2):
        for region in list(space.regions):
            space.split_region(region, axis=SplitAxis.VERTICAL)
        for region in list(space.regions):
            space.split_region(region, axis=SplitAxis.HORIZONTAL)
    space.check_invariants()
    assert space.region_count() == 16
    return space


def hop_distances(space, start):
    """Hop distance from ``start`` to every region (reference BFS)."""
    from collections import deque

    distance = {start: 0}
    frontier = deque([start])
    while frontier:
        region = frontier.popleft()
        for neighbor in space.neighbors(region):
            if neighbor not in distance:
                distance[neighbor] = distance[region] + 1
                frontier.append(neighbor)
    return distance


class TestIterIntersectingDegenerate:
    """Regression: a sliver query whose center rounds onto a region
    boundary used to make ``iter_regions_intersecting`` yield nothing."""

    def test_sliver_on_split_line_yields_both_abutting_regions(self):
        space, root = make_space()
        space.split_region(root, axis=SplitAxis.VERTICAL)
        # Width 1e-300 survives Rect's positive-extent check, but the
        # center x collapses to exactly 32.0 -- the split line -- so the
        # rect shares interior area with no region.  It *touches* both
        # halves, and closed-boundary fan-out must visit both: either
        # could own a point query matched on the shared edge.
        sliver = Rect(32.0, 10.0, 1e-300, 1.0)
        start = space.locate(sliver.center)
        assert not start.rect.intersects(sliver)
        found = list(space.iter_regions_intersecting(sliver))
        assert start in found
        assert set(found) == {
            r for r in space.regions if r.rect.touches(sliver)
        }
        assert len(found) == 2

    def test_sliver_matches_fanout_fallback(self):
        from repro.core.routing import _fanout

        space, root = make_space()
        space.split_region(root, axis=SplitAxis.VERTICAL)
        sliver = Rect(32.0, 10.0, 1e-300, 1.0)
        start = space.locate(sliver.center)
        assert list(space.iter_regions_intersecting(sliver)) == _fanout(
            space, start, sliver
        )


class TestIterIntersectingOrder:
    """Regression: the frontier was popped LIFO (depth-first) while the
    docstring promised BFS; the traversal is now genuinely FIFO."""

    def test_yields_in_nondecreasing_hop_distance(self):
        space = grid_4x4()
        query = Rect(0.5, 0.5, 63.0, 63.0)  # overlaps all 16 regions
        order = list(space.iter_regions_intersecting(query))
        assert len(order) == 16
        distance = hop_distances(space, order[0])
        distances = [distance[region] for region in order]
        assert distances == sorted(distances), (
            f"not breadth-first: distances along yield order {distances}"
        )


class TestRegionsView:
    """Regression: ``Space.regions`` used to return the internal mutable
    set, letting callers corrupt the partition."""

    def test_view_is_not_mutable(self):
        space, root = make_space()
        view = space.regions
        assert not hasattr(view, "add")
        assert not hasattr(view, "discard")
        with pytest.raises(AttributeError):
            view.add(Region(rect=Rect(0, 0, 1, 1)))

    def test_view_is_live(self):
        space, root = make_space()
        view = space.regions
        assert len(view) == 1
        new = space.split_region(root)
        assert len(view) == 2
        assert new in view
        space.merge_regions(root, new)
        assert len(view) == 1
        assert new not in view

    def test_view_supports_set_algebra(self):
        space, root = make_space()
        new = space.split_region(root)
        others = space.regions - {root}
        assert others == {new}
        assert isinstance(others, frozenset)

    def test_mutating_view_cannot_corrupt_partition(self):
        space, root = make_space()
        before = space.region_count()
        try:
            space.regions.add(Region(rect=Rect(0, 0, 1, 1)))
        except AttributeError:
            pass
        assert space.region_count() == before
        space.check_invariants()


class TestBoundaryPointLocation:
    """Every point of the bounds is covered by exactly one region, even on
    shared edges, corner meeting points and the west/south border."""

    def test_point_on_shared_vertical_edge(self):
        space, root = make_space()
        space.split_region(root, axis=SplitAxis.VERTICAL)
        point = Point(32.0, 10.0)
        located = space.locate(point)
        # Half-open rule (open-low, closed-high): the west region owns
        # its own east edge.
        assert located.rect.x2 == 32.0
        assert space.region_covers(located, point)

    def test_point_on_shared_horizontal_edge(self):
        space, root = make_space()
        space.split_region(root, axis=SplitAxis.HORIZONTAL)
        point = Point(10.0, 32.0)
        located = space.locate(point)
        assert located.rect.y2 == 32.0
        assert space.region_covers(located, point)

    def test_four_corner_meeting_point(self):
        space = grid_4x4()
        point = Point(32.0, 32.0)
        located = space.locate(point)
        covering = [
            r for r in space.regions if space.region_covers(r, point)
        ]
        assert covering == [located]
        # The region whose northeast corner this is owns the point.
        assert located.rect.x2 == 32.0 and located.rect.y2 == 32.0

    def test_west_border_is_closed(self):
        space = grid_4x4()
        point = Point(0.0, 10.0)
        located = space.locate(point)
        assert located.rect.x == 0.0
        assert space.region_covers(located, point)

    def test_south_border_is_closed(self):
        space = grid_4x4()
        point = Point(10.0, 0.0)
        located = space.locate(point)
        assert located.rect.y == 0.0
        assert space.region_covers(located, point)

    def test_origin_corner(self):
        space = grid_4x4()
        located = space.locate(Point(0.0, 0.0))
        assert located.rect.x == 0.0 and located.rect.y == 0.0

    def test_every_boundary_point_covered_exactly_once(self):
        space = grid_4x4()
        lines = [0.0, 16.0, 32.0, 48.0]
        probes = [Point(x, y) for x in lines for y in lines]
        probes += [Point(x, 23.5) for x in lines]
        probes += [Point(23.5, y) for y in lines]
        for point in probes:
            covering = [
                r for r in space.regions if space.region_covers(r, point)
            ]
            assert len(covering) == 1, f"{point} covered by {covering}"
            assert space.locate(point) is covering[0]


# ----------------------------------------------------------------------
# check_invariants against the all-pairs reference
# ----------------------------------------------------------------------
def reference_check(space):
    """The quadratic all-pairs invariant check that ``check_invariants``
    replaces: every pair of regions is tested for overlap and adjacency."""
    regions = list(space.regions)
    if not regions:
        return
    total_area = sum(r.rect.area for r in regions)
    if not math.isclose(total_area, space.bounds.area, rel_tol=1e-9):
        raise PartitionError("areas do not tile the space")
    for i, a in enumerate(regions):
        if not space.bounds.contains_rect(a.rect):
            raise PartitionError(f"{a!r} sticks out of the bounds")
        for b in regions[i + 1:]:
            if a.rect.intersects(b.rect):
                raise PartitionError(f"{a!r} and {b!r} overlap")
    if set(space._adjacency) != set(regions):
        raise PartitionError("adjacency keys do not match the region set")
    for a in regions:
        for b in regions:
            if a is b:
                continue
            recorded = b in space.neighbors(a)
            if a.rect.is_neighbor_of(b.rect) != recorded:
                raise PartitionError(f"adjacency mismatch between {a!r} and {b!r}")
            if recorded != (a in space.neighbors(b)):
                raise PartitionError(f"adjacency between {a!r} and {b!r} is asymmetric")


def random_partition(seed, steps=300):
    """A seeded partition grown by random splits, with some merges back."""
    rng = random.Random(seed)
    space, root = make_space()
    for _ in range(steps):
        regions = sorted(space.regions, key=lambda r: r.region_id)
        target = rng.choice(regions)
        if rng.random() < 0.8 or len(regions) < 3:
            if target.rect.can_split(target.rect.longer_axis()):
                space.split_region(target, keep=rng.choice(("low", "high")))
            continue
        mergeable = sorted(
            (n for n in space.neighbors(target) if n.rect.can_merge_with(target.rect)),
            key=lambda r: r.region_id,
        )
        if mergeable:
            space.merge_regions(target, mergeable[0])
    return space, rng


def by_id(regions):
    return sorted(regions, key=lambda r: r.region_id)


def inject_overlap(space, rng):
    """Grow a region 1e-8 into its east neighbors: an overlap too thin
    for the area sum to notice."""
    region = rng.choice([r for r in by_id(space.regions) if r.rect.x2 < 64.0])
    r = region.rect
    _set_rect(region, Rect(r.x, r.y, r.width + 1e-8, r.height))


def inject_gap(space, rng):
    region = rng.choice(by_id(space.regions))
    r = region.rect
    _set_rect(region, Rect(r.x, r.y, r.width / 2.0, r.height))


def inject_out_of_bounds(space, rng):
    """Shift an east-border region further east (the area is unchanged)."""
    region = rng.choice([r for r in by_id(space.regions) if r.rect.x2 == 64.0])
    r = region.rect
    _set_rect(region, Rect(r.x + r.width / 2.0, r.y, r.width, r.height))


def inject_missing_adjacency(space, rng):
    region = rng.choice(by_id(space.regions))
    neighbor = rng.choice(by_id(space.neighbors(region)))
    space._adjacency[region].discard(neighbor)
    space._adjacency[neighbor].discard(region)


def inject_extra_adjacency(space, rng):
    """Record two far-apart regions as neighbors, both ways."""
    region = rng.choice(by_id(space.regions))
    far = [
        r for r in by_id(space.regions)
        if r is not region and not r.rect.touches(region.rect)
    ]
    other = rng.choice(far)
    space._adjacency[region].add(other)
    space._adjacency[other].add(region)


def inject_corner_adjacency(space, rng):
    """Record two regions that meet only at a corner as neighbors."""
    pairs = [
        (a, b)
        for a in by_id(space.regions)
        for b in by_id(space.regions)
        if a.region_id < b.region_id
        and a.rect.touches(b.rect)
        and not a.rect.is_neighbor_of(b.rect)
    ]
    a, b = rng.choice(pairs)
    space._adjacency[a].add(b)
    space._adjacency[b].add(a)


def inject_one_way_adjacency(space, rng):
    region = rng.choice(by_id(space.regions))
    neighbor = rng.choice(by_id(space.neighbors(region)))
    space._adjacency[region].discard(neighbor)


FAULTS = [
    inject_overlap,
    inject_gap,
    inject_out_of_bounds,
    inject_missing_adjacency,
    inject_extra_adjacency,
    inject_corner_adjacency,
    inject_one_way_adjacency,
]


class TestCheckInvariantsMatchesAllPairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_clean_partitions_pass_both(self, seed):
        space, _ = random_partition(seed)
        reference_check(space)
        space.check_invariants()

    @pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__[len("inject_"):])
    @pytest.mark.parametrize("seed", range(6))
    def test_every_fault_fails_both(self, fault, seed):
        space, rng = random_partition(seed)
        fault(space, rng)
        with pytest.raises(PartitionError):
            reference_check(space)
        with pytest.raises(PartitionError):
            space.check_invariants()


def _entry_with_rows(space, rng, count):
    """A region id whose link-table entry has at least ``count`` rows."""
    ids = sorted(rid for rid, rows in space.links.items() if len(rows) >= count)
    return rng.choice(ids)


def inject_stale_link(space, rng):
    """One row keeps a neighbor's edges from before it was resized."""
    rid = _entry_with_rows(space, rng, 1)
    rows = list(space.links[rid])
    x, x2, y, y2, neighbor_id = rows[0]
    rows[0] = (x, x2 + 1e-9, y, y2, neighbor_id)
    space.links[rid] = tuple(rows)


def inject_missing_link(space, rng):
    rid = _entry_with_rows(space, rng, 1)
    space.links[rid] = space.links[rid][1:]


def inject_extra_link(space, rng):
    """A far-away region's row appended to an entry."""
    rid = _entry_with_rows(space, rng, 1)
    region = space.by_id[rid]
    far = [
        r for r in by_id(space.regions)
        if r is not region and not r.rect.touches(region.rect)
    ]
    space.links[rid] += (rng.choice(far).link,)


def inject_reordered_link(space, rng):
    rid = _entry_with_rows(space, rng, 2)
    space.links[rid] = space.links[rid][::-1]


LINK_FAULTS = [
    inject_stale_link,
    inject_missing_link,
    inject_extra_link,
    inject_reordered_link,
]


class TestLinkTable:
    def test_split_and_merge_keep_entries_in_adjacency_order(self):
        space, _ = random_partition(3)
        for region in space.regions:
            assert space.by_id[region.region_id] is region
            assert space.links[region.region_id] == tuple(
                (*n.edges, n.region_id) for n in space.neighbors(region)
            )
        assert space.links.keys() == space.by_id.keys()

    @pytest.mark.parametrize(
        "fault", LINK_FAULTS, ids=lambda f: f.__name__[len("inject_"):]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_every_table_fault_is_a_violation(self, fault, seed):
        space, rng = random_partition(seed)
        space.check_invariants()
        fault(space, rng)
        with pytest.raises(PartitionError, match="link-table entry"):
            space.check_invariants()

    def test_entry_of_a_removed_region_is_a_violation(self):
        space, rng = random_partition(1)
        space.links[max(space.links) + 1] = ()
        with pytest.raises(PartitionError, match="link-table keys"):
            space.check_invariants()

    def test_stale_link_row_is_a_violation(self):
        space, root = make_space()
        east = space.split_region(root, axis=SplitAxis.VERTICAL)
        east.link = root.link
        with pytest.raises(PartitionError, match="stale link row"):
            space.check_invariants()
