"""Differential tests for the model layer's hot loops.

The greedy walk (``Space.locate``), the region-load lookup
(``CellGrid.load_in_rect``), the TTL search (``ttl_search``), the memo
of TTL rings (``RingMemo``), the query fan-out (``routing._fanout``) and
the round order of ``AdaptationEngine.run_round`` are written for speed.
Each is checked here against a plain reference copy of the
straightforward algorithm, on a seeded 512-node dual-peer overlay: the
fast versions must return exactly what the references do.  The walk, the
ring memo and the space's link table are also checked while joins,
departures and adaptations restructure it.
"""

import math
import random
from collections import deque

import pytest

from repro.experiments.build import build_network
from repro.experiments.config import ExperimentConfig, SystemVariant
from repro.geometry import CellGrid, Circle, Point, Rect
from repro.core.node import Node
from repro.core.routing import _fanout
from repro.loadbalance import AdaptationEngine, AdaptationPlan, ttl_search
from repro.loadbalance.mechanisms import MergeWithNeighbor
from repro.loadbalance.search import RingMemo
from repro.sim.rng import RngStreams
from repro.workload.queries import QueryGenerator

_PROGRESS_EPS = 1e-12


@pytest.fixture
def network():
    return build_network(
        SystemVariant.DUAL_PEER_ADAPTATION,
        512,
        ExperimentConfig(trials=1),
        RngStreams(20070625),
    )


def sorted_regions(space):
    return sorted(space.regions, key=lambda region: region.region_id)


# ----------------------------------------------------------------------
# (a) greedy walk
# ----------------------------------------------------------------------
def reference_walk(space, point, hint):
    """The greedy walk on ``Rect.distance_to_point``; returns (region, path, hops, exit)."""
    regions = space.regions
    current = hint if hint in regions else space._hint_for(point)
    if current is None or current not in regions:
        current = space.any_region()
    path = [current]
    hops = 0
    current_dist = current.rect.distance_to_point(point)
    for _ in range(len(regions) + 4):
        if space.region_covers(current, point):
            return current, path, hops, "walk"
        best = None
        best_dist = math.inf
        for neighbor in space.neighbors(current):
            d = neighbor.rect.distance_to_point(point)
            if d < best_dist:
                best, best_dist = neighbor, d
        if best is not None and best_dist < current_dist - _PROGRESS_EPS:
            current, current_dist = best, best_dist
            hops += 1
            path.append(current)
            continue
        for neighbor in space.neighbors(current):
            if space.region_covers(neighbor, point):
                path.append(neighbor)
                return neighbor, path, hops + 1, "neighbor"
        for region in regions:
            if space.region_covers(region, point):
                if region is not current:
                    path.append(region)
                return region, path, hops, "scan"
    raise AssertionError("reference walk did not converge")


def boundary_points(rect):
    """The corners and edge midpoints of ``rect``, plus the corners
    nudged just outside it, so edge-exact distances decide the walk."""
    cx = rect.x + rect.width / 2.0
    cy = rect.y + rect.height / 2.0
    nudged = [
        Point(min(max(x, 0.0), 64.0), min(max(y, 0.0), 64.0))
        for x, y in (
            (rect.x - 1e-10, rect.y - 1e-10),
            (rect.x2 + 1e-10, rect.y2 + 1e-10),
        )
    ]
    return list(rect.corners()) + nudged + [
        Point(cx, rect.y),
        Point(rect.x2, cy),
        Point(cx, rect.y2),
        Point(rect.x, cy),
    ]


class TestGreedyWalk:
    def check(self, space, point, hint):
        expected, expected_path, expected_hops, exit_kind = reference_walk(space, point, hint)
        path = []
        hops_before = space.walk_hops
        located = space.locate(point, hint, path)
        assert located is expected
        assert path == expected_path
        assert space.walk_hops - hops_before == expected_hops
        return exit_kind

    def test_uniform_targets_match_reference(self, network):
        space = network.overlay.space
        regions = sorted_regions(space)
        rng = random.Random(11)
        for _ in range(2000):
            point = Point(rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0))
            hint = rng.choice(regions) if rng.random() < 0.8 else None
            self.check(space, point, hint)

    def test_region_corners_and_edge_midpoints_match_reference(self, network):
        space = network.overlay.space
        regions = sorted_regions(space)
        rng = random.Random(12)
        exits = set()
        for region in regions:
            for point in boundary_points(region.rect):
                exits.add(self.check(space, point, region))
                exits.add(self.check(space, point, rng.choice(regions)))
        # Boundary targets drive the stall branch and the scan fallback.
        assert exits == {"walk", "neighbor", "scan"}

    def test_edge_tuples_and_walk_survive_churn(self, network):
        """Joins, departures and adaptation rounds that include a merge:
        after every structural change each region's edge tuple equals its
        rect's, and the walk still equals the reference."""
        overlay = network.overlay
        space = overlay.space
        rng = random.Random(21)
        checked_at = [None]

        def check_all():
            for region in space.regions:
                r = region.rect
                assert region.edges == (r.x, r.x + r.width, r.y, r.y + r.height)
            regions = sorted_regions(space)
            for _ in range(40):
                point = Point(rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0))
                self.check(space, point, rng.choice(regions))
            for point in boundary_points(rng.choice(regions).rect):
                self.check(space, point, rng.choice(regions))
            checked_at[0] = space.stamp

        def after_adaptation(_count, _record):
            if space.stamp != checked_at[0]:
                check_all()

        engine = AdaptationEngine(
            overlay, network.calc, config=network.engine.config,
            on_adaptation=after_adaptation,
        )
        motion = RngStreams(7).stream("motion")
        joined = iter(range(200_000, 200_100))
        for _ in range(4):
            for _ in range(3):
                coord = Point(rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0))
                overlay.join(Node(next(joined), coord, capacity=rng.choice([1, 10, 100])))
                check_all()
            for _ in range(3):
                members = sorted(overlay.nodes.values(), key=lambda n: n.node_id)
                overlay.leave(rng.choice(members))
                check_all()
            network.field.migrate(motion, steps=1)
            engine.run_until_stable(max_rounds=3)
        assert "c" in engine.mechanism_usage()
        overlay.check_invariants()


# ----------------------------------------------------------------------
# (b) TTL search
# ----------------------------------------------------------------------
def reference_search(space, origin, ttl, predicate, skip_immediate_neighbors):
    """The (region, depth) deque BFS; returns (candidates, messages, expanded)."""
    candidates = []
    visited = {origin}
    queue = deque([(origin, 0)])
    messages = 0
    expanded = 0
    while queue:
        region, depth = queue.popleft()
        if depth >= ttl:
            continue
        expanded += 1
        for neighbor in space.neighbors(region):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            messages += 1
            if predicate(neighbor) and not (skip_immediate_neighbors and depth == 0):
                candidates.append(neighbor)
            queue.append((neighbor, depth + 1))
    return candidates, messages, expanded


class TestTtlSearch:
    def test_matches_reference_bfs(self, network):
        space = network.overlay.space

        def recording(calls):
            def predicate(region):
                calls.append(region.region_id)
                return region.is_full or region.region_id % 3 == 0
            return predicate

        for origin in sorted_regions(space):
            for ttl in range(1, 5):
                for skip in (True, False):
                    expected_calls = []
                    expected = reference_search(
                        space, origin, ttl, recording(expected_calls), skip
                    )
                    calls = []
                    result = ttl_search(
                        space, origin, ttl, recording(calls),
                        skip_immediate_neighbors=skip,
                    )
                    assert result.candidates == expected[0]
                    assert result.messages == expected[1]
                    assert result.expanded == expected[2]
                    assert calls == expected_calls


# ----------------------------------------------------------------------
# (c) region-load memo
# ----------------------------------------------------------------------
def reference_load(grid, rect):
    """The prefix-sum lookup, recomputed from the current loads by numpy."""
    np = pytest.importorskip("numpy")
    ix0, ix1, iy0, iy1 = grid.covered_index_ranges(rect)
    if ix0 > ix1 or iy0 > iy1:
        return 0.0
    prefix = np.zeros((grid.nx + 1, grid.ny + 1), dtype=np.float64)
    np.cumsum(grid.loads, axis=0, out=prefix[1:, 1:])
    np.cumsum(prefix[1:, 1:], axis=1, out=prefix[1:, 1:])
    return float(
        prefix[ix1 + 1, iy1 + 1]
        - prefix[ix0, iy1 + 1]
        - prefix[ix1 + 1, iy0]
        + prefix[ix0, iy0]
    )


class TestRegionLoadMemo:
    def check(self, grid, rects, sampled):
        loads = [grid.load_in_rect(rect) for rect in rects]
        for rect, load in zip(rects, loads):
            assert load == reference_load(grid, rect)
        for rect in sampled:
            assert grid.load_in_rect(rect) == pytest.approx(
                grid.load_in_rect_slow(rect), rel=1e-9, abs=1e-9
            )
        return loads

    def test_memo_tracks_every_load_change(self, network, monkeypatch):
        grid = network.field.grid
        rects = [region.rect for region in sorted_regions(network.overlay.space)]
        sampled = rects[:: len(rects) // 6]
        rng = random.Random(13)
        steps = [
            lambda: grid.set_load(3, 5, 2.5),
            lambda: grid.add_load(3, 5, 0.75),
            lambda: grid.add_hotspot(Circle(Point(20.0, 30.0), 6.0)),
            grid.clear,
            lambda: grid.add_load(100, 7, 1.0),
            lambda: network.field.migrate(rng, steps=1),
        ]
        self.check(grid, rects, sampled)
        for step in steps:
            version = grid.version
            step()
            assert grid.version > version
            loads = self.check(grid, rects, sampled)
        # A second call at the same version is a pure memo hit.
        with monkeypatch.context() as patch:
            def untouchable(*_args):
                raise AssertionError("memo miss at an unchanged version")

            patch.setattr(grid, "_ensure_prefix", untouchable)
            patch.setattr(grid, "covered_index_ranges", untouchable)
            assert [grid.load_in_rect(rect) for rect in rects] == loads

    def test_loads_view_is_read_only(self, network):
        grid = network.field.grid
        with pytest.raises(TypeError):
            grid.loads[0][0] = 1.0
        with pytest.raises(TypeError):
            grid.loads[0] = (1.0,) * grid.ny


def reference_hotspot(grid, loads, hotspot):
    """Deposit ``hotspot`` onto the numpy array ``loads`` as numpy does."""
    np = pytest.importorskip("numpy")
    c, r, size = hotspot.center, hotspot.radius, grid.cell_size
    ix0 = max(0, int((c.x - r - grid.bounds.x) / size))
    ix1 = min(grid.nx - 1, int((c.x + r - grid.bounds.x) / size))
    iy0 = max(0, int((c.y - r - grid.bounds.y) / size))
    iy1 = min(grid.ny - 1, int((c.y + r - grid.bounds.y) / size))
    if ix0 > ix1 or iy0 > iy1:
        return
    xs = grid.bounds.x + (np.arange(ix0, ix1 + 1) + 0.5) * size
    ys = grid.bounds.y + (np.arange(iy0, iy1 + 1) + 0.5) * size
    dx = xs[:, None] - c.x
    dy = ys[None, :] - c.y
    d = np.sqrt(dx * dx + dy * dy)
    loads[ix0 : ix1 + 1, iy0 : iy1 + 1] += np.clip(1.0 - d / r, 0.0, None)


class TestHotspotDeposit:
    def test_loads_match_numpy(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(11)
        for cell_size in (0.5, 0.3, 1.0):
            grid = CellGrid(Rect(0, 0, 64, 64), cell_size=cell_size)
            reference = np.zeros((grid.nx, grid.ny))
            for _ in range(12):
                hotspot = Circle(
                    Point(rng.uniform(-5, 69), rng.uniform(-5, 69)),
                    rng.uniform(0.1, 10.0),
                )
                grid.add_hotspot(hotspot)
                reference_hotspot(grid, reference, hotspot)
            assert grid.loads == tuple(map(tuple, reference.tolist()))
            assert grid.total_load > 0.0


class TestQueryWeights:
    def test_weights_and_draws_match_numpy(self, network):
        """Running sums and drawn centers equal numpy's cumsum/searchsorted."""
        np = pytest.importorskip("numpy")
        field, grid = network.field, network.field.grid
        generator = QueryGenerator(field, background_fraction=0.0)
        rng = random.Random(5)
        for _ in range(3):
            field.migrate(rng, steps=1)
            reference = np.array(grid.loads).reshape(-1).cumsum()
            assert generator._weights() == reference.tolist()
            for seed in range(100):
                center = generator.sample_center(random.Random(seed))
                draw = random.Random(seed)
                draw.random()  # the background-fraction test
                u = draw.random() * reference[-1]
                index = int(reference.searchsorted(u, side="right"))
                ix, iy = divmod(min(index, reference.shape[0] - 1), grid.ny)
                cell, half = grid.cell_center(ix, iy), grid.cell_size / 2.0
                expected = Point(
                    cell.x + draw.uniform(-half, half),
                    cell.y + draw.uniform(-half, half),
                ).clamped(field.bounds.x, field.bounds.y, field.bounds.x2, field.bounds.y2)
                assert center == expected


# ----------------------------------------------------------------------
# (d) TTL ring memo
# ----------------------------------------------------------------------
RING_TTL = 3


def accept_some(region):
    return region.is_full or region.region_id % 3 == 0


def remote_hits(ring):
    """The ring's regions beyond the direct neighbors that pass
    ``accept_some``: what a remote mechanism filters."""
    return [region for region in ring.regions[ring.direct:] if accept_some(region)]


def depths(space, origin, limit):
    """Hop distance from ``origin`` of every region within ``limit`` hops."""
    depth = {origin: 0}
    queue = deque([origin])
    while queue:
        region = queue.popleft()
        if depth[region] == limit:
            continue
        for neighbor in space.neighbors(region):
            if neighbor not in depth:
                depth[neighbor] = depth[region] + 1
                queue.append(neighbor)
    return depth


def serve_and_compare(memo, space, served):
    """Serve a ring for every origin and compare it with a fresh search.

    ``served`` maps region ids to the ring served last time; returns how
    many rings were served again unchanged (memo hits).
    """
    reused = 0
    for origin in sorted_regions(space):
        ring = memo.ring(space, origin, RING_TTL)
        fresh = ttl_search(space, origin, RING_TTL, accept_some)
        assert remote_hits(ring) == fresh.candidates
        assert ring.messages == fresh.messages
        assert ring.expanded == fresh.expanded
        reused += ring is served.get(origin.region_id)
        served[origin.region_id] = ring
    return reused


def mergeable_pair(space):
    for region in sorted_regions(space):
        if not region.is_half_full:
            continue
        for neighbor in sorted(space.neighbors(region), key=lambda r: r.region_id):
            if neighbor.is_half_full and region.rect.can_merge_with(neighbor.rect):
                return region, neighbor
    raise AssertionError("no mergeable pair of half-full regions")


class TestRingMemo:
    def test_served_rings_equal_fresh_searches_under_churn(self, network):
        overlay = network.overlay
        space = overlay.space
        rng = random.Random(5)
        joined = iter(range(100_000, 100_100))

        def split():
            full = [r for r in sorted_regions(space) if r.is_full]
            overlay.split_full_region(rng.choice(full))

        def merge():
            region, partner = mergeable_pair(space)
            plan = AdaptationPlan("c", region, partner, 1.0, 0.0)
            MergeWithNeighbor().execute(plan, network.engine.ctx)

        def join():
            coord = Point(rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0))
            overlay.join(Node(next(joined), coord, capacity=rng.choice([1, 10, 100])))

        def leave():
            members = sorted(overlay.nodes.values(), key=lambda n: n.node_id)
            overlay.leave(rng.choice(members))

        memo = RingMemo()
        served = {}
        serve_and_compare(memo, space, served)
        hits = served_total = 0
        for step in [split, merge, join, leave, split, join, merge, leave] * 3:
            step()
            hits += serve_and_compare(memo, space, served)
            served_total += len(space.regions)
        overlay.check_invariants()
        # Most rings survive a step far away from them.
        assert hits > served_total * 0.8

    def test_split_at_depth_ttl_invalidates_the_ring(self, network):
        overlay = network.overlay
        space = overlay.space
        for origin in sorted_regions(space):
            depth = depths(space, origin, RING_TTL + 1)
            at_ttl = [r for r, d in depth.items() if d == RING_TTL and r.is_full]
            beyond = [r for r, d in depth.items() if d == RING_TTL + 1 and r.is_full]
            if at_ttl and beyond:
                break
        else:
            raise AssertionError("no origin with full regions at depth ttl and ttl+1")
        memo = RingMemo()
        ring = memo.ring(space, origin, RING_TTL)

        # A split one hop beyond the ring changes no adjacency it read.
        overlay.split_full_region(min(beyond, key=lambda r: r.region_id))
        assert memo.ring(space, origin, RING_TTL) is ring
        served = {}
        serve_and_compare(memo, space, served)

        # A split of a ring member at depth exactly ttl rebuilds it.
        overlay.split_full_region(min(at_ttl, key=lambda r: r.region_id))
        rebuilt = memo.ring(space, origin, RING_TTL)
        assert rebuilt is not ring
        fresh = ttl_search(space, origin, RING_TTL, accept_some)
        assert remote_hits(rebuilt) == fresh.candidates
        assert rebuilt.messages == fresh.messages
        serve_and_compare(memo, space, served)


# ----------------------------------------------------------------------
# (e) link table and query fan-out
# ----------------------------------------------------------------------
def expected_links(space, region):
    return tuple((*n.edges, n.region_id) for n in space.neighbors(region))


def check_link_table(space):
    """Every entry lists the neighbors' rows in adjacency-set order."""
    assert space.links.keys() == {r.region_id for r in space.regions}
    for region in space.regions:
        assert space.by_id[region.region_id] is region
        assert space.links[region.region_id] == expected_links(space, region)


def reference_fanout(space, executor, query_rect):
    """FIFO BFS over ``Space.neighbors`` with ``Rect.touches``."""
    if not executor.rect.touches(query_rect):
        return [executor]
    covered = []
    seen = {executor}
    frontier = deque([executor])
    while frontier:
        region = frontier.popleft()
        covered.append(region)
        for neighbor in space.neighbors(region):
            if neighbor not in seen and neighbor.rect.touches(query_rect):
                seen.add(neighbor)
                frontier.append(neighbor)
    return covered


class TestLinkTable:
    def test_table_mirrors_adjacency_under_churn(self, network):
        """Joins, departures and adaptation rounds (splits and merges):
        after each, every entry equals the rows built from the sets."""
        overlay = network.overlay
        space = overlay.space
        check_link_table(space)
        rng = random.Random(31)
        changes = []
        engine = AdaptationEngine(
            overlay, network.calc, config=network.engine.config,
            on_adaptation=lambda _count, _record: changes.append(space.stamp),
        )
        motion = RngStreams(9).stream("motion")
        joined = iter(range(300_000, 300_100))
        for _ in range(4):
            for _ in range(3):
                coord = Point(rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0))
                overlay.join(Node(next(joined), coord, capacity=rng.choice([1, 10, 100])))
                check_link_table(space)
            for _ in range(3):
                members = sorted(overlay.nodes.values(), key=lambda n: n.node_id)
                overlay.leave(rng.choice(members))
                check_link_table(space)
            network.field.migrate(motion, steps=1)
            engine.run_until_stable(max_rounds=3)
            check_link_table(space)
        assert "c" in engine.mechanism_usage()
        overlay.check_invariants()


class TestFanout:
    def test_matches_reference_bfs(self, network):
        space = network.overlay.space
        regions = sorted_regions(space)
        rng = random.Random(17)
        rects = [region.rect for region in regions[::7]]
        for _ in range(300):
            w, h = rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)
            rects.append(Rect(rng.uniform(0.0, 64.0 - w), rng.uniform(0.0, 64.0 - h), w, h))
        for rect in rects:
            executor = space.locate(rect.center)
            expected = reference_fanout(space, executor, rect)
            assert _fanout(space, executor, rect) == expected
            assert [r.region_id for r in _fanout(space, executor, rect)] == [
                r.region_id for r in expected
            ]
        # An executor the rect does not touch answers alone.
        far = max(regions, key=lambda r: r.rect.x)
        assert _fanout(space, far, Rect(0.0, 0.0, 1.0, 1.0)) == [far]


# ----------------------------------------------------------------------
# (f) adaptation round order
# ----------------------------------------------------------------------
class _OrderRecorder:
    """A trigger that records the order it is asked in and never fires."""

    def __init__(self):
        self.asked = []

    def should_adapt(self, node, table):
        self.asked.append(node)
        return False


class TestRoundOrder:
    def test_visits_nodes_by_descending_index_then_id(self, network):
        engine = network.engine
        network.field.migrate(random.Random(3), steps=1)
        recorder = engine.trigger = _OrderRecorder()
        engine.run_round()
        indices = engine.table.indices
        expected = sorted(indices, key=lambda node: (-indices[node], node.node_id))
        assert recorder.asked == expected
        # Equal indices are common (idle secondaries sit at 0): the ties
        # are ordered by node id.
        assert len(set(indices.values())) < len(indices) // 2
