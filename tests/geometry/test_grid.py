"""Tests for repro.geometry.grid -- the discretized workload field."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.geometry import CellGrid, Circle, Point, Rect

#: Run in a fresh interpreter: the paper's model network builds, migrates
#: its field, answers region loads and draws query centers without numpy.
STDLIB_ONLY = """
import random
import sys
from repro.experiments.build import build_network
from repro.experiments.config import ExperimentConfig, SystemVariant
from repro.sim.rng import RngStreams
from repro.workload.queries import QueryGenerator
network = build_network(
    SystemVariant.DUAL_PEER_ADAPTATION, 64, ExperimentConfig(trials=1), RngStreams(1)
)
rng = random.Random(1)
network.field.migrate(rng, steps=1)
assert network.field.grid.load_in_rect(network.field.bounds) > 0.0
generator = QueryGenerator(network.field, background_fraction=0.0)
centers = [generator.sample_center(rng) for _ in range(20)]
bounds = network.field.bounds
assert all(bounds.covers(center, True, True) for center in centers)
assert "numpy" not in sys.modules, "numpy loaded"
"""


def test_model_layer_runs_without_numpy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture
def grid():
    return CellGrid(Rect(0, 0, 16, 16), cell_size=1.0)


class TestConstruction:
    def test_cell_counts(self, grid):
        assert grid.nx == 16 and grid.ny == 16
        assert grid.cell_count == 256

    def test_non_divisible_bounds_overhang(self):
        g = CellGrid(Rect(0, 0, 10, 10), cell_size=3.0)
        assert g.nx == 4 and g.ny == 4

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            CellGrid(Rect(0, 0, 1, 1), cell_size=0.0)

    def test_cell_center(self, grid):
        assert grid.cell_center(0, 0) == Point(0.5, 0.5)
        assert grid.cell_center(15, 15) == Point(15.5, 15.5)

    def test_cell_center_out_of_range(self, grid):
        with pytest.raises(IndexError):
            grid.cell_center(16, 0)

    def test_cell_index_of(self, grid):
        assert grid.cell_index_of(Point(0.4, 0.4)) == (0, 0)
        assert grid.cell_index_of(Point(15.9, 0.1)) == (15, 0)

    def test_cell_index_clamped(self, grid):
        assert grid.cell_index_of(Point(-5, 100)) == (0, 15)


class TestLoads:
    def test_starts_empty(self, grid):
        assert grid.total_load == 0.0

    def test_set_and_add(self, grid):
        grid.set_load(3, 4, 2.0)
        grid.add_load(3, 4, 1.5)
        assert grid.total_load == pytest.approx(3.5)

    def test_clear(self, grid):
        grid.set_load(1, 1, 5.0)
        grid.clear()
        assert grid.total_load == 0.0

    def test_hotspot_center_cell_near_one(self, grid):
        # Center exactly at a cell center: that cell receives workload 1.
        grid.add_hotspot(Circle(Point(8.5, 8.5), 3.0))
        assert grid.loads[8][8] == pytest.approx(1.0)

    def test_hotspot_off_grid_part_ignored(self):
        g = CellGrid(Rect(0, 0, 8, 8), cell_size=1.0)
        g.add_hotspot(Circle(Point(0.0, 4.0), 3.0))  # half off the map
        assert g.total_load > 0.0

    def test_hotspot_fully_off_grid(self):
        g = CellGrid(Rect(0, 0, 8, 8), cell_size=1.0)
        g.add_hotspot(Circle(Point(50.0, 50.0), 2.0))
        assert g.total_load == 0.0

    def test_hotspot_matches_formula(self, grid):
        hotspot = Circle(Point(8.0, 8.0), 4.0)
        grid.add_hotspot(hotspot)
        for ix, iy in [(8, 8), (6, 8), (8, 10), (5, 5)]:
            center = grid.cell_center(ix, iy)
            assert grid.loads[ix][iy] == pytest.approx(
                hotspot.workload_at(center)
            )

    def test_total_load_is_exactly_rounded(self, grid):
        for ix in range(grid.nx):
            for iy in range(grid.ny):
                grid.set_load(ix, iy, 0.1)
        # 256 times the double 0.1 is exactly the double 25.6 (a power-of-two
        # multiple); a running sum drifts from it.
        assert grid.total_load == 25.6
        grid.clear()
        grid.set_load(0, 0, 1e16)
        grid.set_load(0, 1, 1.0)
        grid.set_load(0, 2, -1e16)
        assert grid.total_load == 1.0

    def test_loads_are_rows_of_cells(self):
        g = CellGrid(Rect(0, 0, 3, 2), cell_size=1.0)
        g.set_load(2, 1, 4.0)
        g.add_load(0, 1, 0.5)
        assert g.loads == ((0.0, 0.5), (0.0, 0.0), (0.0, 4.0))

    def test_cell_index_out_of_range(self, grid):
        with pytest.raises(IndexError):
            grid.set_load(0, 16, 1.0)
        with pytest.raises(IndexError):
            grid.add_load(16, 0, 1.0)

    def test_two_hotspots_superimpose(self, grid):
        h = Circle(Point(8.5, 8.5), 2.0)
        grid.add_hotspot(h)
        once = grid.total_load
        grid.add_hotspot(h)
        assert grid.total_load == pytest.approx(2 * once)


class TestRectQueries:
    def test_full_bounds_sums_everything(self, grid):
        grid.add_hotspot(Circle(Point(8, 8), 5.0))
        assert grid.load_in_rect(grid.bounds) == pytest.approx(grid.total_load)

    def test_empty_rect_region(self, grid):
        grid.set_load(0, 0, 3.0)
        assert grid.load_in_rect(Rect(8, 8, 4, 4)) == 0.0

    def test_half_open_semantics_on_cell_centers(self, grid):
        grid.set_load(0, 0, 1.0)  # center at (0.5, 0.5)
        # Rect with x starting exactly at the center excludes it...
        assert grid.load_in_rect(Rect(0.5, 0, 4, 4)) == 0.0
        # ...but a rect whose high edge lands on the center includes it.
        assert grid.load_in_rect(Rect(0, 0, 0.5, 0.5)) == 1.0

    def test_sliver_thinner_than_cell(self, grid):
        grid.set_load(5, 5, 1.0)
        assert grid.load_in_rect(Rect(5.6, 5.0, 0.2, 1.0)) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_fast_path_matches_reference(self, seed):
        rng = random.Random(seed)
        grid = CellGrid(Rect(0, 0, 8, 8), cell_size=1.0)
        for _ in range(5):
            grid.add_hotspot(
                Circle(
                    Point(rng.uniform(0, 8), rng.uniform(0, 8)),
                    rng.uniform(0.5, 4.0),
                )
            )
        for _ in range(5):
            x = rng.uniform(0, 7)
            y = rng.uniform(0, 7)
            rect = Rect(x, y, rng.uniform(0.25, 8 - x), rng.uniform(0.25, 8 - y))
            assert grid.load_in_rect(rect) == pytest.approx(
                grid.load_in_rect_slow(rect)
            )

    def test_split_partition_conserves_load(self):
        """Splitting a rect in half never loses or duplicates load."""
        grid = CellGrid(Rect(0, 0, 16, 16), cell_size=0.5)
        grid.add_hotspot(Circle(Point(8, 8), 6.0))
        whole = Rect(0, 0, 16, 16)
        from repro.geometry import SplitAxis

        for axis in SplitAxis:
            low, high = whole.split(axis)
            assert grid.load_in_rect(low) + grid.load_in_rect(high) == (
                pytest.approx(grid.load_in_rect(whole))
            )

    def test_dyadic_split_tree_conserves_load(self):
        """Repeated halving (the overlay's actual usage) stays exact."""
        grid = CellGrid(Rect(0, 0, 64, 64), cell_size=0.5)
        grid.add_hotspot(Circle(Point(20, 30), 9.0))
        rects = [Rect(0, 0, 64, 64)]
        for _ in range(6):
            rects = [half for r in rects for half in r.split(r.longer_axis())]
        total = sum(grid.load_in_rect(r) for r in rects)
        assert total == pytest.approx(grid.total_load)
