"""Routing-cost experiment (the paper's O(2*sqrt(N)) claim, Section 2.2).

"Given a GeoGrid plane of N regions, routing between a pair of randomly
chosen regions has the overhead of O(2*sqrt(N)) in terms of the number of
routing hops."  The paper states this analytically; this driver verifies
it empirically across populations and also reports the geographic path
stretch (how close the routed path stays to the straight line -- the
physical/network proximity similarity GeoGrid exploits).  Each
population then reruns the *same* pairs through the shortcut-cached
router, against a :class:`~repro.core.routing.ShortcutTable` warmed by
unrelated routes, so the two hop counts compare like for like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.routing import (
    ShortcutTable,
    route_to_point,
    route_to_point_cached,
    stretch,
)
from repro.metrics.stats import StatSummary, summarize
from repro.sim.rng import RngStreams
from repro.workload import UniformPlacement
from repro.experiments.build import build_network, draw_population
from repro.experiments.config import ExperimentConfig, SystemVariant

#: Unrelated routes that warm the shortcut table before the cached pass.
WARMUP_ROUTES = 400


@dataclass(frozen=True)
class RoutingCell:
    """Hop statistics for one population."""

    population: int
    samples: int
    hops: StatSummary
    #: Hops over the same pairs through a warmed shortcut cache.
    cached_hops: StatSummary
    mean_stretch: float
    #: The paper's bound for this population.
    bound: float

    @property
    def within_bound(self) -> bool:
        """Whether the mean hop count respects 2*sqrt(N)."""
        return self.hops.mean <= self.bound


def run_routing(
    config: ExperimentConfig,
    populations: Sequence[int] = (500, 1_000, 2_000, 4_000, 8_000),
    samples: int = 300,
    variant: SystemVariant = SystemVariant.DUAL_PEER,
) -> List[RoutingCell]:
    """Measure greedy and shortcut-cached hops between random pairs."""
    cells: List[RoutingCell] = []
    for population in populations:
        streams = RngStreams(config.seed).fork(700_000 + population)
        nodes = draw_population(population, config, streams)
        network = build_network(
            variant, population, config, streams, nodes=nodes
        )
        sample_rng = streams.stream("routing-samples")
        placement = UniformPlacement(config.bounds)
        space = network.overlay.space
        pairs = []
        hops: List[float] = []
        stretches: List[float] = []
        for _ in range(samples):
            source = network.overlay.random_node()
            target = placement.sample(sample_rng)
            start = next(iter(network.overlay.primary_regions(source)), None)
            if start is None:
                continue
            pairs.append((start, target))
            result = route_to_point(space, start, target)
            hops.append(result.hops)
            s = stretch(result)
            if s is not None:
                stretches.append(s)
        # Warm the cache with unrelated traffic (the steady state of a
        # long-running deployment), then replay the identical pairs.
        warmup_rng = streams.stream("routing-warmup")
        table = ShortcutTable()
        for _ in range(WARMUP_ROUTES):
            start = space.locate(placement.sample(warmup_rng))
            route_to_point_cached(
                space, start, placement.sample(warmup_rng), table
            )
        cached_hops = [
            route_to_point_cached(space, start, target, table).hops
            for start, target in pairs
        ]
        region_count = space.region_count()
        cells.append(
            RoutingCell(
                population=population,
                samples=len(hops),
                hops=summarize(hops),
                cached_hops=summarize(cached_hops),
                mean_stretch=summarize(stretches).mean,
                bound=2.0 * (region_count ** 0.5),
            )
        )
    return cells


def render_report(cells: List[RoutingCell]) -> str:
    """Hop-count rows versus the analytical bound."""
    lines = [
        "Routing cost vs population (claim: O(2*sqrt(N)) hops)",
        "",
        f"{'nodes':>7} {'mean hops':>10} {'max hops':>9} "
        f"{'2*sqrt(N)':>10} {'ok':>4} {'stretch':>8} {'cached hops':>12}",
    ]
    for cell in cells:
        lines.append(
            f"{cell.population:>7} {cell.hops.mean:>10.1f} "
            f"{cell.hops.maximum:>9.0f} {cell.bound:>10.1f} "
            f"{'yes' if cell.within_bound else 'NO':>4} "
            f"{cell.mean_stretch:>8.2f} {cell.cached_hops.mean:>12.1f}"
        )
    return "\n".join(lines)
