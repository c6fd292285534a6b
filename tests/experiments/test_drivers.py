"""Small-scale integration tests of every figure driver.

These run each experiment at reduced scale and assert the *shape* of the
paper's results: ordering of the three systems, convergence behavior,
bounded routing.  The full-scale regenerations live in ``benchmarks/``.
"""

import pytest

from repro.experiments import ExperimentConfig, SystemVariant
from repro.experiments.fig_convergence import (
    MOVING,
    NO_ADAPTATION,
    STATIC,
    merged_by_adaptation,
    merged_by_round,
    run_all_scenarios,
    run_scenario,
    thin_collector,
)
from repro.experiments.fig_dualpeer_ablation import run_ablation
from repro.experiments.fig_region_maps import run_fig2_fig3
from repro.experiments.fig_routing import run_routing
from repro.experiments.fig_scaling import ALL_VARIANTS, run_scaling
from repro.experiments import fig_region_maps, fig_routing, fig_scaling
from repro.experiments import fig_convergence, fig_dualpeer_ablation


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(trials=1)


@pytest.fixture(scope="module")
def scaling_result(config):
    return run_scaling(config, populations=(300, 600))


@pytest.fixture(scope="module")
def convergence_results(config):
    return run_all_scenarios(
        config, population=400, rounds=8, max_adaptations=150
    )


class TestFig2Fig3:
    def test_dual_peer_reduces_regions_and_heavy_spots(self, config):
        results = run_fig2_fig3(config, population=200)
        basic = results[SystemVariant.BASIC]
        dual = results[SystemVariant.DUAL_PEER]
        assert basic.region_count == 200
        assert dual.region_count < basic.region_count
        assert dual.region_load_index.std < basic.region_load_index.std
        assert dual.split_count < basic.split_count

    def test_dual_peer_correlates_capacity_with_area(self, config):
        results = run_fig2_fig3(config, population=200)
        dual = results[SystemVariant.DUAL_PEER]
        basic = results[SystemVariant.BASIC]
        assert dual.area_capacity_correlation > basic.area_capacity_correlation

    def test_report_renders(self, config):
        results = run_fig2_fig3(config, population=100)
        report = fig_region_maps.render_report(results)
        assert "Figures 2/3" in report
        assert "basic" in report and "dual-peer" in report


class TestFig5Fig6:
    def test_variant_ordering_holds(self, scaling_result):
        """basic > dual peer > dual peer + adaptation, in both metrics."""
        for population in scaling_result.populations:
            basic, dual, adapted = scaling_result.row(population)
            assert basic.std > dual.std > adapted.std
            assert basic.mean > dual.mean > adapted.mean

    def test_order_of_magnitude_improvement(self, scaling_result):
        """The paper's headline: ~10x between basic and the full system."""
        for population in scaling_result.populations:
            assert scaling_result.improvement_factor(population, "std") >= 5.0
            assert scaling_result.improvement_factor(population, "mean") >= 5.0

    def test_mean_decreases_with_population(self, scaling_result):
        """More nodes share the same total load: mean index falls."""
        small, large = scaling_result.populations[0], scaling_result.populations[-1]
        for variant in ALL_VARIANTS:
            assert (
                scaling_result.cells[(large, variant)].mean
                < scaling_result.cells[(small, variant)].mean * 1.5
            )

    def test_report_renders(self, scaling_result):
        report = fig_scaling.render_report(scaling_result)
        assert "Figure 5" in report and "Figure 6" in report


class TestFig7Fig10:
    def test_static_scenario_converges(self, convergence_results):
        points = convergence_results[STATIC].by_round.get(STATIC)
        stds = [p.summary.std for p in points]
        assert stds[-1] < stds[0]

    def test_moving_scenario_improves_over_start(self, convergence_results):
        points = convergence_results[MOVING].by_round.get(MOVING)
        stds = [p.summary.std for p in points]
        assert min(stds[1:]) < stds[0]

    def test_no_adaptation_never_adapts(self, convergence_results):
        result = convergence_results[NO_ADAPTATION]
        assert result.total_adaptations == 0
        assert result.mechanism_usage == {}

    def test_adaptation_beats_no_adaptation_under_motion(
        self, convergence_results
    ):
        moving = convergence_results[MOVING].by_round.get(MOVING)
        frozen = convergence_results[NO_ADAPTATION].by_round.get(NO_ADAPTATION)
        mean_moving = sum(p.summary.std for p in moving[1:]) / (len(moving) - 1)
        mean_frozen = sum(p.summary.std for p in frozen[1:]) / (len(frozen) - 1)
        assert mean_moving < mean_frozen

    def test_per_adaptation_series_recorded(self, convergence_results):
        series = convergence_results[STATIC].by_adaptation.get(STATIC)
        assert len(series) >= 2
        xs = [p.x for p in series]
        assert xs == sorted(xs)

    def test_thin_collector_keeps_endpoints(self, convergence_results):
        merged = merged_by_adaptation(convergence_results)
        thinned = thin_collector(merged, step=10)
        for name in merged.names():
            full = merged.get(name)
            if not full:
                continue
            thin = thinned.get(name)
            assert thin[0].x == full[0].x
            assert thin[-1].x == full[-1].x
            assert len(thin) <= len(full)

    def test_report_renders(self, convergence_results):
        report = fig_convergence.render_report(convergence_results)
        for figure in ("Figure 7", "Figure 8", "Figure 9", "Figure 10"):
            assert figure in report

    def test_unknown_scenario_rejected(self, config):
        with pytest.raises(ValueError):
            run_scenario("bogus", config)


class TestRouting:
    def test_hops_within_bound(self, config):
        cells = run_routing(config, populations=(200, 500), samples=80)
        for cell in cells:
            assert cell.within_bound

    def test_stretch_reasonable(self, config):
        cells = run_routing(config, populations=(300,), samples=80)
        assert cells[0].mean_stretch < 2.5

    def test_report_renders(self, config):
        cells = run_routing(config, populations=(200,), samples=40)
        report = fig_routing.render_report(cells)
        assert "2*sqrt(N)" in report
        assert "cached hops" in report

    def test_cached_hops_at_most_greedy_at_n256(self, config):
        (cell,) = run_routing(config, populations=(256,), samples=200)
        assert cell.cached_hops.count == cell.hops.count == cell.samples
        # Identical source/target pairs: the warmed cache can only shorten.
        assert cell.cached_hops.mean <= cell.hops.mean


class TestDualPeerAblation:
    def test_all_three_claims(self, config):
        results = run_ablation(config, population=400, failures=60)
        basic = results[SystemVariant.BASIC]
        dual = results[SystemVariant.DUAL_PEER]
        # Claim 2: fewer splits.
        assert dual.splits < basic.splits
        # Claim 1: failures absorbed by failover only under dual peer.
        assert basic.failover_fraction == 0.0
        assert dual.failover_fraction > 0.2
        # Claim 3: better balance.
        assert dual.index_summary.std < basic.index_summary.std

    def test_report_renders(self, config):
        results = run_ablation(config, population=200, failures=20)
        report = fig_dualpeer_ablation.render_report(results)
        assert "failover" in report
