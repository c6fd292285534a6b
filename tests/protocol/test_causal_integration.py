"""End-to-end causal tracing + auditing over real protocol runs.

The headline acceptance test: inject a double hole grant with every
protection on (a region's owners die, two of its caretakers are
partitioned apart and each admits a joiner into the hole) and show the
observability stack explains it -- the auditor catches the overlap, the
journal names the two grants that created it, and the span trees trace
each grant back through the join that caused it.  After the heal the
ownership-conflict resolver must leave a clean partition.
"""

import pytest

from repro import obs
from repro.geometry import Point, Rect
from repro.obs import causal
from repro.protocol import ProtocolCluster
from repro.protocol.forensics import GRANT_KINDS, run_split_brain_repro
from repro.sim.latency import ConstantLatency


#: The placement seed of the shared replay.
REPRO_SEED = 14


@pytest.fixture(scope="module")
def report():
    """One shared replay; every assertion reads the same run."""
    return run_split_brain_repro(seed=REPRO_SEED)


class TestSplitBrainForensics:
    def test_auditor_catches_the_overlap(self, report):
        overlaps = [v for v in report.violations if v.check == "overlap"]
        assert overlaps, "the injected double grant must split-brain"
        first = overlaps[0]
        assert first.severity == "hard"
        assert len(first.data["owners"]) == 2
        assert len(first.data["rects"]) == 2

    def test_journal_names_the_offending_grant_chain(self, report):
        grants = report.offending_grants
        assert len(grants) >= 2, "a split brain needs two grants"
        overlap = next(v for v in report.violations if v.check == "overlap")
        contested = set(overlap.data["rects"])
        assert {g["rect"] for g in grants} <= contested
        assert {g["kind"] for g in grants} <= set(GRANT_KINDS)
        # Two different granters handing out the same ground *is* the bug.
        assert len({g["granter"] for g in grants}) >= 2
        assert len({g["joiner"] for g in grants}) >= 2
        # Chain is chronological, each entry causally attributed.
        times = [g["t"] for g in grants]
        assert times == sorted(times)
        assert all(isinstance(g.get("trace_id"), int) for g in grants)

    def test_span_trees_trace_grants_back_to_joins(self, report):
        assert report.span_trees, "each offending grant maps to a trace"
        for trace_id, tree in report.span_trees.items():
            assert "join" in tree, f"trace {trace_id} is not a join trace"
        # At least one tree shows the grant annotation itself.
        assert any(
            "grant_hole" in tree or "grant_split" in tree
            for tree in report.span_trees.values()
        )

    def test_journal_slice_covers_the_violation(self, report):
        kinds = {e["kind"] for e in report.journal_slice}
        assert "audit_violation" in kinds
        assert kinds & set(GRANT_KINDS)
        overlap = next(v for v in report.violations if v.check == "overlap")
        # Slice is bounded: window before the violation plus subject hits.
        in_window = [
            e
            for e in report.journal_slice
            if overlap.time - 30.0 <= e["t"] <= overlap.time
        ]
        assert in_window
        assert len(report.journal_slice) < len(report.recorder.events())

    def test_render_is_a_complete_dump(self, report):
        text = report.render()
        assert f"split-brain replay (seed {REPRO_SEED}" in text
        assert "offending grant chain" in text
        assert "span tree, trace" in text
        assert "journal slice around" in text
        assert "both claim overlapping ground" in text

    def test_observability_state_is_restored(self, report):
        # flight_capture restored whatever was installed before the run.
        assert obs.flightrec() is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_overlap_forms_and_is_caught_across_placements(seed):
    report = run_split_brain_repro(seed=seed)
    overlaps = [v for v in report.violations if v.check == "overlap"]
    assert overlaps and overlaps[0].severity == "hard"
    assert sorted(overlaps[0].data["owners"]) == sorted(
        str(joiner.address) for joiner in report.joiners
    )
    grants = report.offending_grants
    assert [g["kind"] for g in grants] == ["grant_hole", "grant_hole"]
    assert {g["granter"] for g in grants} == {
        str(caretaker.address) for caretaker in report.caretakers
    }


def test_heal_leaves_one_claimant_owning_the_hole(report):
    assert report.partition_error is None
    claimants = [
        joiner
        for joiner in report.joiners
        if joiner.alive
        and joiner.owned is not None
        and joiner.owned.role == "primary"
        and joiner.owned.rect == report.hole
    ]
    assert len(claimants) == 1
    assert "partition check after heal: passed" in report.render()


class TestHealthyRouteTracing:
    def test_lookup_produces_a_hop_by_hop_trace(self):
        cluster = ProtocolCluster(
            Rect(0, 0, 32, 32), seed=7, latency=ConstantLatency(0.5)
        )
        with obs.flight_capture(
            clock=lambda: cluster.scheduler.now
        ) as recorder:
            for x, y in [(4, 4), (24, 6), (9, 27), (22, 21), (16, 16)]:
                cluster.join_node(Point(x, y))
            cluster.settle(60)
            ack = cluster.lookup(0, Point(30, 30), timeout=60.0)
        assert ack is not None
        ops = recorder.events(kind="route_request")
        op = next(e for e in ops if e.get("op"))
        roots = causal.build_trace(recorder.events(), op["trace_id"])
        text = causal.render_trace(roots)
        assert "route_request" in text
        assert "delivered" in text
        assert "route_served" in text
        # The whole lookup lives in one trace: every hop span is linked.
        trace_events = recorder.events(trace_id=op["trace_id"])
        sends = [e for e in trace_events if e["kind"] == "send"]
        assert len(sends) >= 2  # the route plus its ack, at minimum
