"""Smoke-size tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import paper_adapt
import protocol_loads
import run
import tracing
from common import CheckFailed, check_in_rect, covers
from repro.geometry import Point, Rect
from repro.protocol import messages as m
from repro.store.spatial import GridIndex, ObjectRecord

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
GATED = [w["name"] for w in SPEC["workloads"]]


def bench(*args, env=None, cwd=ROOT):
    """Run the benchmark command; returns the completed process."""
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def smoke_output(workload, seed, trace=0, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env.pop("PYTHONPATH", None)
    done = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke", env=env,
    )
    assert done.returncode == 0, done.stderr
    report, last = done.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(last)


# ----------------------------------------------------------------------
# Each workload runs at a tiny size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["lookup_uniform", "track_churn", "paper_adapt"])
def test_workload_runs_at_tiny_size(workload):
    result = run.run_workload(workload, seed=1, seconds=1, trace=0, smoke=True)
    assert result.attempted > 0
    assert result.failed == 0
    assert {"setup_s", "ops_per_s", "ok_frac"} <= set(result.metrics)


# ----------------------------------------------------------------------
# Output checks fire on corrupted results
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_cluster():
    load = protocol_loads.smoke(protocol_loads.LOOKUP_UNIFORM)
    schedule = protocol_loads.generate(load, seed=1, duration=10.0)
    cluster, acked = protocol_loads.build(load, schedule)
    return load, schedule, cluster, acked


def test_partition_check_fires_on_overlapping_primaries(tiny_cluster):
    _load, schedule, cluster, acked = tiny_cluster
    loop = protocol_loads.OpenLoop(cluster, schedule, dict(acked))
    primaries = [n for n in cluster.nodes.values() if n.is_primary()]
    a, b = primaries[0], primaries[1]
    saved = a.owned.rect
    a.owned.rect = b.owned.rect
    try:
        with pytest.raises(CheckFailed, match="partition"):
            protocol_loads.check_outputs(cluster, loop)
    finally:
        a.owned.rect = saved
    protocol_loads.check_outputs(cluster, loop)


def test_acked_object_check_fires_on_a_lost_object(tiny_cluster):
    _load, _schedule, cluster, acked = tiny_cluster
    protocol_loads.check_acked_objects(cluster, acked)
    object_id = sorted(acked)[0]
    with pytest.raises(CheckFailed, match=object_id):
        protocol_loads.check_acked_objects(cluster, {object_id: acked[object_id] + 1})


def test_route_check_fires_on_a_region_not_covering_the_target(tiny_cluster):
    _load, schedule, cluster, acked = tiny_cluster
    loop = protocol_loads.OpenLoop(cluster, schedule, dict(acked))
    op = protocol_loads.Op(due=0.0, kind="route", origin=0, point=Point(1.0, 1.0))
    loop._issue(op)
    node_id, rid = next(iter(loop._pending))
    cluster.nodes[node_id].delivered.append(
        m.RouteDeliveredBody(
            request_id=rid,
            executor=cluster.nodes[node_id].address,
            hops=1,
            region=Rect(40.0, 40.0, 8.0, 8.0),
        )
    )
    with pytest.raises(CheckFailed, match="does not cover"):
        loop._poll(cluster.scheduler.now)


def test_range_check_fires_on_a_record_outside_the_rect():
    rect = Rect(0.0, 0.0, 4.0, 4.0)
    inside = ObjectRecord(object_id="a", point=Point(4.0, 2.0), version=1)
    outside = ObjectRecord(object_id="b", point=Point(5.0, 2.0), version=1)
    check_in_rect(rect, [inside])
    with pytest.raises(CheckFailed, match="outside"):
        check_in_rect(rect, [inside, outside])
    assert covers(rect, Point(0.0, 4.0)) and not covers(rect, Point(0.0, 4.5))


@pytest.fixture
def tiny_overlay():
    network, store = paper_adapt.build(paper_adapt.SMOKE, seed=1)
    paper_adapt.check_outputs(network, store, paper_adapt.SMOKE.objects)
    return network, store


def test_placement_check_fires_on_a_misplaced_record(tiny_overlay):
    network, store = tiny_overlay
    region = next(r for r in network.overlay.space.regions if r.rect.width < 64.0)
    outside = Point(
        region.rect.x2 + 0.5 if region.rect.x2 < 63.0 else region.rect.x - 0.5,
        region.rect.y + region.rect.height / 2.0,
    )
    store.indexes.setdefault(region, GridIndex()).upsert(
        ObjectRecord(object_id="stray", point=outside, version=1)
    )
    with pytest.raises(CheckFailed, match="overlay check"):
        paper_adapt.check_outputs(network, store, paper_adapt.SMOKE.objects + 1)


def test_invariant_check_fires_on_a_broken_adjacency(tiny_overlay):
    network, store = tiny_overlay
    space = network.overlay.space
    region = next(iter(space.regions))
    neighbor = next(iter(space.neighbors(region)))
    space._adjacency[region].discard(neighbor)
    with pytest.raises(CheckFailed, match="adjacency"):
        paper_adapt.check_outputs(network, store, paper_adapt.SMOKE.objects)


def test_object_count_check_fires_on_a_lost_record(tiny_overlay):
    network, store = tiny_overlay
    index = next(i for i in store.indexes.values() if len(i))
    index.remove(index.records()[0].object_id)
    with pytest.raises(CheckFailed, match="records for"):
        paper_adapt.check_outputs(network, store, paper_adapt.SMOKE.objects)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_on_a_hand_built_span_tree():
    # id: parent, start, end
    spans = {
        0: (-1, 0.0, 10.0),   # root
        1: (0, 1.0, 3.0),     # child
        2: (0, 2.0, 5.0),     # child overlapping 1: union [1, 5]
        3: (2, 3.0, 4.0),     # grandchild
        4: (0, 9.0, 12.0),    # child sticking out: counts [9, 10]
        5: (-1, 20.0, 21.0),  # second root, no children
    }
    parents = [spans[i][0] for i in range(6)]
    starts = [spans[i][1] for i in range(6)]
    ends = [spans[i][2] for i in range(6)]
    assert tracing.self_times(starts, ends, parents) == pytest.approx(
        [10.0 - 4.0 - 1.0, 2.0, 3.0 - 1.0, 1.0, 3.0, 1.0]
    )


def test_tracer_records_parents_and_trace_ids():
    tracer = tracing.Tracer()

    def inner():
        return tracer.call("b", lambda: 7)

    assert tracer.call("a", inner) == 7
    tracer.call("c", lambda: None)
    assert tracer.names == ["a", "b", "c"]
    assert list(tracer.parents) == [-1, 0, -1]
    assert list(tracer.traces) == [0, 0, 2]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))


# ----------------------------------------------------------------------
# Traced and untraced runs
# ----------------------------------------------------------------------
def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(_tracer):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(tracing, "install", refuse)
    run.run_workload("lookup_uniform", seed=2, seconds=1, trace=0, smoke=True)


@pytest.mark.parametrize("workload", GATED)
def test_traced_run_reports_every_per_layer_metric(workload):
    from repro.sim.scheduler import EventScheduler

    original = EventScheduler.__dict__["run_until"]
    result = run.run_workload(workload, seed=1, seconds=1, trace=1, smoke=True)
    assert EventScheduler.__dict__["run_until"] is original
    expected = {(m_["name"], m_["unit"]) for m_ in SPEC["per_layer"]}
    assert {(k, u) for k, (_v, u) in result.layers.items()} == expected
    assert result.layers["bench.trace_overhead"][0] > 0
    assert os.path.exists(tracing.spans_path(workload, 1))


# ----------------------------------------------------------------------
# Determinism and the output contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", GATED)
def test_same_seed_repeats_across_hash_seeds_and_seed_matters(workload):
    first, _ = smoke_output(workload, seed=3, hashseed="0")
    again, _ = smoke_output(workload, seed=3, hashseed="1")
    other, _ = smoke_output(workload, seed=4, hashseed="0")
    assert first["deterministic"] == again["deterministic"]
    assert first["deterministic"] != other["deterministic"]


def test_last_line_holds_exactly_the_gated_metrics():
    _report, last = smoke_output("lookup_uniform", seed=1)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    expected = {(m_["name"], m_["unit"]) for m_ in SPEC["end_to_end"]}
    assert {(k, v["unit"]) for k, v in last["metrics"].items()} == expected
    assert all(v["value"] != 0 for v in last["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    done = bench(
        "--workload", "lookup_uniform", "--seed", "1", "--seconds", "1", "--trace", "0",
        env=env, cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
