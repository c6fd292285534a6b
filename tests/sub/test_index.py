"""Tests for repro.sub.index -- the grid-bucketed subscription index."""

import pytest

from repro.core.node import NodeAddress
from repro.geometry import Point, Rect
from repro.sub import SubIndex, SubRecord

ADDR = NodeAddress("10.0.0.1", 7000)


def make_record(sub_id="s1", rect=Rect(10, 10, 8, 8), version=0,
                registered_at=0.0, duration=100.0):
    return SubRecord(
        sub_id=sub_id,
        rect=rect,
        subscriber=ADDR,
        registered_at=registered_at,
        duration=duration,
        version=version,
    )


class TestConstruction:
    def test_rejects_non_positive_cell(self):
        with pytest.raises(ValueError):
            SubIndex(cell=0.0)

    def test_seeds_from_records(self):
        index = SubIndex(records=[make_record(), make_record(sub_id="s2")])
        assert len(index) == 2
        assert "s1" in index and "s2" in index


class TestLastWriterWins:
    def test_upsert_and_get(self):
        index = SubIndex()
        assert index.upsert(make_record())
        assert index.get("s1").version == 0

    def test_stale_write_rejected(self):
        index = SubIndex()
        index.upsert(make_record(version=3))
        assert not index.upsert(make_record(version=3))
        assert not index.upsert(make_record(version=1))
        assert index.get("s1").version == 3

    def test_newer_version_rebuckets(self):
        index = SubIndex()
        index.upsert(make_record(rect=Rect(0, 0, 4, 4)))
        index.upsert(make_record(rect=Rect(30, 30, 4, 4), version=1))
        assert index.match(Point(2, 2)) == []
        assert [r.sub_id for r in index.match(Point(32, 32))] == ["s1"]

    def test_remove_respects_version_fence(self):
        index = SubIndex()
        index.upsert(make_record(version=2))
        assert index.remove("s1", version=1) is None
        assert "s1" in index
        assert index.remove("s1", version=2).version == 2
        assert "s1" not in index
        assert index.remove("missing") is None

    def test_merge_counts_only_winners(self):
        index = SubIndex()
        index.upsert(make_record(version=1))
        won = index.merge(
            [make_record(version=0), make_record(sub_id="s2")]
        )
        assert won == 1
        assert len(index) == 2


class TestMatching:
    def test_match_covers_closed_edges(self):
        index = SubIndex()
        index.upsert(make_record(rect=Rect(10, 10, 8, 8)))
        assert [r.sub_id for r in index.match(Point(10, 10))] == ["s1"]
        assert [r.sub_id for r in index.match(Point(18, 18))] == ["s1"]
        assert index.match(Point(18.001, 18)) == []
        assert index.match(Point(9.999, 10)) == []

    def test_match_is_one_bucket_probe_sorted_by_id(self):
        index = SubIndex()
        index.upsert(make_record(sub_id="b", rect=Rect(0, 0, 20, 20)))
        index.upsert(make_record(sub_id="a", rect=Rect(5, 5, 10, 10)))
        index.upsert(make_record(sub_id="c", rect=Rect(40, 40, 5, 5)))
        assert [r.sub_id for r in index.match(Point(7, 7))] == ["a", "b"]

    def test_touching_finds_corner_contact(self):
        index = SubIndex()
        index.upsert(make_record(rect=Rect(10, 10, 8, 8)))
        assert [r.sub_id for r in index.touching(Rect(18, 18, 5, 5))] == [
            "s1"
        ]
        assert index.touching(Rect(19, 19, 5, 5)) == []


class TestRestructuring:
    def test_retain_touching_drops_and_returns_the_rest(self):
        index = SubIndex()
        index.upsert(make_record(sub_id="kept", rect=Rect(0, 0, 4, 4)))
        index.upsert(make_record(sub_id="both", rect=Rect(0, 0, 40, 4)))
        index.upsert(make_record(sub_id="gone", rect=Rect(30, 0, 4, 4)))
        dropped = index.split_off(Rect(0, 0, 10, 10))
        assert [r.sub_id for r in dropped] == ["gone"]
        assert sorted(r.sub_id for r in index.records()) == ["both", "kept"]


class TestSweep:
    def test_sweep_removes_only_expired(self):
        index = SubIndex()
        index.upsert(make_record(sub_id="old", duration=10.0))
        index.upsert(make_record(sub_id="new", duration=100.0))
        expired = index.sweep(now=50.0)
        assert [r.sub_id for r in expired] == ["old"]
        assert [r.sub_id for r in index.records()] == ["new"]

    def test_grace_extends_the_lease(self):
        index = SubIndex()
        index.upsert(make_record(duration=10.0))
        assert index.sweep(now=12.0, grace=5.0) == []
        assert index.sweep(now=15.0, grace=5.0) != []

    def test_clear_empties_everything(self):
        index = SubIndex()
        index.upsert(make_record())
        index.clear()
        assert len(index) == 0
        assert index.match(Point(12, 12)) == []
