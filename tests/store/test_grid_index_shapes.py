"""The shared LWW grid index over both record shapes.

``GridIndex`` holds point records (store objects) and, as ``SubIndex``,
rect records (subscriptions).  Every property below is checked for both
shapes on seeded random data, against brute-force scans written with the
geometry API alone.
"""

import random

import pytest

from repro.core.node import NodeAddress
from repro.geometry import Point, Rect
from repro.store import GridIndex, ObjectRecord
from repro.sub import SubIndex, SubRecord

ADDR = NodeAddress("10.0.0.1", 7000)
SEEDS = [1, 2, 3, 4]
SHAPES = ["point", "rect"]


def coord(rng):
    # Half the coordinates land on the 2-mile lattice, so cell edges
    # (cell=4), rect edges and split lines are hit exactly.
    if rng.random() < 0.5:
        return float(rng.randrange(0, 33) * 2)
    return rng.uniform(0.0, 64.0)


def make(shape, key, rng, version):
    if shape == "point":
        return ObjectRecord(
            object_id=key, point=Point(coord(rng), coord(rng)),
            version=version,
        )
    x, y = coord(rng), coord(rng)
    return SubRecord(
        sub_id=key,
        rect=Rect(x, y, rng.choice([0.5, 2.0, 4.0, 9.0]),
                  rng.choice([0.5, 2.0, 4.0, 9.0])),
        subscriber=ADDR, registered_at=0.0, duration=100.0, version=version,
    )


def new_index(shape):
    return GridIndex() if shape == "point" else SubIndex()


def meets(record, rect):
    """Brute-force closed contact of a record with ``rect``."""
    if isinstance(record, ObjectRecord):
        p = record.point
        return rect.x <= p.x <= rect.x2 and rect.y <= p.y <= rect.y2
    return rect.touches(record.rect)


def population(shape, rng, count=60):
    """Records with several versions per key, repeats included, shuffled.

    A record is immutable per ``(key, version)`` -- the reporter never
    reuses a version for different content -- so repeats are copies.
    """
    made = {}
    records = []
    for _ in range(count):
        ident = (f"k{rng.randrange(count // 3)}", rng.randrange(6))
        if ident not in made:
            made[ident] = make(shape, ident[0], rng, ident[1])
        records.append(made[ident])
    rng.shuffle(records)
    return records


def state(index):
    return {record.key: record for record in index.records()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
class TestLastWriterWins:
    def test_stale_writes_are_rejected(self, shape, seed):
        rng = random.Random(seed)
        index = new_index(shape)
        for record in population(shape, rng):
            held = index.get(record.key)
            won = index.upsert(record)
            assert won == (held is None or record.version > held.version)
            if not won:
                assert index.get(record.key) is held

    def test_versioned_remove_spares_newer_records(self, shape, seed):
        rng = random.Random(seed)
        index = new_index(shape)
        index.merge(population(shape, rng))
        for key, record in list(state(index).items()):
            assert index.remove(key, version=record.version - 1) is None
            assert index.get(key) is record
            assert index.remove(key, version=record.version) is record
            assert key not in index
        assert len(index) == 0
        assert index.query(Rect(0, 0, 64, 64)) == []

    def test_merge_is_order_insensitive(self, shape, seed):
        rng = random.Random(seed)
        records = population(shape, rng)
        forward, backward = new_index(shape), new_index(shape)
        forward.merge(records)
        backward.merge(reversed(records))
        assert state(forward) == state(backward)
        assert forward.digest() == backward.digest()
        newest = {}
        for record in records:
            if record.version >= newest.get(record.key, record).version:
                newest[record.key] = record
        assert {k: r.version for k, r in state(forward).items()} == {
            k: r.version for k, r in newest.items()
        }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
class TestLookupsMatchBruteForce:
    def test_query(self, shape, seed):
        rng = random.Random(seed)
        index = new_index(shape)
        index.merge(population(shape, rng))
        held = index.records()
        for _ in range(40):
            rect = Rect(coord(rng), coord(rng), rng.uniform(0.5, 20.0),
                        rng.uniform(0.5, 20.0))
            found = index.query(rect)
            assert len(found) == len({r.key for r in found})
            assert {r.key for r in found} == {
                r.key for r in held if meets(r, rect)
            }


@pytest.mark.parametrize("seed", SEEDS)
def test_subscription_views_match_brute_force(seed):
    """``match``/``touching``: the id-sorted views of rect records."""
    rng = random.Random(seed)
    index = SubIndex()
    index.merge(population("rect", rng))
    held = index.records()
    for _ in range(40):
        point = Point(coord(rng), coord(rng))
        expected = sorted(
            r.sub_id for r in held
            if r.rect.covers(point, closed_low_x=True, closed_low_y=True)
        )
        assert [r.sub_id for r in index.match(point)] == expected
        rect = Rect(point.x, point.y, rng.uniform(0.5, 12.0),
                    rng.uniform(0.5, 12.0))
        assert [r.sub_id for r in index.touching(rect)] == sorted(
            r.sub_id for r in held if rect.touches(r.rect)
        )


KEPT = Rect(0, 0, 32, 64)
HANDED = Rect(32, 0, 32, 64)


class TestHandOff:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_record_lands_where_it_is_needed(self, shape, seed):
        rng = random.Random(seed)
        index = new_index(shape)
        index.merge(population(shape, rng))
        before = state(index)
        shipped = {r.key: r for r in index.hand_off(KEPT, HANDED)}
        after = state(index)
        for key, record in before.items():
            # Nothing is lost, and the kept half holds what touches it.
            assert key in after or key in shipped
            assert (key in after) == meets(record, KEPT)
            if shape == "point":
                # Exactly one side: no stale duplicate can outlive a
                # later update on the other.
                assert (key in after) != (key in shipped)
            else:
                assert (key in shipped) == (
                    meets(record, HANDED) or not meets(record, KEPT)
                )

    def test_point_on_the_split_line_stays_on_the_kept_side(self):
        index = GridIndex()
        index.merge([
            ObjectRecord("line", Point(32, 10)),
            ObjectRecord("east", Point(40, 10)),
            ObjectRecord("west", Point(10, 10)),
        ])
        shipped = index.hand_off(KEPT, HANDED)
        assert [r.object_id for r in shipped] == ["east"]
        assert {r.object_id for r in index.records()} == {"line", "west"}

    def test_rects_span_touch_or_leave(self):
        def sub(sub_id, rect):
            return SubRecord(sub_id=sub_id, rect=rect, subscriber=ADDR,
                             registered_at=0.0, duration=100.0)

        index = SubIndex()
        index.merge([
            sub("spanning", Rect(28, 10, 8, 4)),
            sub("on_line", Rect(24, 10, 8, 4)),
            sub("inside", Rect(4, 10, 8, 4)),
            sub("east", Rect(40, 10, 8, 4)),
            sub("stray", Rect(200, 200, 4, 4)),
        ])
        shipped = sorted(r.sub_id for r in index.hand_off(KEPT, HANDED))
        assert shipped == ["east", "on_line", "spanning", "stray"]
        assert sorted(r.sub_id for r in index.records()) == [
            "inside", "on_line", "spanning",
        ]
