"""Contracts of the message-path value types.

``NodeAddress`` and ``Message`` are named tuples and ``Event`` is a
slotted class, so hashing, equality and construction run in C on the
hottest paths of the simulation.  These tests pin what callers may rely
on: the same hash (and with it every set and dict iteration order) as
the frozen dataclasses they replaced, the same text forms, immutability,
unchanged defaults and exact live-event accounting.
"""

import json

import pytest

from repro import obs
from repro.obs import causal
from repro.core.node import NodeAddress, synthetic_address
from repro.protocol.forensics import run_split_brain_repro
from repro.sim.scheduler import EventScheduler
from repro.sim.transport import Message


class TestNodeAddress:
    def test_hash_is_the_field_tuple_hash(self):
        """The frozen dataclass hashed ``(ip, port)``; so does the tuple."""
        for ip, port in (("10.0.0.1", 7000), ("203.117.255.255", 65535)):
            assert hash(NodeAddress(ip, port)) == hash((ip, port))

    def test_text_forms_unchanged(self):
        address = NodeAddress("10.0.0.1", 7000)
        assert str(address) == "10.0.0.1:7000"
        assert f"{address}" == "10.0.0.1:7000"
        assert f"to {address}!" == "to 10.0.0.1:7000!"
        assert repr(address) == "NodeAddress(ip='10.0.0.1', port=7000)"

    def test_fields_are_read_only(self):
        address = NodeAddress("10.0.0.1", 7000)
        with pytest.raises(AttributeError):
            address.ip = "10.0.0.2"
        with pytest.raises(AttributeError):
            address.port = 1

    def test_tuple_semantics(self):
        a = NodeAddress("10.0.0.1", 7000)
        b = NodeAddress("10.0.0.2", 7000)
        assert a == ("10.0.0.1", 7000)
        assert sorted((b, a)) == [a, b]
        ip, port = a
        assert (ip, port) == (a.ip, a.port)
        assert json.loads(json.dumps(a)) == ["10.0.0.1", 7000]

    def test_set_order_matches_the_field_tuples(self):
        addresses = [synthetic_address(i) for i in range(300)]
        assert [tuple(a) for a in set(addresses)] == list(
            set((a.ip, a.port) for a in addresses)
        )

    def test_journal_renders_addresses_as_strings(self):
        """Every journal path formats addresses with ``str()``: the JSONL
        never holds an address written as a list."""
        report = run_split_brain_repro()
        lines = report.recorder.dumps_jsonl().splitlines()
        assert lines
        sources = set()
        for line in lines:
            event = json.loads(line)
            for key, value in event.items():
                assert not isinstance(value, list), (key, value)
            if event["kind"] == "send":
                sources.add(event["source"])
        assert sources
        for source in sources:
            ip, port = source.split(":")
            assert ip.startswith("10.") and port == "7000"


class TestMessage:
    def make(self, **overrides):
        fields = dict(
            source=NodeAddress("10.0.0.1", 7000),
            destination=NodeAddress("10.0.0.2", 7000),
            kind="ping",
            body={"x": 1},
            sent_at=2.5,
        )
        fields.update(overrides)
        return Message(**fields)

    def test_field_order_and_defaults(self):
        message = self.make()
        assert Message._fields == (
            "source", "destination", "kind", "body", "sent_at", "msg_id",
            "span",
        )
        assert message.msg_id == -1
        assert message.span is None

    def test_fields_are_read_only(self):
        message = self.make()
        with pytest.raises(AttributeError):
            message.kind = "pong"
        with pytest.raises(AttributeError):
            message.msg_id = 7


class TestEvent:
    def test_cancel_before_firing(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.after(1.0, lambda: fired.append(1))
        assert not event.cancelled
        event.cancel()
        assert event.cancelled
        assert scheduler.pending() == 0
        assert scheduler.cancelled_total == 1
        scheduler.run_all()
        assert fired == []
        assert scheduler.fired == 0

    def test_cancel_after_firing_is_a_no_op(self):
        scheduler = EventScheduler()
        event = scheduler.after(1.0, lambda: None)
        scheduler.run_all()
        assert event._fired
        event.cancel()
        assert not event.cancelled
        assert scheduler.cancelled_total == 0
        assert scheduler.pending() == 0

    def test_ctx_is_captured_at_scheduling(self):
        scheduler = EventScheduler()
        with obs.flight_capture():
            ctx = causal.SpanContext(trace_id=3, span_id=4)
            seen = []
            with causal.using(ctx):
                event = scheduler.after(
                    1.0, lambda: seen.append(causal.current())
                )
            assert event.ctx == ctx
            scheduler.run_all()
        assert seen == [ctx]

    def test_slots_reject_new_attributes(self):
        event = EventScheduler().after(1.0, lambda: None)
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_accounting_through_a_purge(self):
        """Cancelling past half the queue purges it; pending() and
        cancelled_total stay exact across the purge and the run."""
        scheduler = EventScheduler()
        fired = []
        events = [
            scheduler.after(float(i + 1), lambda i=i: fired.append(i))
            for i in range(10)
        ]
        for event in events[:6]:
            event.cancel()
        # The sixth cancel outnumbered the live half and compacted the
        # heap down to the four live entries.
        assert len(scheduler._queue) == 4
        assert scheduler.pending() == 4
        assert scheduler.cancelled_total == 6
        events[0].cancel()
        assert scheduler.cancelled_total == 6
        scheduler.run_until(8.0)
        assert fired == [6, 7]
        assert scheduler.pending() == 2
        events[9].cancel()
        assert scheduler.pending() == 1
        scheduler.run_all()
        assert fired == [6, 7, 8]
        assert scheduler.pending() == 0
        assert scheduler.fired == 3
        assert scheduler.cancelled_total == 7
