"""Tests for repro.obs.telemetry -- vitals frames and heartbeat digests."""

import pytest

from repro.core.node import NodeAddress
from repro.obs.telemetry import (
    DIGEST_BYTE_BUDGET,
    EVENT_SAMPLE,
    MAX_SUSPECTS,
    VitalsDigest,
    VitalsFrame,
    cluster_sample,
    demo_cluster,
    drive_traffic,
)


def addr(n):
    return NodeAddress(ip=f"10.0.0.{n}", port=7000)


class TestVitalsDigest:
    def full_digest(self):
        suspects = tuple(
            (NodeAddress(ip="203.117.255.255", port=65535), 99.99)
            for _ in range(MAX_SUSPECTS)
        )
        return VitalsDigest(
            version=999_999,
            window=3600.0,
            sent_rate=9999.999,
            recv_rate=9999.999,
            drop_rate=9999.999,
            retry_rate=9999.999,
            dead_letters=999_999,
            store_size=999_999,
            anti_entropy_debt=999_999,
            shortcut_hit_rate=1.0,
            handler_ms=9999.999,
            queue_depth=999_999,
            suspects=suspects,
        )

    def test_wire_form_is_stable_and_parsable(self):
        digest = VitalsDigest(
            version=3,
            window=5.0,
            sent_rate=1.5,
            recv_rate=1.25,
            drop_rate=0.0,
            retry_rate=0.5,
            dead_letters=1,
            store_size=7,
            anti_entropy_debt=2,
            shortcut_hit_rate=0.75,
            handler_ms=0.123,
            queue_depth=4,
            suspects=((addr(1), 4.2),),
        )
        wire = digest.to_wire()
        assert wire.startswith("v=3|w=5.00|tx=1.500|rx=1.250")
        assert "s=10.0.0.1:7000=4.20" in wire
        assert digest.encoded_size() == len(wire.encode("utf-8"))

    def test_worst_case_digest_fits_byte_budget(self):
        # Extreme-but-representable values in every field must still fit,
        # or the "bounded piggyback" claim silently breaks under load.
        assert self.full_digest().encoded_size() <= DIGEST_BYTE_BUDGET


class TestVitalsFrame:
    def test_totals_are_exact_despite_sampling(self):
        # The hot-path hooks only tick a countdown on most events; the
        # exact totals must still come out right for ANY event count,
        # not just multiples of the sampling interval.
        frame = VitalsFrame()
        for sends in range(3 * EVENT_SAMPLE + 1):
            assert frame.sent_total() == sends
            frame.on_send("HEARTBEAT")
        frame.on_recv("HEARTBEAT")
        assert frame.totals()["sent"] == 3 * EVENT_SAMPLE + 1
        assert frame.totals()["recv"] == 1

    def test_by_kind_counts_are_sampled_estimates(self):
        # Per-kind attribution books EVENT_SAMPLE at every Nth event:
        # nothing until the first sampled event, then the estimate tracks
        # the true count exactly for a single-kind stream.
        frame = VitalsFrame()
        for _ in range(EVENT_SAMPLE - 1):
            frame.on_send("LOOKUP")
        assert frame.sent_by_kind == {}
        frame.on_send("LOOKUP")
        assert frame.sent_by_kind == {"LOOKUP": EVENT_SAMPLE}
        for _ in range(EVENT_SAMPLE):
            frame.on_recv("STORE")
        assert frame.recv_by_kind == {"STORE": EVENT_SAMPLE}

    def test_roll_computes_window_rates(self):
        frame = VitalsFrame()
        first = frame.roll(now=10.0)
        assert first.version == 1
        assert first.window == 0.0
        for _ in range(10):
            frame.on_send("X")
        frame.on_recv("X")
        second = frame.roll(now=15.0)
        assert second.version == 2
        assert second.window == pytest.approx(5.0)
        assert second.sent_rate == pytest.approx(2.0)
        assert second.recv_rate == pytest.approx(0.2)

    def test_roll_resets_window_but_not_lifetime_counters(self):
        frame = VitalsFrame()
        frame.roll(now=0.0)
        frame.on_send("X")
        frame.on_retry()
        frame.roll(now=5.0)
        third = frame.roll(now=10.0)
        assert third.sent_rate == 0.0
        assert third.retry_rate == 0.0
        assert frame.sent_total() == 1
        assert frame.retries == 1

    def test_retry_counts_as_drop_signal(self):
        frame = VitalsFrame()
        frame.roll(now=0.0)
        frame.on_retry()
        digest = frame.roll(now=2.0)
        assert digest.drop_rate == pytest.approx(0.5)
        assert digest.retry_rate == pytest.approx(0.5)

    def test_dead_letters_are_cumulative_in_digest(self):
        frame = VitalsFrame()
        frame.on_dead_letter()
        frame.roll(now=1.0)
        frame.on_dead_letter()
        assert frame.roll(now=2.0).dead_letters == 2

    def test_handler_ms_is_mean_over_window(self):
        frame = VitalsFrame()
        frame.roll(now=0.0)
        frame.on_handler("X", 0.002)
        frame.on_handler("Y", 0.004)
        digest = frame.roll(now=1.0)
        assert digest.handler_ms == pytest.approx(3.0)
        assert frame.handler_calls == {"X": 1, "Y": 1}

    def test_shortcut_hit_rate(self):
        frame = VitalsFrame()
        frame.roll(now=0.0)
        frame.on_shortcut(True)
        frame.on_shortcut(True)
        frame.on_shortcut(False)
        digest = frame.roll(now=1.0)
        assert digest.shortcut_hit_rate == pytest.approx(2.0 / 3.0)
        # No lookups in the next window: rate reads 0, not stale.
        assert frame.roll(now=2.0).shortcut_hit_rate == 0.0

    def test_suspects_truncated_to_wire_cap(self):
        frame = VitalsFrame()
        listed = tuple((addr(n), float(n)) for n in range(1, MAX_SUSPECTS + 3))
        digest = frame.roll(now=1.0, suspects=listed)
        assert len(digest.suspects) == MAX_SUSPECTS
        assert digest.suspects == listed[:MAX_SUSPECTS]

    def test_gauges_pass_through(self):
        frame = VitalsFrame()
        digest = frame.roll(
            now=1.0, store_size=5, anti_entropy_debt=3, queue_depth=2
        )
        assert (digest.store_size, digest.anti_entropy_debt,
                digest.queue_depth) == (5, 3, 2)
        assert frame.last_digest is digest


class TestClusterSample:
    def test_sample_shape_and_determinism(self):
        cluster, rng = demo_cluster(seed=7, population=6)
        drive_traffic(cluster, rng, duration=15.0, operations=6)
        sample = cluster_sample(cluster)
        assert sample["time"] == cluster.scheduler.now
        assert len(sample["nodes"]) >= 1
        row = sample["nodes"][0]
        for key in (
            "address", "version", "sent_rate", "recv_rate", "retry_rate",
            "dead_letters", "store_size", "anti_entropy_debt",
            "shortcut_hit_rate", "handler_ms", "queue_depth",
            "digest_bytes", "peers_tracked", "flags",
        ):
            assert key in row
        addresses = [r["address"] for r in sample["nodes"]]
        assert addresses == sorted(
            addresses, key=lambda a: (a.split(":")[0], int(a.split(":")[1]))
        )
        assert row["version"] > 0
        assert 0 < row["digest_bytes"] <= DIGEST_BYTE_BUDGET
        assert sample["rates"]["sent"] == pytest.approx(
            sum(r["sent_rate"] for r in sample["nodes"])
        )
        # A settled healthy cluster flags nobody.
        assert sample["flagged"] == []
        # SLO histograms filled at the operation edges.
        assert set(sample["slo"]) <= {
            "slo.route.completion",
            "slo.store.update_commit",
            "slo.store.lookup",
        }
        assert sample["slo"]
        for row in sample["slo"].values():
            assert row["count"] >= 1
            assert row["p50"] <= row["p95"] <= row["p99"] <= row["max"]


class TestHeartbeatWithStreak:
    """The fast streak-stamping copy must match dataclasses.replace."""

    def beat(self):
        from repro.geometry import Rect
        from repro.protocol.messages import HeartbeatBody

        return HeartbeatBody(
            rect=Rect(0, 0, 32, 32),
            role="primary",
            secondary=addr(2),
            load=1.0,
            capacity=2.0,
            vitals_streak=1,
        )

    def test_equivalent_to_dataclasses_replace(self):
        import dataclasses

        from repro.protocol.messages import heartbeat_with_streak

        beat = self.beat()
        fast = heartbeat_with_streak(beat, 7)
        assert fast == dataclasses.replace(beat, vitals_streak=7)
        assert type(fast) is type(beat)

    def test_original_is_untouched(self):
        beat = self.beat()
        from repro.protocol.messages import heartbeat_with_streak

        clone = heartbeat_with_streak(beat, 9)
        assert beat.vitals_streak == 1
        assert clone.vitals_streak == 9
        # Every other field is shared verbatim.
        assert clone.rect is beat.rect
        assert clone.secondary is beat.secondary
