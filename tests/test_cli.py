"""Tests for the ``python -m repro`` experiment CLI."""

import pytest

from repro.cli import COMMANDS, DESCRIPTIONS, build_parser, main


class TestParser:
    def test_every_command_described(self):
        assert set(COMMANDS) == set(DESCRIPTIONS)

    def test_defaults(self):
        args = build_parser().parse_args(["fig2-3"])
        assert args.trials == 3
        assert args.seed == 20070625
        assert args.population is None

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig5-6", "--trials", "1", "--population", "100", "--seed", "7"]
        )
        assert args.trials == 1
        assert args.population == 100
        assert args.seed == 7

    def test_bench_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestTelemetryPlaneCli:
    def test_top_once_renders_single_frame(self, capsys):
        code = main(
            ["top", "--once", "--population", "6", "--interval", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top -- t=" in out
        assert "node vitals" in out
        # The CI assertion for the subscription panel: every frame shows
        # the continuous-query section, even with nothing registered.
        assert "continuous queries" in out
        # --once never emits the cursor-homing escape used between frames.
        assert "\x1b[H" not in out

    def test_export_writes_prom_and_jsonl(self, tmp_path, capsys):
        import json

        code = main(
            ["export", "--population", "6", "--samples", "2",
             "--interval", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE repro_sim_transport_sent_total counter" in prom
        assert 'repro_node_sent_rate{node="' in prom
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["nodes"] for line in lines)
        assert "exported 2 sample(s)" in capsys.readouterr().out

    def test_export_rejects_zero_samples(self, capsys):
        assert main(["export", "--samples", "0"]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_chaos_writes_plain_and_pubsub_rows(self, tmp_path, capsys):
        import json

        code = main(
            ["chaos", "--scenario", "crash_restart", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "2 scenario(s), 0 failed" in capsys.readouterr().out
        payload = json.loads((tmp_path / "BENCH_chaos.json").read_text())
        assert set(payload) == {
            "_meta", "chaos.crash_restart", "chaos.pubsub.crash_restart",
        }
        assert set(payload["_meta"]) == {"git_sha", "timestamp_utc", "python"}
        for row in (payload["chaos.crash_restart"],
                    payload["chaos.pubsub.crash_restart"]):
            assert row["ok"] is True
            assert row["violations"] == 0
            assert row["lost_objects"] == 0
        pubsub = payload["chaos.pubsub.crash_restart"]
        assert pubsub["expected_notifications"] > 0
        assert pubsub["lost_notifications"] == 0
        assert "expected_notifications" not in payload["chaos.crash_restart"]

    def test_chaos_metrics_dumps_registry(self, tmp_path, capsys):
        import json

        code = main(
            ["chaos", "--scenario", "crash_restart", "--population", "6",
             "--objects", "4", "--metrics",
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "=== metrics: chaos ===" in out
        dump = json.loads((tmp_path / "chaos.metrics.json").read_text())
        assert "sim.transport.sent" in dump
        assert (tmp_path / "BENCH_chaos.json").exists()


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_fig2_3_small(self, capsys):
        code = main(["fig2-3", "--trials", "1", "--population", "60"])
        assert code == 0
        assert "Figures 2/3" in capsys.readouterr().out

    def test_dualpeer_small(self, capsys):
        code = main(["dualpeer", "--trials", "1", "--population", "150"])
        assert code == 0
        assert "failover" in capsys.readouterr().out

    def test_routing_load_small(self, capsys):
        code = main(["routing-load", "--trials", "1", "--population", "150"])
        assert code == 0
        assert "Routing workload balance" in capsys.readouterr().out

    def test_out_writes_file(self, tmp_path, capsys):
        code = main(
            ["fig2-3", "--trials", "1", "--population", "60",
             "--out", str(tmp_path)]
        )
        assert code == 0
        written = tmp_path / "fig2-3.txt"
        assert written.exists()
        assert "Figures 2/3" in written.read_text()

    def test_fig7_8_small(self, capsys):
        code = main(
            ["fig7-8", "--trials", "1", "--population", "150",
             "--rounds", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Figure 8" in out
