"""CLI coverage for the serving layer: kvbench and serve."""

import json

import pytest

from repro.cli import main


class TestKvbench:
    def test_kvbench_reports_loads(self, capsys):
        main(["kvbench", "h-triang:15", "--ops", "200", "--seed", "0"])
        out = capsys.readouterr().out
        assert "observed" in out and "predicted" in out
        assert "success rate" in out
        assert "deviation" in out

    def test_kvbench_is_deterministic(self, capsys):
        main(["kvbench", "majority:5", "--ops", "150", "--seed", "7", "--json"])
        first = capsys.readouterr().out
        main(["kvbench", "majority:5", "--ops", "150", "--seed", "7", "--json"])
        second = capsys.readouterr().out
        assert first == second
        snapshot = json.loads(first)
        assert snapshot["ops"]["attempted"] == 150
        assert snapshot["seed"] == 7

    def test_kvbench_with_crash_rate(self, capsys):
        main([
            "kvbench", "h-triang:15", "--ops", "200", "--seed", "0",
            "--crash-rate", "0.1", "--json",
        ])
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["ops"]["success_rate"] > 0.9
        assert snapshot["config"]["crash_rate"] == 0.1

    def test_bad_system_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["kvbench", "not-a-system:3"])


class TestKvbenchTcp:
    """kvbench over real sockets: binary wire v2 is the only protocol."""

    def test_tcp_local_run_completes_without_failed_ops(self, capsys):
        main(["kvbench", "majority:3", "--tcp-local", "--ops", "200", "--json"])
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["ops"]["attempted"] == 200
        assert snapshot["ops"]["failed"] == 0

    def test_no_coalesce_applies_to_tcp_local(self, tmp_path):
        out = tmp_path / "perf.json"
        main([
            "kvbench", "majority:3", "--tcp-local", "--ops", "100",
            "--no-coalesce", "--json-out", str(out),
        ])
        perf = json.loads(out.read_text())["perf"]["transport"]
        assert perf["frames_sent"] == perf["coalesced_ops"] > 0
        assert perf["ops_per_frame"] == 1.0

    def test_no_coalesce_applies_to_tcp(self, tmp_path):
        import socket

        from repro.service import ReplicaCluster

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        base = probe.getsockname()[1]
        probe.close()
        out = tmp_path / "perf.json"
        with ReplicaCluster(range(3), workers=1, base_port=base):
            main([
                "kvbench", "majority:3", "--tcp", f"127.0.0.1:{base}",
                "--ops", "100", "--no-coalesce", "--json-out", str(out),
            ])
        report = json.loads(out.read_text())
        assert report["ops"]["failed"] == 0
        assert report["perf"]["transport"]["ops_per_frame"] == 1.0

    def test_no_coalesce_without_tcp_is_rejected(self):
        with pytest.raises(SystemExit, match="--no-coalesce requires"):
            main(["kvbench", "majority:3", "--ops", "50", "--no-coalesce"])

    @pytest.mark.parametrize("flag", ["--binary", "--serialized"])
    def test_json_protocol_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["kvbench", "majority:3", "--tcp-local", flag])
        assert info.value.code == 2  # argparse: unrecognized argument


class TestChaos:
    def test_chaos_reports_and_exits_cleanly(self, capsys):
        main([
            "chaos", "--system", "majority:5", "--seed", "3",
            "--ops", "120", "--keys", "4",
        ])
        out = capsys.readouterr().out
        assert "all held" in out
        assert "measured=" in out and "exact=" in out
        assert "fault rules" in out

    def test_chaos_json_is_deterministic(self, capsys):
        argv = [
            "chaos", "--system", "majority:5", "--seed", "9",
            "--ops", "120", "--keys", "4", "--json",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        snapshot = json.loads(first)
        assert snapshot["seed"] == 9
        assert snapshot["invariants"]["ok"] is True
        assert snapshot["invariants"]["violations"] == []
        assert 0.0 <= snapshot["availability"]["measured"] <= 1.0

    def test_unsafe_partial_writes_exit_nonzero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([
                "chaos", "--system", "majority:5", "--seed", "7",
                "--ops", "200", "--unsafe-partial-writes",
            ])
        assert info.value.code == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_chaos_hierarchical_acceptance_run(self, capsys):
        # The issue's acceptance invocation, scaled down in ops.
        main([
            "chaos", "--system", "htriang:15", "--seed", "7", "--ops", "120",
        ])
        out = capsys.readouterr().out
        assert "all held" in out

    def test_bad_chaos_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--system", "not-a-system:3"])


class TestByzantineChaosCli:
    CLEAN = [
        "chaos", "--system", "masking:5x1", "--byzantine", "1", "--liars", "1",
        "--sim", "--ops", "120", "--keys", "4", "--crash-rate", "0.05",
    ]

    def test_masking_spec_builds(self, capsys):
        main(["info", "masking:5x1"])
        out = capsys.readouterr().out
        assert "masking-majority(n=5,b=1)" in out

    def test_within_budget_run_reports_and_exits_cleanly(self, capsys):
        main(self.CLEAN)
        out = capsys.readouterr().out
        assert "all held" in out
        assert "byzantine" in out
        assert "lies detected=" in out

    def test_over_budget_liars_exit_nonzero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(self.CLEAN[:6] + ["2"] + self.CLEAN[7:])
        assert info.value.code == 1
        out = capsys.readouterr().out
        assert "byzantine-fabricated-read" in out

    def test_thin_system_is_rejected_with_boost_hint(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([
                "chaos", "--system", "htriang:6", "--byzantine", "1",
                "--liars", "1", "--sim", "--ops", "40",
            ])
        assert "boost" in str(info.value)

    def test_boost_flag_thickens_thin_systems(self, capsys):
        main([
            "chaos", "--system", "htriang:6", "--byzantine", "1",
            "--liars", "1", "--boost", "--sim", "--ops", "60",
            "--keys", "4", "--crash-rate", "0.05",
        ])
        out = capsys.readouterr().out
        assert "boosted" in out
        assert "all held" in out

    def test_lease_ttl_surfaces_in_report(self, capsys):
        main(self.CLEAN + ["--lease-ttl", "10"])
        out = capsys.readouterr().out
        assert "leases" in out
        assert "renewals=" in out

    def test_sweep_scorecard_counts_violations_per_invariant(
        self, capsys, tmp_path
    ):
        import json as json_module

        out_path = tmp_path / "byz.json"
        with pytest.raises(SystemExit):
            main(
                self.CLEAN[:6] + ["2"] + self.CLEAN[7:]
                + ["--seeds", "2", "--json-out", str(out_path)]
            )
        payload = json_module.loads(out_path.read_text())
        assert payload["all_ok"] is False
        counts = payload["violations_by_invariant"]
        assert counts["byzantine-fabricated-read"] > 0
        for run in payload["runs"]:
            assert "violation_counts" in run["invariants"]


class TestServe:
    def test_serve_binds_and_exits_after_duration(self, capsys):
        main([
            "serve", "majority:3", "--base-port", "0", "--duration", "0.05",
        ])
        out = capsys.readouterr().out
        assert "serving majority" in out
        assert "binary wire v2 only" in out
        assert out.count("replica") == 3
        assert "127.0.0.1:" in out
