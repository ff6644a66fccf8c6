"""Loadtest harness: determinism, quantile math, end-to-end runs, CLI."""

from __future__ import annotations

import json

import pytest

from repro.clustering.snapshot import SnapshotCluster
from repro.cli import main
from repro.core.crowd import Crowd
from repro.geometry.point import Point
from repro.loadtest import (
    LatencySummary,
    LoadtestReport,
    StoreProfile,
    WorkloadConfig,
    generate_requests,
    loadtest_payload,
    merge_payloads,
    run_loadtest,
)
from repro.store import PatternStore

PROFILE = StoreProfile(
    bbox=(0.0, 0.0, 1000.0, 500.0),
    time_span=(0.0, 40.0),
    object_ids=(1, 2, 3, 7, 9),
)


def small_store(path=":memory:"):
    store = PatternStore(path)
    crowds = []
    for index in range(6):
        oids = [1 + index, 2 + index, 3 + index]
        crowds.append(
            Crowd(
                tuple(
                    SnapshotCluster(
                        timestamp=float(2 * index + k),
                        cluster_id=0,
                        members={o: Point(100.0 * index + o, 50.0 * index) for o in oids},
                    )
                    for k in range(2)
                )
            )
        )
    store.add_crowds(crowds)
    return store


class TestWorkloadDeterminism:
    def test_same_seed_same_sequence(self):
        config = WorkloadConfig(requests=200, clients=4, seed=7)
        assert generate_requests(config, PROFILE) == generate_requests(config, PROFILE)

    def test_different_seeds_differ(self):
        a = generate_requests(WorkloadConfig(requests=200, seed=1), PROFILE)
        b = generate_requests(WorkloadConfig(requests=200, seed=2), PROFILE)
        assert a != b

    def test_sequence_length_and_shape(self):
        config = WorkloadConfig(requests=300, seed=5)
        targets = generate_requests(config, PROFILE)
        assert len(targets) == 300
        for target in targets:
            assert target.startswith(("/gatherings?", "/crowds?", "/stats", "/healthz"))

    def test_mix_weights_respected(self):
        # A bbox-only mix generates nothing but bbox queries.
        config = WorkloadConfig(
            requests=50, seed=3, mix=(("bbox", 1.0), ("stats", 0.0))
        )
        targets = generate_requests(config, PROFILE)
        assert all("bbox=" in target for target in targets)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="requests"):
            WorkloadConfig(requests=0)
        with pytest.raises(ValueError, match="clients"):
            WorkloadConfig(clients=0)
        with pytest.raises(ValueError, match="unknown workload mix"):
            WorkloadConfig(mix=(("teleport", 1.0),))
        with pytest.raises(ValueError, match="positive"):
            WorkloadConfig(mix=(("bbox", 0.0),))

    def test_quick_preset_is_concurrent(self):
        quick = WorkloadConfig.quick()
        assert quick.requests < WorkloadConfig().requests
        assert quick.clients >= 2


class TestLatencySummary:
    def test_exact_quantiles_of_1_to_100(self):
        samples = [float(value) for value in range(1, 101)]
        summary = LatencySummary.from_samples(samples)
        # numpy.percentile(samples, [50, 95, 99], method="linear")
        assert summary.p50_seconds == pytest.approx(50.5)
        assert summary.p95_seconds == pytest.approx(95.05)
        assert summary.p99_seconds == pytest.approx(99.01)
        assert summary.mean_seconds == pytest.approx(50.5)
        assert summary.max_seconds == 100.0
        assert summary.count == 100

    def test_quantile_endpoints_and_interpolation(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert LatencySummary.quantile(samples, 0.0) == 10.0
        assert LatencySummary.quantile(samples, 1.0) == 40.0
        assert LatencySummary.quantile(samples, 0.5) == pytest.approx(25.0)
        assert LatencySummary.quantile(samples, 1.0 / 3.0) == pytest.approx(20.0)

    def test_single_sample(self):
        summary = LatencySummary.from_samples([0.25])
        assert summary.p50_seconds == summary.p99_seconds == summary.max_seconds == 0.25

    def test_unordered_input_is_sorted(self):
        summary = LatencySummary.from_samples([3.0, 1.0, 2.0])
        assert summary.p50_seconds == 2.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError, match="empty"):
            LatencySummary.quantile([], 0.5)
        with pytest.raises(ValueError, match="quantile"):
            LatencySummary.quantile([1.0], 1.5)


class TestReportMath:
    def report(self, wall=2.0, errors=3):
        return LoadtestReport(
            config=WorkloadConfig(requests=100, clients=4),
            latency=LatencySummary.from_samples([0.01] * 100),
            wall_seconds=wall,
            errors=errors,
        )

    def test_throughput_and_error_rate(self):
        report = self.report()
        assert report.throughput_rps == pytest.approx(50.0)
        assert report.error_rate == pytest.approx(0.03)
        assert self.report(wall=0.0).throughput_rps == 0.0

    def test_as_dict_carries_the_gated_keys(self):
        row = self.report().as_dict()
        assert {"p50_seconds", "p95_seconds", "p99_seconds", "error_rate"} <= set(row)
        assert row["backend"] == "async"
        assert row["requests"] == 100


class TestEndToEnd:
    def test_small_run_has_no_errors(self):
        store = small_store()
        try:
            config = WorkloadConfig(requests=60, clients=4, seed=13)
            report = run_loadtest("", config, store=store)
        finally:
            store.close()
        assert report.as_dict()["backend"] == "async"
        assert report.latency.count == 60
        assert report.errors == 0
        assert report.statuses == {200: 60}
        assert report.throughput_rps > 0


class TestBenchSchemaPayload:
    def make_report(self):
        return LoadtestReport(
            config=WorkloadConfig(requests=10, clients=2),
            latency=LatencySummary.from_samples([0.01, 0.02]),
            wall_seconds=1.0,
            errors=0,
        )

    def test_payload_shape(self):
        payload = loadtest_payload(self.make_report(), quick=True, store_summary={"crowds": 6})
        assert payload["quick"] is True
        assert len(payload["scenarios"]) == 1
        scenario = payload["scenarios"][0]
        assert scenario["name"] == "serving"
        assert scenario["store_crowds"] == 6
        assert scenario["backends"][0]["backend"] == "async"

    def test_merge_replaces_same_name_scenarios(self):
        base = {
            "schema_version": 1,
            "scenarios": [{"name": "city", "backends": []}, {"name": "serving", "old": True}],
        }
        extra = loadtest_payload(self.make_report(), quick=False)
        merged = merge_payloads(base, extra)
        names = [scenario["name"] for scenario in merged["scenarios"]]
        assert names == ["city", "serving"]
        assert "old" not in merged["scenarios"][-1]


class TestLoadtestCli:
    def test_cli_writes_bench_schema_output(self, tmp_path, capsys):
        db = tmp_path / "patterns.db"
        small_store(db).close()
        output = tmp_path / "LT.json"
        exit_code = main(
            [
                "loadtest",
                "--store", str(db),
                "--requests", "40",
                "--clients", "4",
                "--output", str(output),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "p50" in captured.out
        payload = json.loads(output.read_text())
        assert payload["scenarios"][0]["name"] == "serving"
        rows = payload["scenarios"][0]["backends"]
        assert [row["backend"] for row in rows] == ["async"]
        assert rows[0]["requests"] == 40
        assert rows[0]["error_rate"] == 0.0

    def test_request_timeout_zero_disables_the_bound(self, tmp_path, capsys):
        # As for ``repro query --serve``: 0 means no per-request bound.
        db = tmp_path / "patterns.db"
        small_store(db).close()
        output = tmp_path / "LT.json"
        exit_code = main(
            [
                "loadtest",
                "--store", str(db),
                "--requests", "20",
                "--clients", "2",
                "--request-timeout", "0",
                "--output", str(output),
            ]
        )
        assert exit_code == 0, capsys.readouterr().err
        row = json.loads(output.read_text())["scenarios"][0]["backends"][0]
        assert row["requests"] == 20 and row["error_rate"] == 0.0

    def test_negative_request_timeout_fails_before_mining(self, capsys):
        exit_code = main(["loadtest", "--quick", "--request-timeout=-1"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "--request-timeout" in captured.err
        assert "mining" not in captured.out
