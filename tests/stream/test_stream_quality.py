"""The live-point quality firewall on the streaming service."""

import math

import pytest

from repro.core.config import GatheringParameters
from repro.quality import IngestError, QualityConfig
from repro.stream import StreamingGatheringService

PARAMS = GatheringParameters(
    eps=200.0, min_points=4, mc=5, delta=300.0, kc=10, kp=6, mp=3
)


def service_with(quality):
    return StreamingGatheringService(PARAMS, window=4, quality=quality)


class TestRejection:
    def test_non_finite_point_rejected(self):
        service = service_with(QualityConfig())
        assert service.ingest((1, 0.0, float("nan"), 0.0)) is False
        assert service.stats.points_rejected == 1
        assert service.stats.rejected_by_rule == {"non_finite": 1}
        assert service.stats.points_ingested == 0

    def test_out_of_bounds_rejected_under_lenient(self):
        service = service_with(QualityConfig(bounds=(0.0, 0.0, 100.0, 100.0)))
        assert service.ingest((1, 0.0, 500.0, 0.0)) is False
        assert service.stats.rejected_by_rule == {"out_of_bounds": 1}

    def test_teleport_rejected_against_last_accepted(self):
        service = service_with(QualityConfig(max_speed=1.0))
        assert service.ingest((1, 0.0, 0.0, 0.0)) is True
        assert service.ingest((1, 1.0, 100.0, 0.0)) is False
        assert service.stats.rejected_by_rule == {"teleport": 1}
        # The rejected fix did not poison the gate: the next plausible point
        # is judged against the last accepted one.
        assert service.ingest((1, 2.0, 1.5, 0.0)) is True
        assert service.stats.points_ingested == 2

    def test_without_quality_everything_flows(self):
        service = StreamingGatheringService(PARAMS, window=4)
        assert service.ingest((1, 0.0, float("nan"), float("nan"))) is True
        assert service.stats.points_rejected == 0


class TestPolicies:
    def test_strict_raises(self):
        service = service_with(QualityConfig(policy="strict"))
        with pytest.raises(IngestError) as excinfo:
            service.ingest((1, 0.0, float("inf"), 0.0))
        assert excinfo.value.reason == "non_finite"

    def test_repair_clamps_bounds(self):
        service = service_with(
            QualityConfig(policy="repair", bounds=(0.0, 0.0, 100.0, 100.0))
        )
        assert service.ingest((1, 0.0, 500.0, -3.0)) is True
        assert service.stats.points_repaired == 1
        assert service.stats.points_rejected == 0
        assert service._pending[1][0.0].x == 100.0
        assert service._pending[1][0.0].y == 0.0


class TestStatsSerialisation:
    def test_as_dict_includes_quality_counters(self):
        service = service_with(QualityConfig())
        service.ingest((1, 0.0, float("nan"), 0.0))
        document = service.stats.as_dict()
        assert document["points_rejected"] == 1
        assert document["points_repaired"] == 0
        assert document["rejected_by_rule"] == {"non_finite": 1}


class TestCheckpointRoundTrip:
    def test_quality_config_and_gate_state_survive(self, tmp_path):
        quality = QualityConfig(
            policy="lenient", max_speed=5.0, bounds=(0.0, 0.0, 1000.0, 1000.0)
        )
        service = service_with(quality)
        service.ingest((1, 0.0, 10.0, 10.0))
        service.ingest((1, 1.0, 900.0, 10.0))  # teleport, rejected
        path = tmp_path / "state.json"
        service.checkpoint(path)

        restored = StreamingGatheringService.restore(path)
        assert restored.quality == quality
        assert restored.stats.points_rejected == 1
        assert restored.stats.rejected_by_rule == {"teleport": 1}
        assert restored._last_valid == service._last_valid
        # The restored gate still rejects the same implausible follow-up.
        assert restored.ingest((1, 2.0, 900.0, 10.0)) is False
        assert restored.ingest((1, 2.0, 15.0, 10.0)) is True

    def test_disarmed_firewall_round_trips_as_none(self, tmp_path):
        service = StreamingGatheringService(PARAMS, window=4)
        service.ingest((1, 0.0, 0.0, 0.0))
        path = tmp_path / "state.json"
        service.checkpoint(path)
        restored = StreamingGatheringService.restore(path)
        assert restored.quality is None
        assert restored.ingest((1, 1.0, float("nan"), 0.0)) is True

    def test_legacy_checkpoint_without_quality_sections_loads(self, tmp_path):
        import hashlib
        import json

        service = StreamingGatheringService(PARAMS, window=4)
        service.ingest((1, 0.0, 0.0, 0.0))
        path = tmp_path / "state.json"
        service.checkpoint(path)

        # Strip the new keys to simulate a pre-firewall checkpoint.
        document = json.loads(path.read_text())
        del document["service"]["quality"]
        del document["stream"]["last_valid"]
        for key in ("points_rejected", "points_repaired", "rejected_by_rule"):
            del document["stats"][key]
        payload = {k: v for k, v in document.items() if k != "integrity"}
        document["integrity"] = {
            "algorithm": "sha256",
            "digest": hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode("utf-8")
            ).hexdigest(),
        }
        path.write_text(json.dumps(document))

        restored = StreamingGatheringService.restore(path)
        assert restored.quality is None
        assert restored._last_valid == {}
        assert restored.stats.points_rejected == 0

    def test_repaired_counter_survives(self, tmp_path):
        service = service_with(
            QualityConfig(policy="repair", bounds=(0.0, 0.0, 100.0, 100.0))
        )
        service.ingest((1, 0.0, 500.0, 50.0))
        path = tmp_path / "state.json"
        service.checkpoint(path)
        restored = StreamingGatheringService.restore(path)
        assert restored.quality.policy == "repair"
        assert restored.stats.points_repaired == 1


class TestMiningUnaffectedByRejections:
    def test_clean_feed_identical_with_and_without_firewall(self):
        from repro.datagen.scenarios import arrival_stream, streaming_scenario

        scenario = streaming_scenario(fleet_size=150, duration=20, seed=9)
        feed = arrival_stream(scenario.database)
        plain = StreamingGatheringService(PARAMS, window=5)
        plain.ingest_many(feed)
        guarded = StreamingGatheringService(
            PARAMS,
            window=5,
            quality=QualityConfig(max_speed=1e9, bounds=(-1e6, -1e6, 1e6, 1e6)),
        )
        guarded.ingest_many(feed)
        result_plain = plain.finish()
        result_guarded = guarded.finish()
        assert guarded.stats.points_rejected == 0
        keys = lambda items: sorted(item.keys() for item in items)  # noqa: E731
        assert keys(result_guarded.gatherings) == keys(result_plain.gatherings)
        assert math.isclose(
            result_guarded.stats.points_ingested, result_plain.stats.points_ingested
        )
