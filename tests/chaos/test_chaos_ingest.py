"""Chaos: the ``ingest.garble`` site corrupts records mid-load.

The firewall must reject and fully account every garbled record — a
corrupted record may never be mined, and may never break the accounting
invariant.
"""

from repro.quality import IngestError, QualityConfig
from repro.stream import StreamingGatheringService
from repro.trajectory.io import load_csv_report, save_csv
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase

from repro.core.config import GatheringParameters
from repro.geometry.point import Point

PARAMS = GatheringParameters(
    eps=200.0, min_points=4, mc=5, delta=300.0, kc=10, kp=6, mp=3
)


def _clean_csv(tmp_path, samples=6):
    database = TrajectoryDatabase(
        [Trajectory(1, [(float(t), Point(float(t), 0.0)) for t in range(samples)])]
    )
    path = tmp_path / "clean.csv"
    save_csv(database, path)
    return path


class TestBatchGarble:
    def test_garbled_record_dropped_and_accounted(self, arm, tmp_path):
        path = _clean_csv(tmp_path)
        arm("ingest.garble:1")
        database, report = load_csv_report(path)
        assert report.total == 6
        assert report.accepted == 5
        assert report.dropped_by_rule == {"non_finite": 1}
        assert report.accepted + report.dropped + report.repaired == report.total
        assert database.total_samples() == 5

    def test_garble_is_unrepairable(self, arm, tmp_path):
        path = _clean_csv(tmp_path)
        arm("ingest.garble:2")
        _database, report = load_csv_report(path, QualityConfig(policy="repair"))
        assert report.dropped_by_rule == {"non_finite": 2}
        assert report.repaired == 0

    def test_strict_load_aborts_on_garble(self, arm, tmp_path):
        path = _clean_csv(tmp_path)
        arm("ingest.garble:1")
        try:
            load_csv_report(path, QualityConfig(policy="strict"))
        except IngestError as error:
            assert error.reason == "non_finite"
        else:  # pragma: no cover - the assertion documents the expectation
            raise AssertionError("strict load should abort on a garbled record")

    def test_exact_hit_index_targets_one_record(self, arm, tmp_path):
        path = _clean_csv(tmp_path)
        arm('{"faults": [{"site": "ingest.garble", "at": [3]}]}')
        database, report = load_csv_report(path)
        assert report.accepted == 5
        # Records 0-2 and 4-5 survive; the garbled one was t=3.
        assert [t for t, _p in database[1]] == [0.0, 1.0, 2.0, 4.0, 5.0]


class TestStreamGarble:
    def test_garbled_live_point_rejected(self, arm):
        service = StreamingGatheringService(
            PARAMS, window=4, quality=QualityConfig()
        )
        arm("ingest.garble:1")
        assert service.ingest((1, 0.0, 0.0, 0.0)) is False
        assert service.ingest((1, 1.0, 1.0, 0.0)) is True
        assert service.stats.points_rejected == 1
        assert service.stats.rejected_by_rule == {"non_finite": 1}
        assert service.stats.points_ingested == 1

    def test_unguarded_stream_still_probes_but_passes_nan(self, arm):
        # Without a quality config the site still fires; the NaN point flows
        # through (pre-firewall behaviour) — documenting that the firewall,
        # not the fault site, is the protection.
        service = StreamingGatheringService(PARAMS, window=4)
        plan = arm("ingest.garble:1")
        service.ingest((1, 0.0, 0.0, 0.0))
        assert plan.fired_counts() == {"ingest.garble": 1}
