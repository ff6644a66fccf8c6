"""StreamingGatheringService: windowing, parity, late policies, eviction."""

from __future__ import annotations

import pytest

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.datagen.scenarios import arrival_stream, streaming_scenario
from repro.engine.registry import BACKENDS, ExecutionConfig
from repro.stream import ReplayDriver, StreamingGatheringService, StreamPoint

PARAMS = GatheringParameters(
    eps=200.0, min_points=4, mc=5, delta=300.0, kc=10, kp=6, mp=3
)


def _keys(items):
    return sorted(item.keys() for item in items)


@pytest.fixture(scope="module")
def workload():
    """One streaming scenario, its in-order feed and the batch reference."""
    scenario = streaming_scenario(fleet_size=150, duration=50, seed=11)
    feed = arrival_stream(scenario.database)
    reference = GatheringMiner(PARAMS).mine(scenario.database)
    return scenario.database, feed, reference


class TestBatchParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_equals_batch_mine(self, workload, backend):
        _, feed, reference = workload
        service = StreamingGatheringService(
            PARAMS, window=8, config=ExecutionConfig(backend=backend)
        )
        result = ReplayDriver(service, batch_size=700).replay(feed).result
        assert _keys(result.closed_crowds) == _keys(reference.closed_crowds)
        assert _keys(result.gatherings) == _keys(reference.gatherings)

    @pytest.mark.parametrize("window", [1, 5, 64])
    def test_window_size_does_not_change_the_answer(self, workload, window):
        _, feed, reference = workload
        service = StreamingGatheringService(PARAMS, window=window)
        service.ingest_many(feed)
        result = service.finish()
        assert _keys(result.closed_crowds) == _keys(reference.closed_crowds)
        assert _keys(result.gatherings) == _keys(reference.gatherings)

    def test_jittered_feed_with_slack_is_lossless(self, workload):
        database, _, reference = workload
        feed = arrival_stream(database, jitter=2.0, seed=5)
        service = StreamingGatheringService(PARAMS, window=8, slack=3)
        service.ingest_many(feed)
        result = service.finish()
        assert result.stats.points_late == 0
        assert _keys(result.gatherings) == _keys(reference.gatherings)

    def test_reordered_stream_head_slides_the_origin(self, workload):
        # The globally earliest fix arriving second must not be dropped: the
        # grid origin can slide down until the first window closes.
        service = StreamingGatheringService(PARAMS, window=4, slack=2)
        assert service.ingest((1, 1.0, 0.0, 0.0)) is True
        assert service.ingest((1, 0.0, 0.0, 0.0)) is True
        assert service.stats.points_late == 0

        # Full-parity check: swap the first two fixes of a real feed.
        database, feed, reference = workload
        swapped = [feed[1], feed[0]] + feed[2:]
        full = StreamingGatheringService(PARAMS, window=8, slack=1)
        full.ingest_many(swapped)
        result = full.finish()
        assert result.stats.points_late == 0
        assert _keys(result.gatherings) == _keys(reference.gatherings)


class TestLatePolicies:
    def _service_past_first_window(self, policy):
        service = StreamingGatheringService(
            PARAMS, window=2, late_policy=policy
        )
        for t in range(5):
            service.ingest((1, float(t), 0.0, 0.0))
        assert service.stats.windows_closed >= 1
        return service

    def test_drop_counts_and_discards(self):
        service = self._service_past_first_window("drop")
        assert service.ingest((2, 0.0, 5.0, 5.0)) is False
        assert service.stats.points_late == 1
        assert service.held_points == []

    def test_hold_retains_for_audit(self):
        service = self._service_past_first_window("hold")
        assert service.ingest((2, 0.0, 5.0, 5.0)) is False
        assert service.held_points == [StreamPoint(2, 0.0, 5.0, 5.0)]
        assert service.stats.points_held == 1

    def test_error_raises(self):
        service = self._service_past_first_window("error")
        with pytest.raises(ValueError, match="late point"):
            service.ingest((2, 0.0, 5.0, 5.0))

    def test_redelivery_is_idempotent(self):
        service = StreamingGatheringService(PARAMS, window=4)
        assert service.ingest((1, 0.0, 1.0, 2.0)) is True
        assert service.ingest((1, 0.0, 1.0, 2.0)) is True
        assert service.stats.points_ingested == 1
        assert service.pending_points == 1


class TestEviction:
    def test_frozen_bounds_retained_clusters(self, workload):
        _, feed, _ = workload
        frozen = StreamingGatheringService(PARAMS, window=4, eviction="frozen")
        frozen.ingest_many(feed)
        frozen_result = frozen.finish()

        unbounded = StreamingGatheringService(PARAMS, window=4, eviction="none")
        unbounded.ingest_many(feed)
        unbounded_result = unbounded.finish()

        # Same answer either way...
        assert _keys(frozen_result.closed_crowds) == _keys(unbounded_result.closed_crowds)
        assert _keys(frozen_result.gatherings) == _keys(unbounded_result.gatherings)
        # ...but eviction keeps live state a small fraction of the stream:
        # without it every built cluster stays retained (via the merged
        # cluster database), with it only the frontier's neighbourhood does.
        total = frozen_result.stats.clusters_built
        assert unbounded_result.stats.peak_retained_clusters >= total
        assert frozen_result.stats.peak_retained_clusters < total / 2

    def test_frozen_crowds_are_counted(self, workload):
        _, feed, reference = workload
        service = StreamingGatheringService(PARAMS, window=4)
        service.ingest_many(feed)
        result = service.finish()
        assert service.stats.crowds_frozen <= len(result.closed_crowds)
        assert len(result.closed_crowds) == len(reference.closed_crowds)


class TestLifecycle:
    def test_ingest_after_finish_raises(self):
        service = StreamingGatheringService(PARAMS, window=2)
        service.ingest((1, 0.0, 0.0, 0.0))
        service.finish()
        with pytest.raises(RuntimeError, match="finished"):
            service.ingest((1, 1.0, 0.0, 0.0))

    def test_empty_stream_finishes_cleanly(self):
        service = StreamingGatheringService(PARAMS, window=2)
        result = service.finish()
        assert result.closed_crowds == []
        assert result.gatherings == []

    def test_results_midstream_are_monotone_safe(self, workload):
        _, feed, reference = workload
        service = StreamingGatheringService(PARAMS, window=8)
        service.ingest_many(feed[: len(feed) // 2])
        partial = service.results()
        # Mid-stream results are a usable prefix answer, not an error.
        assert partial.stats.windows_closed >= 1
        service.ingest_many(feed[len(feed) // 2 :])
        final = service.finish()
        assert _keys(final.gatherings) == _keys(reference.gatherings)

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            StreamingGatheringService(PARAMS, window=0)
        with pytest.raises(ValueError, match="slack"):
            StreamingGatheringService(PARAMS, slack=-1)
        with pytest.raises(ValueError, match="late_policy"):
            StreamingGatheringService(PARAMS, late_policy="retry")
        with pytest.raises(ValueError, match="eviction"):
            StreamingGatheringService(PARAMS, eviction="lru")


class TestDriver:
    def test_driver_validation(self):
        service = StreamingGatheringService(PARAMS)
        with pytest.raises(ValueError, match="batch_size"):
            ReplayDriver(service, batch_size=0)
        with pytest.raises(ValueError, match="checkpoint_path"):
            ReplayDriver(service, checkpoint_every=2)

    def test_report_counts_the_fed_points(self, workload):
        _, feed, _ = workload
        service = StreamingGatheringService(PARAMS, window=8)
        report = ReplayDriver(service, batch_size=512).replay(feed)
        assert report.points == len(feed)
        assert report.result.stats.points_ingested == len(feed)
        assert report.points_per_second > 0
