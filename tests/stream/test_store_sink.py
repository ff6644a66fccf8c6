"""Streaming service -> PatternStore sink: evictions land durably."""

from __future__ import annotations

import pytest

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.core.gathering import dedupe_gatherings
from repro.datagen.scenarios import arrival_stream, streaming_scenario
from repro.store import PatternStore
from repro.stream import ReplayDriver, StreamingGatheringService

PARAMS = GatheringParameters(
    eps=200.0, min_points=4, mc=5, delta=300.0, kc=10, kp=6, mp=3, time_step=1.0
)


@pytest.fixture(scope="module")
def scenario():
    return streaming_scenario(fleet_size=150, duration=60, seed=51)


@pytest.fixture(scope="module")
def reference(scenario):
    return GatheringMiner(PARAMS).mine(scenario.database)


def replay_with_store(scenario, store, window=10):
    service = StreamingGatheringService(PARAMS, window=window, store=store)
    report = ReplayDriver(service, batch_size=4096).replay(
        arrival_stream(scenario.database)
    )
    return service, report.result


def test_finished_stream_lands_complete_answer(scenario, reference, tmp_path):
    store = PatternStore(tmp_path / "stream.db")
    _, result = replay_with_store(scenario, store)
    assert {c.keys() for c in store.crowds()} == {
        c.keys() for c in reference.closed_crowds
    }
    assert {(g.keys(), g.participator_ids) for g in store.gatherings()} == {
        (g.keys(), g.participator_ids) for g in reference.gatherings
    }
    assert store.params() == PARAMS


def test_evictions_flush_before_finish(scenario, tmp_path):
    store = PatternStore(tmp_path / "live.db")
    service = StreamingGatheringService(PARAMS, window=10, store=store)
    for point in arrival_stream(scenario.database):
        service.ingest(point)
    # The stream is still open: only Lemma-4 evictions have been flushed,
    # and they must all already be in the store.
    assert service.stats.crowds_frozen > 0
    assert store.crowd_count() == service.stats.crowds_frozen
    service.finish()
    assert store.crowd_count() >= service.stats.crowds_frozen


def test_attach_store_enforces_params(tmp_path):
    store = PatternStore(tmp_path / "other.db")
    store.set_params(PARAMS.with_overrides(mc=9))
    with pytest.raises(ValueError, match="refusing to mix"):
        StreamingGatheringService(PARAMS, store=store)


def test_resink_is_idempotent(scenario, tmp_path):
    store = PatternStore(tmp_path / "twice.db")
    replay_with_store(scenario, store)
    counts = (store.crowd_count(), store.gathering_count())
    replay_with_store(scenario, store)  # a second, identical replay
    assert (store.crowd_count(), store.gathering_count()) == counts


class SpyStore(PatternStore):
    """A store that records which write method the service called, and with what."""

    def __init__(self, path):
        super().__init__(path)
        self.calls = []

    def add_patterns(self, crowds, gatherings):
        crowds, gatherings = list(crowds), list(gatherings)
        self.calls.append((crowds, gatherings))
        return super().add_patterns(crowds, gatherings)

    def add_crowds(self, crowds):
        raise AssertionError("the service must write crowds and gatherings together")

    add_gatherings = add_crowds


def test_each_flush_is_one_write_of_crowds_and_gatherings(scenario, tmp_path):
    store = SpyStore(tmp_path / "spy.db")
    spied = StreamingGatheringService(PARAMS, window=10, store=store)
    plain = StreamingGatheringService(PARAMS, window=10)
    for point in arrival_stream(scenario.database):
        spied.ingest(point)
        plain.ingest(point)
    flushes = list(store.calls)
    assert flushes and all(crowds for crowds, _ in flushes)
    assert [crowd for crowds, _ in flushes for crowd in crowds] == spied._frozen_crowds
    for _, gatherings in flushes:
        assert gatherings == dedupe_gatherings(gatherings)
    assert {g.keys() for _, gatherings in flushes for g in gatherings} == {
        g.keys() for g in spied._frozen_gatherings
    }
    result = spied.finish()
    assert len(store.calls) == len(flushes) + 1
    assert store.calls[-1] == (result.closed_crowds, result.gatherings)

    def counts(stats):
        return {k: v for k, v in stats.as_dict().items() if not k.endswith("_seconds")}

    plain.finish()
    assert counts(spied.stats) == counts(plain.stats)
