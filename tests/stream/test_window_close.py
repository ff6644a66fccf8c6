"""The columnar window close against the per-object oracle builder.

Every window the service closes is checked next to
:func:`window_oracle.oracle_window_close`, run on the same buffer state:
the window database holds the same samples, interpolates to a bit-identical
positions arena, and the buffer (pending fixes, carried fixes, count) is
left exactly as the oracle leaves it — including across a checkpoint and
restore.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from window_oracle import assert_arenas_identical, oracle_arena, oracle_window_close

from repro.core.config import GatheringParameters
from repro.engine.registry import ExecutionConfig
from repro.stream import StreamingGatheringService

PARAMS = GatheringParameters(
    eps=200.0, min_points=2, mc=2, delta=300.0, kc=2, kp=2, mp=2
)


def _buffer(pending):
    """The pending buffer with its order, as the checkpoint lists it."""
    return [(object_id, list(samples.items())) for object_id, samples in pending.items()]


def watch(service, log):
    """Check every window ``service`` closes against the oracle.

    Appends one ``(carried anchors, future fixes)`` pair per checked close
    to ``log``.
    """
    real_window_database = service._window_database
    real_cluster = service._clusterer.cluster
    expected = {}

    def window_database(window_end):
        oracle = oracle_window_close(service._pending, service._carry, window_end)
        count = service._pending_count
        carried = sum(1 for object_id in service._pending if object_id in service._carry)
        database = real_window_database(window_end)
        oracle_db, pending, carry, taken = oracle
        assert _buffer(service._pending) == _buffer(pending)
        assert service._carry == carry
        assert count - service._pending_count == taken
        assert [t.object_id for t in database] == [t.object_id for t in oracle_db]
        for trajectory in oracle_db:
            got = database[trajectory.object_id].sample_triples()
            assert got.tobytes() == trajectory.sample_triples().tobytes()
        expected["database"] = oracle_db
        log.append((carried, service._pending_count))
        return database

    def cluster(database, timestamps=None):
        oracle_db = expected.pop("database")
        assert_arenas_identical(
            database.positions_matrix(timestamps), oracle_arena(oracle_db, timestamps)
        )
        return real_cluster(database, timestamps=timestamps)

    service._window_database = window_database
    service._clusterer.cluster = cluster
    return service


def replay_checked(feed, window, slack, cut):
    """Feed ``feed`` with a checkpoint/restore after ``cut`` points."""
    log = []
    service = watch(
        StreamingGatheringService(
            PARAMS, window=window, slack=slack, config=ExecutionConfig(backend="numpy")
        ),
        log,
    )
    for point in feed[:cut]:
        service.ingest(point)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "stream.ckpt")
        service.checkpoint(path)
        service = watch(StreamingGatheringService.restore(path), log)
    for point in feed[cut:]:
        service.ingest(point)
    service.finish()
    return log


fixes = st.lists(
    st.tuples(
        st.integers(0, 5),  # object: few, so objects share windows
        st.integers(0, 24),  # grid tick; undrawn ticks are sampling gaps
        st.sampled_from([0.0, 0.25, 0.5, 0.75]),  # off-grid fixes
        st.floats(0.0, 300.0),
        st.floats(0.0, 300.0),
        st.floats(0.0, 5.0),  # arrival delay: reorders, or makes late
    ),
    min_size=1,
    max_size=60,
)
#: (index of a fix, extra delay): the same fix delivered again later.
redeliveries = st.lists(st.tuples(st.integers(0, 59), st.floats(0.0, 6.0)), max_size=10)


def arrival_feed(drawn, repeats):
    """Fixes in arrival order, redeliveries included."""
    arrivals = [
        (tick + offset + delay, (object_id, float(tick + offset), x, y))
        for object_id, tick, offset, x, y, delay in drawn
    ]
    for index, extra in repeats:
        if index < len(drawn):
            arrival, point = arrivals[index]
            arrivals.append((arrival + extra, point))
    arrivals.sort(key=lambda item: item[0])
    return [point for _, point in arrivals]


class TestColumnarCloseMatchesOracle:
    @given(
        drawn=fixes,
        repeats=redeliveries,
        window=st.integers(1, 4),
        slack=st.integers(0, 3),
        cut=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_closed_window(self, drawn, repeats, window, slack, cut):
        feed = arrival_feed(drawn, repeats)
        log = replay_checked(feed, window, slack, int(cut * len(feed)))
        assert log  # finish closes at least the last window

    def test_fixed_feed_exercises_carry_and_future_windows(self):
        # Gappy objects with late, redelivered and far-ahead fixes, so the
        # property's ingredients are known to occur at least once.
        drawn = []
        for object_id in range(4):
            for tick in range(0, 30, 1 + object_id):
                delay = 3.5 if tick % 7 == 0 else 0.4 * (tick % 3)
                drawn.append(
                    (object_id, tick, 0.25 * (tick % 4), 10.0 * tick, 5.0 * object_id, delay)
                )
        drawn.append((9, 2, 0.0, 0.0, 0.0, 20.0))  # late by far more than slack
        feed = arrival_feed(drawn, [(3, 1.0), (17, 2.5), (40, 0.0)])
        log = replay_checked(feed, window=2, slack=2, cut=len(feed) // 2)
        assert len(log) >= 10
        assert any(carried for carried, _ in log)
        assert any(future for _, future in log)
