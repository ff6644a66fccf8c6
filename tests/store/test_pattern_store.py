"""PatternStore: round-trips, idempotent appends, merges, version checks."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.clustering.snapshot import SnapshotCluster
from repro.core.codec import crowd_fingerprint, gathering_fingerprint
from repro.core.config import GatheringParameters
from repro.core.crowd import Crowd
from repro.core.gathering import Gathering
from repro.geometry.point import Point
from repro.store import STORE_FORMAT, STORE_VERSION, PatternStore


def cluster(t, cid, oids, x=0.0, y=0.0):
    return SnapshotCluster(
        timestamp=float(t),
        cluster_id=cid,
        members={o: Point(x + 0.25 * o, y + 0.5 * o) for o in oids},
    )


@pytest.fixture
def crowd_a():
    return Crowd((cluster(0, 0, [1, 2, 3]), cluster(1, 0, [1, 2, 3])))


@pytest.fixture
def crowd_b():
    return Crowd(
        (
            cluster(5, 0, [4, 5, 6], x=1000.0, y=1000.0),
            cluster(6, 0, [4, 5, 6], x=1000.0, y=1000.0),
            cluster(7, 1, [4, 5], x=1000.0, y=1000.0),
        )
    )


@pytest.fixture
def gathering_a(crowd_a):
    return Gathering(crowd=crowd_a, participator_ids=frozenset({1, 2, 3}))


class TestRoundTrip:
    def test_crowds_decode_equal(self, crowd_a, crowd_b):
        store = PatternStore(":memory:")
        assert store.add_crowds([crowd_a, crowd_b]) == 2
        assert list(store.crowds()) == [crowd_a, crowd_b]

    def test_gatherings_decode_equal(self, gathering_a):
        store = PatternStore(":memory:")
        assert store.add_gatherings([gathering_a]) == 1
        assert list(store.gatherings()) == [gathering_a]

    def test_float_exactness(self, tmp_path):
        # Awkward floats must survive the disk round-trip bit-for-bit.
        crowd = Crowd(
            (
                SnapshotCluster(
                    timestamp=0.1 + 0.2,
                    cluster_id=0,
                    members={7: Point(1.0 / 3.0, 2.0**-40)},
                ),
            )
        )
        path = tmp_path / "exact.db"
        with PatternStore(path) as store:
            store.add_crowds([crowd])
        with PatternStore(path, readonly=True) as store:
            (back,) = list(store.crowds())
        assert back == crowd
        assert back.clusters[0].timestamp == crowd.clusters[0].timestamp


class TestAppendMergeSemantics:
    def test_duplicate_appends_are_idempotent(self, crowd_a, gathering_a):
        store = PatternStore(":memory:")
        assert store.add_crowds([crowd_a]) == 1
        assert store.add_crowds([crowd_a, crowd_a]) == 0
        assert store.add_gatherings([gathering_a]) == 1
        assert store.add_gatherings([gathering_a]) == 0
        assert store.crowd_count() == 1
        assert store.gathering_count() == 1

    def test_params_mismatch_rejected(self):
        store = PatternStore(":memory:")
        store.set_params(GatheringParameters(mc=5))
        store.set_params(GatheringParameters(mc=5))  # same params: fine
        with pytest.raises(ValueError, match="refusing to mix"):
            store.set_params(GatheringParameters(mc=7))
        store.set_params(GatheringParameters(mc=7), force=True)
        assert store.params().mc == 7

    def test_generation_advances_on_writes(self, crowd_a):
        store = PatternStore(":memory:")
        before = store.generation
        store.add_crowds([crowd_a])
        after = store.generation
        assert after != before
        # A no-op append (all duplicates) keeps the generation stable.
        assert store.add_crowds([crowd_a]) == 0
        assert store.generation == after


class TestVersioning:
    def test_not_a_store_rejected(self, tmp_path):
        rogue = tmp_path / "rogue.db"
        conn = sqlite3.connect(rogue)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        conn.execute("INSERT INTO meta VALUES ('format', 'something-else')")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match=STORE_FORMAT):
            PatternStore(rogue)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.db"
        PatternStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'version'", (str(STORE_VERSION + 1),)
        )
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="unsupported store version"):
            PatternStore(path)

    def test_readonly_blocks_writes_and_missing_files(self, tmp_path, crowd_a):
        path = tmp_path / "ro.db"
        with PatternStore(path) as store:
            store.add_crowds([crowd_a])
        ro = PatternStore(path, readonly=True)
        with pytest.raises(ValueError, match="read-only"):
            ro.add_crowds([crowd_a])
        with pytest.raises(ValueError, match="read-only"):
            ro.set_params(GatheringParameters())
        ro.close()
        with pytest.raises(ValueError, match="does not exist"):
            PatternStore(tmp_path / "missing.db", readonly=True)


class TestQueries:
    @pytest.fixture
    def store(self, crowd_a, crowd_b, gathering_a):
        store = PatternStore(":memory:")
        store.add_crowds([crowd_a, crowd_b])
        store.add_gatherings([gathering_a])
        return store

    def test_bbox_overlap(self, store, crowd_b):
        records = store.query_crowds(bbox=(900.0, 900.0, 1100.0, 1100.0))
        assert [r.decode() for r in records] == [crowd_b]
        assert store.query_crowds(bbox=(5000.0, 5000.0, 6000.0, 6000.0)) == []

    def test_degenerate_bbox_rejected(self, store):
        with pytest.raises(ValueError, match="degenerate bbox"):
            store.query_crowds(bbox=(10.0, 0.0, 0.0, 10.0))

    def test_time_window_overlap(self, store, crowd_a, crowd_b):
        # Window [1, 5] touches crowd_a (ends at 1) and crowd_b (starts at 5).
        records = store.query_crowds(time_from=1.0, time_to=5.0)
        assert [r.decode() for r in records] == [crowd_a, crowd_b]
        assert [r.decode() for r in store.query_crowds(time_from=6.5)] == [crowd_b]
        assert [r.decode() for r in store.query_crowds(time_to=0.5)] == [crowd_a]

    def test_object_id(self, store, crowd_a, crowd_b):
        assert [r.decode() for r in store.query_crowds(object_id=5)] == [crowd_b]
        assert [r.decode() for r in store.query_gatherings(object_id=2)] != []
        assert store.query_gatherings(object_id=999) == []

    def test_min_lifetime_and_limit(self, store, crowd_b):
        assert [r.decode() for r in store.query_crowds(min_lifetime=3)] == [crowd_b]
        assert len(store.query_crowds(limit=1)) == 1
        with pytest.raises(ValueError, match="limit"):
            store.query_crowds(limit=-1)

    def test_record_summary_shape(self, store):
        record = store.query_gatherings()[0]
        summary = record.summary()
        assert summary["kind"] == "gathering"
        assert summary["object_ids"] == [1, 2, 3]
        assert len(summary["bbox"]) == 4
        json.dumps(summary)  # must be JSON-serialisable as-is

    def test_summary_document(self, store):
        summary = store.summary()
        assert summary["format"] == STORE_FORMAT
        assert summary["crowds"] == 2
        assert summary["gatherings"] == 1
        assert summary["objects"] == 6
        assert summary["time_span"] == [0.0, 7.0]


class TestFingerprints:
    def test_fingerprint_is_content_addressed(self, crowd_a):
        same = Crowd(tuple(crowd_a.clusters))
        assert crowd_fingerprint(crowd_a) == crowd_fingerprint(same)

    def test_participators_distinguish_gatherings(self, crowd_a):
        g1 = Gathering(crowd=crowd_a, participator_ids=frozenset({1, 2}))
        g2 = Gathering(crowd=crowd_a, participator_ids=frozenset({1, 2, 3}))
        assert gathering_fingerprint(g1) != gathering_fingerprint(g2)

    def test_distinct_datasets_never_collide(self, crowd_a):
        # Same (t, cluster_id) key sequence, different members/positions —
        # e.g. two different input files mined into one store.  DBSCAN's
        # per-snapshot cluster ids are small and dense, so key-only hashing
        # would silently drop the second dataset's crowds.
        other = Crowd(
            (cluster(0, 0, [7, 8, 9], x=40.0), cluster(1, 0, [7, 8, 9], x=40.0))
        )
        assert [c.key() for c in other.clusters] == [c.key() for c in crowd_a.clusters]
        assert crowd_fingerprint(other) != crowd_fingerprint(crowd_a)
        store = PatternStore(":memory:")
        assert store.add_crowds([crowd_a]) == 1
        assert store.add_crowds([other]) == 1
        assert store.crowd_count() == 2

    def test_member_insertion_order_is_irrelevant(self, crowd_a):
        reordered = Crowd(
            tuple(
                SnapshotCluster(
                    timestamp=c.timestamp,
                    cluster_id=c.cluster_id,
                    members=dict(sorted(c.members.items(), reverse=True)),
                )
                for c in crowd_a.clusters
            )
        )
        assert crowd_fingerprint(reordered) == crowd_fingerprint(crowd_a)
