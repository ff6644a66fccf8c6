"""The store's one-pass encoding equals the original codec, byte for byte.

:func:`repro.core.codec.cluster_fragments` encodes each cluster once, from
its frame columns when it has them, and the store joins crowd and
gathering fingerprints and payloads from those fragments.  Here every
fingerprint, payload and stored row is compared with
:mod:`codec_oracle`, the original member-map encoding and insert loop, on
generated patterns: frame-backed and scalar clusters, members inserted in
non-ascending order, a gathering over a sub-crowd that shares cluster
objects with a closed crowd, one cluster in two crowds, awkward floats
(``-0.0``, ``1e16``, ``5e-324``) and object ids near the int64 limit.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
from codec_oracle import (
    crowd_fingerprint as oracle_crowd_fingerprint,
    crowd_payload,
    gathering_fingerprint as oracle_gathering_fingerprint,
    gathering_payload,
    oracle_insert,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.snapshot import SnapshotCluster
from repro.core.codec import (
    cluster_fragments,
    crowd_encoding,
    crowd_fingerprint,
    encode_cluster,
    gathering_encoding,
    gathering_fingerprint,
)
from repro.core.crowd import Crowd
from repro.core.gathering import Gathering
from repro.engine.frame import FrameBackedCluster, SnapshotFrame
from repro.geometry.point import Point
from repro.store import PatternStore

ROOT = Path(__file__).resolve().parents[2]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "store_goldens", ROOT / "tools" / "store_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


store_rows = _tool().store_rows

AWKWARD = [-0.0, 0.0, 1e16, -1e16, 5e-324, -5e-324, 0.1, 1.0 / 3.0, 2.5e-7]
coordinate = st.one_of(
    st.sampled_from(AWKWARD),
    st.floats(min_value=-1e7, max_value=1e7, allow_nan=False, allow_infinity=False),
)
object_id = st.one_of(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=2**62, max_value=2**63 - 1),
)


@st.composite
def cluster_specs(draw):
    """(timestamp, cluster id, [(oid, x, y), ...] in insertion order, frame-backed?)."""
    oids = draw(st.lists(object_id, min_size=1, max_size=8, unique=True))
    order = draw(st.permutations(oids))
    members = [(oid, draw(coordinate), draw(coordinate)) for oid in order]
    timestamp = draw(st.one_of(st.sampled_from([-0.0, 1e16, 5e-324]), st.floats(0, 1e4)))
    return timestamp, draw(st.integers(0, 50)), members, draw(st.booleans())


def build_clusters(specs):
    """Scalar clusters, and frame-backed ones sharing one frame per timestamp slot."""
    clusters = [None] * len(specs)
    framed = [i for i, spec in enumerate(specs) if spec[3]]
    for i, (timestamp, cid, members, _) in enumerate(specs):
        if i not in framed:
            clusters[i] = SnapshotCluster(
                timestamp=timestamp,
                cluster_id=cid,
                members={oid: Point(x, y) for oid, x, y in members},
            )
    # Frame-backed clusters come in frames of up to two segments, keeping
    # each segment's (possibly non-ascending) insertion order as its rows.
    for group in (framed[k : k + 2] for k in range(0, len(framed), 2)):
        rows = [member for i in group for member in specs[i][2]]
        sizes = [len(specs[i][2]) for i in group]
        frame = SnapshotFrame(
            timestamp=specs[group[0]][0],
            coords=np.array([[x, y] for _, x, y in rows], dtype=float),
            object_ids=np.array([oid for oid, _, _ in rows], dtype=np.int64),
            offsets=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
            cluster_ids=np.array([specs[i][1] for i in group], dtype=np.int64),
        )
        frame.clusters = tuple(FrameBackedCluster(frame, k) for k in range(len(group)))
        for k, i in enumerate(group):
            clusters[i] = frame.clusters[k]
    return clusters


@st.composite
def pattern_sets(draw):
    """Crowds and gatherings that share cluster objects in every way a miner does."""
    specs = draw(st.lists(cluster_specs(), min_size=2, max_size=7))
    clusters = build_clusters(specs)
    cut = draw(st.integers(1, len(clusters) - 1))
    closed = Crowd(tuple(clusters[:cut + 1]))
    # A second crowd that reuses the last cluster of the first one.
    other = Crowd(tuple(clusters[cut:]))
    crowds = [closed, other]
    start = draw(st.integers(0, len(closed) - 1))
    end = draw(st.integers(start + 1, len(closed)))
    sub = Crowd(closed.clusters[start:end])

    def participators(crowd):
        ids = sorted(crowd.object_ids())
        return frozenset(draw(st.lists(st.sampled_from(ids), unique=True)))

    gatherings = [
        Gathering(crowd=sub, participator_ids=participators(sub)),
        Gathering(crowd=closed, participator_ids=participators(closed)),
        Gathering(crowd=other, participator_ids=participators(other)),
    ]
    return crowds, gatherings


def oracle_rows(crowds, gatherings):
    store = PatternStore(":memory:")
    oracle_insert(store._conn, crowds, gatherings)
    return store_rows(store._conn)


def content(store):
    """Every stored row keyed by fingerprint instead of row id, as a repr."""
    conn = store._conn
    tables = [
        conn.execute(
            f"SELECT fingerprint, start_time, end_time, lifetime, min_x, min_y,"
            f" max_x, max_y, payload FROM {table} ORDER BY fingerprint"
        ).fetchall()
        for table in ("crowds", "gatherings")
    ]
    tables.append(conn.execute(
        "SELECT c.fingerprint, m.object_id, m.occurrences FROM crowd_members m"
        " JOIN crowds c ON c.id = m.crowd_id ORDER BY 1, 2"
    ).fetchall())
    tables.append(conn.execute(
        "SELECT g.fingerprint, p.object_id FROM gathering_participators p"
        " JOIN gatherings g ON g.id = p.gathering_id ORDER BY 1, 2"
    ).fetchall())
    return repr([[tuple(row) for row in rows] for rows in tables])


@settings(max_examples=150, deadline=None)
@given(pattern_sets())
def test_fingerprints_and_payloads_match_the_original_codec(patterns):
    crowds, gatherings = patterns
    for crowd in crowds:
        encoded = crowd_encoding(crowd)
        assert encoded.fingerprint == oracle_crowd_fingerprint(crowd)
        assert crowd_fingerprint(crowd) == encoded.fingerprint
        assert encoded.payload == crowd_payload(crowd)
    for gathering in gatherings:
        encoded = gathering_encoding(gathering)
        assert encoded.fingerprint == oracle_gathering_fingerprint(gathering)
        assert gathering_fingerprint(gathering) == encoded.fingerprint
        assert encoded.payload == gathering_payload(gathering)
        for cluster in gathering.crowd.clusters:
            assert cluster_fragments(cluster).payload == json.dumps(encode_cluster(cluster))


@settings(max_examples=100, deadline=None)
@given(pattern_sets())
def test_stored_rows_match_the_original_insert(patterns):
    crowds, gatherings = patterns
    expected = oracle_rows(crowds, gatherings)

    written = PatternStore(":memory:")
    assert written.add_patterns(crowds, gatherings) == {
        "crowds": len(expected["crowds"]),
        "gatherings": len(expected["gatherings"]),
    }
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(store_rows(written._conn)) == repr(expected)

    # Re-writing the decoded (scalar) clusters, in the store's query order,
    # gives the oracle's rows for that order and the written content.
    decoded = list(written.crowds()), list(written.gatherings())
    rewritten = PatternStore(":memory:")
    rewritten.add_patterns(*decoded)
    assert repr(store_rows(rewritten._conn)) == repr(oracle_rows(*decoded))
    assert content(rewritten) == content(written)


def test_frame_backed_encoding_never_builds_the_member_map():
    specs = [(3.0, 1, [(9, 1.0, 2.0), (4, -0.0, 5e-324)], True)]
    (cluster,) = build_clusters(specs)
    crowd_encoding(Crowd((cluster,)))
    PatternStore(":memory:").add_crowds([Crowd((cluster,))])
    assert cluster._members is None
