"""The columnar firewall gives exactly what the record-at-a-time oracle gives.

Every comparison runs the production pipeline (:func:`run_pipeline`, and
:func:`load_csv_report` for the block-wise CSV reader) and the scalar
oracle (``scalar_oracle.py``) on the same input, under every policy, both
metrics, with and without a quarantine sink and an armed ``ingest.garble``
plan, and asserts the same:

* report (``IngestReport.as_dict()``), surviving records and quarantine
  file lines;
* strict error — the same ``IngestError.reason`` on the same record index;
* fault-plan hits, so a garble plan sees the same probes.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.trajectory.io as csv_io
from repro.quality import GEO_BOUNDS, IngestError, QualityConfig, RawRecord, run_pipeline
from repro.quality.rules import travel_distance
from repro.resilience.faults import FaultPlan, clear_plan, install_plan

from scalar_oracle import csv_records, database_from_records, oracle_pipeline

#: Planar coordinates: a small grid, so steps (and their distances) repeat
#: and speeds land exactly on the gate; +-3 lies outside PLANAR_BOUNDS.
PLANAR = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
PLANAR_BOUNDS = (-2.0, -2.0, 2.0, 2.0)
#: (lon, lat) degrees near Beijing; 200 / 95 lie outside the WGS-84 box.
LONS = [116.0, 116.0005, 116.001, 116.002, 200.0]
LATS = [39.9, 39.9005, 39.901, 39.902, 95.0]
TIMES = [0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 4.0, -1.0, float("nan")]
SPECIAL = [float("nan"), float("inf"), -float("inf")]


@st.composite
def load(draw):
    """Raw records plus a config, drawn to hit every rule repeatedly."""
    metric = draw(st.sampled_from(["euclidean", "haversine"]))
    xs, ys = (PLANAR, PLANAR) if metric == "euclidean" else (LONS, LATS)
    rows = []
    for index in range(draw(st.integers(min_value=0, max_value=24))):
        kind = draw(st.sampled_from(["fix"] * 8 + ["schema", "parse", "special"]))
        if kind in ("schema", "parse"):
            rows.append(RawRecord(index=index, raw=f"<{kind} {index}>", error=kind))
            continue
        x = draw(st.sampled_from(xs))
        y = draw(st.sampled_from(ys))
        if kind == "special":
            x = draw(st.sampled_from(SPECIAL))
        rows.append(
            RawRecord(
                index=index,
                raw=f"row {index}",
                object_id=draw(st.integers(min_value=0, max_value=3)),
                t=draw(st.sampled_from(TIMES)),
                x=x,
                y=y,
            )
        )
    # A speed gate equal to the distance of one drawn step (dt = 1) puts
    # pairs exactly on max_speed * dt.
    x0, x1 = draw(st.sampled_from(xs)), draw(st.sampled_from(xs))
    y0, y1 = draw(st.sampled_from(ys)), draw(st.sampled_from(ys))
    exact = travel_distance(x0, y0, x1, y1, metric)
    speeds = [None, exact] if exact > 0 else [None]
    speeds += [0.6, 1.5] if metric == "euclidean" else [50.0, 120.0]
    bounds = PLANAR_BOUNDS if metric == "euclidean" else GEO_BOUNDS
    config = QualityConfig(
        policy=draw(st.sampled_from(["strict", "lenient", "repair"])),
        max_speed=draw(st.sampled_from(speeds)),
        min_samples=draw(st.integers(min_value=1, max_value=3)),
        bounds=draw(st.sampled_from([None, bounds])),
        metric=metric,
    )
    garble = draw(
        st.sampled_from(
            [None, "ingest.garble:1", "ingest.garble:3",
             '{"faults": [{"site": "ingest.garble", "at": [2, 5]}]}']
        )
    )
    return rows, config, garble


def _run(firewall, records, config, garble):
    """One firewall's outcome: its result or its strict error, plus plan hits."""
    plan = FaultPlan.parse(garble) if garble else None
    install_plan(plan)
    try:
        outcome = firewall(records, config, "parity")
    except IngestError as error:
        outcome = error
    finally:
        clear_plan()
    hits = (plan.hit_counts(), plan.fired_counts()) if plan else None
    return outcome, hits


def _quarantine_lines(path):
    return path.read_text().splitlines() if path is not None and path.exists() else []


def assert_same(records, config, garble, tmp_path):
    """Both firewalls on ``records``; every observable must match."""
    outcomes = []
    for name, firewall in (("columnar", run_pipeline), ("oracle", oracle_pipeline)):
        sink = None
        if config.quarantine_path is not None:
            sink = tmp_path / f"{name}.jsonl"
            if sink.exists():
                sink.unlink()
        run_config = QualityConfig(**{**config.__dict__, "quarantine_path": sink})
        outcome, hits = _run(firewall, records, run_config, garble)
        outcomes.append((outcome, hits, _quarantine_lines(sink)))
    (columnar, columnar_hits, columnar_lines), (oracle, oracle_hits, oracle_lines) = outcomes
    assert columnar_hits == oracle_hits
    if isinstance(oracle, IngestError):
        assert isinstance(columnar, IngestError), columnar
        assert columnar.reason == oracle.reason
        assert columnar.record.index == oracle.record.index
        assert str(columnar) == str(oracle)
        return
    assert not isinstance(columnar, IngestError), columnar
    assert columnar.report.as_dict() == oracle.report.as_dict()
    assert columnar.records == oracle.records
    assert columnar_lines == oracle_lines


class TestPipelineParity:
    @given(load(), st.booleans())
    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_every_policy_metric_and_plan(self, tmp_path, drawn, quarantine):
        records, config, garble = drawn
        if quarantine:
            config = QualityConfig(**{**config.__dict__, "quarantine_path": tmp_path / "q"})
        assert_same(records, config, garble, tmp_path)

    def test_repeated_violations_in_one_object(self, tmp_path):
        fixes = [(0, 0.0), (1, 0.0), (1, 0.0), (0.5, 0.0), (2, 9.0), (3, 9.0), (2.5, 0.0),
                 (4, 0.0), (4, 0.0), (5, 1.0), (6, 8.0)]
        records = [
            RawRecord(index=i, raw=str(i), object_id=7, t=float(t), x=float(x), y=0.0)
            for i, (t, x) in enumerate(fixes)
        ]
        for policy in ("lenient", "repair", "strict"):
            config = QualityConfig(
                policy=policy, max_speed=1.0, min_samples=2, quarantine_path=tmp_path / "q"
            )
            assert_same(records, config, None, tmp_path)

    @pytest.mark.parametrize("metric", ["euclidean", "haversine"])
    def test_pairs_exactly_at_the_speed_limit_are_not_teleports(self, metric):
        # max_speed * dt equals the math distance exactly; a numpy distance
        # one ulp above it must not turn the pair into a teleport.
        rng = np.random.default_rng(3)
        for _ in range(200):
            x0, y0 = 116.0 + rng.random(), 39.0 + rng.random()
            x1, y1 = x0 + rng.random() * 1e-2, y0 + rng.random() * 1e-2
            limit = travel_distance(x0, y0, x1, y1, metric)
            below = math.nextafter(limit, 0.0)
            for speed, teleports in ((limit, 0), (below, 1)):
                records = [
                    RawRecord(index=0, raw="a", object_id=1, t=0.0, x=x0, y=y0),
                    RawRecord(index=1, raw="b", object_id=1, t=1.0, x=x1, y=y1),
                ]
                for policy in ("lenient", "repair"):
                    config = QualityConfig(policy=policy, max_speed=speed, metric=metric)
                    report = run_pipeline(records, config).report
                    moved = report.dropped_by_rule.get("teleport", 0) + len(report.splits)
                    assert moved == teleports
                    expected = oracle_pipeline(records, config).report.as_dict()
                    assert report.as_dict() == expected


# -- the block-wise CSV reader -----------------------------------------------------
#: Data lines the CSV strategy mixes: clean fixes plus every way a row breaks
#: (field count, numbers, blanks, quoting, line endings).
ROW = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["0", "1", "1.5", "2", "3", "-1", "2e0", "nan"]),
    st.sampled_from(["0.0", "0.5", "1", "2.5", "-2", "3", "inf"]),
    st.sampled_from(["0.0", "1.0", "-0.5", "2"]),
).map(lambda row: ",".join(str(field) for field in row))
BROKEN = st.sampled_from(
    [
        "", "garbage", "1,2,3", "1,2,3,4,5", "x,1,2,3", "1.5,1,2,3", "1,abc,2,3",
        "1,1,,2", " 1,2, 3,4", '"1,x",1,2,3', '"1",4,0.5,0.5', '1,"5",1,"1"',
        '"2","6\n",1,1', '"3,\n4",1,2,3', "1,2,3,4\x00", "99999999999999999999,1,1,1",
        '2,7,"1', " ", "1_0,1,1,1",
    ]
)


@st.composite
def csv_text(draw):
    lines = draw(st.lists(st.one_of(ROW, ROW, BROKEN), max_size=30))
    ending = draw(st.sampled_from(["\n", "\r\n", "\n", "\r"]))
    text = "object_id,t,x,y" + ending + ending.join(lines)
    if draw(st.booleans()):
        text += ending
    return text


def _nul_rejecting_reader(lines, *args, **kwargs):
    """``csv.reader`` as before Python 3.11: a line with a NUL is an error."""

    def checked():
        for line in lines:
            if "\0" in line:
                raise csv.Error("line contains NUL")
            yield line

    return _CSV_READER(checked(), *args, **kwargs)


_CSV_READER = csv.reader


def assert_same_csv_load(tmp_path, text, policy):
    """The block-wise reader and csv.reader + oracle agree on ``text``.

    Either both loads succeed with the same report, database and quarantine
    lines, or both fail: with the same strict error on the same record, or
    both with the reader's :class:`csv.Error`.
    """
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    sinks = {name: tmp_path / f"{name}.jsonl" for name in ("columnar", "oracle")}
    for sink in sinks.values():
        if sink.exists():
            sink.unlink()
    configs = {
        name: QualityConfig(
            policy=policy, max_speed=1.5, min_samples=2, bounds=PLANAR_BOUNDS,
            quarantine_path=sink,
        )
        for name, sink in sinks.items()
    }
    try:
        database, report = csv_io.load_csv_report(path, configs["columnar"])
    except IngestError as error:
        with pytest.raises(IngestError) as expected:
            oracle_pipeline(csv_records(path), configs["oracle"], str(path))
        assert (error.reason, error.record.index, error.record.raw) == (
            expected.value.reason, expected.value.record.index, expected.value.record.raw
        )
        return
    except csv.Error as error:
        with pytest.raises(csv.Error) as expected:
            oracle_pipeline(csv_records(path), configs["oracle"], str(path))
        assert str(error) == str(expected.value)
        return
    oracle = oracle_pipeline(csv_records(path), configs["oracle"], str(path))
    assert report.as_dict() == oracle.report.as_dict()
    assert list(database) == list(database_from_records(oracle.records))
    assert _quarantine_lines(sinks["columnar"]) == _quarantine_lines(sinks["oracle"])


class TestCsvReaderParity:
    @pytest.mark.parametrize("nul_rejected", [False, True], ids=["native", "nul-rejected"])
    @pytest.mark.parametrize("block", [1, 2, 3, 16384])
    @given(text=csv_text(), policy=st.sampled_from(["strict", "lenient", "repair"]))
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_columnar_reader_matches_csv_module(
        self, tmp_path, monkeypatch, block, nul_rejected, text, policy
    ):
        monkeypatch.setattr(csv_io, "_BLOCK_LINES", block)
        if nul_rejected:
            # Before Python 3.11 csv.reader raises on a NUL; emulate that on
            # any interpreter so the block-wise reader is held to both.
            monkeypatch.setattr(csv, "reader", _nul_rejecting_reader)
        assert_same_csv_load(tmp_path, text, policy)

    def test_a_strict_error_before_a_rejected_row_wins(self, tmp_path, monkeypatch):
        # Rows before the rejected one are checked record by record; the
        # floor, which needs the whole file, is not.
        monkeypatch.setattr(csv, "reader", _nul_rejecting_reader)
        strict = QualityConfig(policy="strict", min_samples=5)
        path = tmp_path / "trace.csv"
        path.write_text("object_id,t,x,y\n1,0,0,0\n1,x,0,0\n1,2,0,0\x00\n")
        with pytest.raises(IngestError) as error:
            csv_io.load_csv_report(path, strict)
        assert (error.value.reason, error.value.record.index) == ("parse", 1)
        path.write_text("object_id,t,x,y\n1,0,0,0\n1,1,0,0\n1,2,0,0\x00\n")
        with pytest.raises(csv.Error):
            csv_io.load_csv_report(path, strict)

    def test_objects_spanning_blocks(self, tmp_path, monkeypatch):
        # Interleaved objects with a violation in every block: each object's
        # last-accepted fix must carry across block boundaries.
        lines = ["object_id,t,x,y"]
        for t in range(40):
            for oid in range(3):
                lines.append(f"{oid},{t if t % 7 else t - 3},{t * 0.5},0")
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(lines) + "\n")
        config = QualityConfig(max_speed=1.0, min_samples=2)
        oracle = oracle_pipeline(csv_records(path), config, str(path))
        for block in (1, 5, 16384):
            monkeypatch.setattr(csv_io, "_BLOCK_LINES", block)
            database, report = csv_io.load_csv_report(path, config)
            assert report.as_dict() == oracle.report.as_dict()
            assert list(database) == list(database_from_records(oracle.records))


class TestQuarantineRawText:
    def test_quoted_row_keeps_its_original_text(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('object_id,t,x,y\n1,0,0,0\n"1,x",1,2,3\n1,1,1,0\n')
        sink = tmp_path / "dead.jsonl"
        _database, report = csv_io.load_csv_report(path, QualityConfig(quarantine_path=sink))
        assert report.dropped_by_rule == {"parse": 1}
        entries = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [(entry["index"], entry["raw"]) for entry in entries] == [(1, '"1,x",1,2,3')]
