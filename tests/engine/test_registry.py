"""Tests for ExecutionConfig and the range-search and detector tables."""

import pytest

from repro.cli import main
from repro.core.config import GatheringParameters
from repro.core.crowd_discovery import discover_closed_crowds
from repro.core.gathering import (
    DETECTORS,
    detect_gatherings_tad_star_packed,
    make_detector,
)
from repro.core.range_search import (
    NUMPY_SCHEMES,
    RANGE_SEARCHES,
    BruteForceRangeSearch,
    GridRangeSearch,
    make_range_search,
    runs_proximity_graph,
)
from repro.datagen.synthetic import synthetic_cluster_database
from repro.engine.registry import BACKENDS, ExecutionConfig


class TestExecutionConfig:
    def test_defaults_select_numpy(self):
        config = ExecutionConfig()
        assert config.backend == "numpy"
        assert config.workers == 1

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ExecutionConfig(backend="fortran")

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError, match="numpy"):
            ExecutionConfig(backend="python", workers=2)
        with pytest.raises(ValueError, match="numpy"):
            ExecutionConfig(backend="python", spill_dir="spill")
        assert ExecutionConfig(backend="python").workers == 1


class TestBuiltinRegistrations:
    def test_range_search_names(self):
        assert list(RANGE_SEARCHES) == ["BRUTE", "SR", "IR", "GRID"]
        assert list(NUMPY_SCHEMES) == ["GRID"]

    def test_every_range_search_has_both_backends(self):
        # Every scheme mines under either backend: picked by name on the
        # scalar reference, or handed over as an instance (the scalar loop,
        # as ablations do) under numpy.  Both agree with the numpy default.
        params = GatheringParameters(mc=3, delta=300.0, kc=3, kp=2, mp=1)
        cdb = synthetic_cluster_database(12, 6, 8, area=3000.0, seed=3)
        default = discover_closed_crowds(cdb, params, config=ExecutionConfig())
        expected = [c.keys() for c in default.closed_crowds]
        assert expected
        for name in RANGE_SEARCHES:
            for backend in BACKENDS:
                strategy = name if backend == "python" else make_range_search(name, params.delta)
                result = discover_closed_crowds(
                    cdb, params, strategy=strategy, config=ExecutionConfig(backend=backend)
                )
                assert [c.keys() for c in result.closed_crowds] == expected, (name, backend)

    def test_detection_backends(self):
        # TAD* has a packed-matrix numpy variant; the others run the same
        # scalar detector on either backend.
        assert sorted(DETECTORS) == [
            ("BRUTE", "python"),
            ("TAD", "python"),
            ("TAD*", "numpy"),
            ("TAD*", "python"),
        ]

    def test_describe_rows(self, capsys):
        assert main(["backends", "--kind", "range_search"]) == 0
        rows = [line.split(maxsplit=3) for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == ["kind", "name", "backend", "description"]
        assert all(row[0] == "range_search" for row in rows[1:])
        assert {(row[1], row[2]) for row in rows[1:]} == {
            ("BRUTE", "python"),
            ("SR", "python"),
            ("IR", "python"),
            ("GRID", "python"),
            ("GRID", "numpy"),
        }

    def test_create_is_case_insensitive(self):
        assert isinstance(make_range_search("grid", 100.0), GridRangeSearch)
        assert make_detector("tad*", "numpy") is detect_gatherings_tad_star_packed

    def test_create_numpy_backend(self):
        assert make_detector("TAD*", "numpy") is detect_gatherings_tad_star_packed
        assert make_detector("TAD*", "python") is not detect_gatherings_tad_star_packed

    def test_detection_falls_back_to_python(self):
        detector = make_detector("TAD", "numpy")
        assert detector.keywords == {"method": "TAD"}

    def test_unknown_kind_raises(self, capsys):
        # The dbscan kind is gone: phase-1 neighbour search is not a choice.
        with pytest.raises(SystemExit):
            main(["backends", "--kind", "dbscan"])
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="quadtree"):
            make_range_search("quadtree", 1.0)
        with pytest.raises(ValueError, match="quadtree"):
            make_detector("quadtree", "python")


class TestMakeRangeSearchDelegation:
    def test_python_backend_default(self):
        assert isinstance(make_range_search("BRUTE", 10.0), BruteForceRangeSearch)

    def test_numpy_backend(self):
        assert runs_proximity_graph(None, "numpy")
        assert runs_proximity_graph("grid", "numpy")
        assert not runs_proximity_graph("SR", "python")
        assert not runs_proximity_graph(make_range_search("SR", 10.0), "numpy")
        with pytest.raises(ValueError, match="--backend python"):
            runs_proximity_graph("SR", "numpy")
        with pytest.raises(ValueError, match="quadtree"):
            runs_proximity_graph("quadtree", "numpy")
