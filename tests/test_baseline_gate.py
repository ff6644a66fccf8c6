"""The ``--baseline`` gate of ``repro bench`` and ``repro loadtest``.

Both commands diff their payload against a prior bench JSON and exit 1
when a row regressed past ``--regress-tolerance`` or when no (scenario,
backend) row overlaps.  The measured runs are replaced by fabricated
payloads, so the exit codes and messages are checked without timing
anything.
"""

import json

import pytest

import repro.bench
import repro.loadtest
from repro.cli import main
from repro.loadtest import LatencySummary, LoadtestReport, WorkloadConfig, loadtest_payload
from repro.store import PatternStore


def _bench_payload(scale=1.0, name="city"):
    timings = {
        "backend": "numpy",
        "cluster_seconds": 1.0 * scale,
        "crowd_seconds": 0.5 * scale,
        "proximity_seconds": 0.2 * scale,
        "detect_seconds": 0.1 * scale,
        "total_seconds": 1.6 * scale,
        "crowds": 3,
        "gatherings": 1,
    }
    scenario = {
        "name": name,
        "quick": False,
        "objects": 10,
        "snapshots": 4,
        "clusters": 2,
        "speedup_total": None,
        "backends": [timings],
    }
    return {"schema_version": 1, "quick": False, "scenarios": [scenario]}


def _loadtest_report(scale=1.0):
    return LoadtestReport(
        config=WorkloadConfig(requests=2, clients=1),
        latency=LatencySummary.from_samples([0.1 * scale, 0.2 * scale]),
        wall_seconds=1.0,
        errors=0,
    )


def _loadtest_baseline(scale=1.0, name=None):
    payload = loadtest_payload(_loadtest_report(scale), quick=False)
    if name is not None:
        payload["scenarios"][0]["name"] = name
    return payload


def _run_bench(tmp_path, monkeypatch, baseline, tolerance):
    monkeypatch.setattr(repro.bench, "run_bench", lambda **_: _bench_payload())
    return main(
        [
            "bench",
            "--output", str(tmp_path / "BENCH_now.json"),
            "--baseline", str(baseline),
            "--regress-tolerance", tolerance,
        ]
    )


def _run_loadtest(tmp_path, monkeypatch, baseline, tolerance):
    store = tmp_path / "patterns.db"
    PatternStore(store).close()
    monkeypatch.setattr(repro.loadtest, "run_loadtest", lambda *_, **__: _loadtest_report())
    return main(
        [
            "loadtest",
            "--store", str(store),
            "--baseline", str(baseline),
            "--regress-tolerance", tolerance,
        ]
    )


#: command -> (runner, baseline payload factory, its run name, its row name)
COMMANDS = {
    "bench": (_run_bench, _bench_payload, "this run", "phase timing(s)"),
    "loadtest": (_run_loadtest, _loadtest_baseline, "this loadtest", "serving metric(s)"),
}


@pytest.fixture(params=sorted(COMMANDS))
def command(request):
    return COMMANDS[request.param]


def _write(tmp_path, payload):
    path = tmp_path / "BENCH_base.json"
    path.write_text(json.dumps(payload))
    return path


def test_equal_baseline_passes(tmp_path, monkeypatch, capsys, command):
    run, baseline, _, _ = command
    exit_code = run(tmp_path, monkeypatch, _write(tmp_path, baseline()), "0.25")
    captured = capsys.readouterr()
    assert exit_code == 0, captured.err
    assert "baseline diff vs" in captured.out
    assert "no regressions past tolerance" in captured.out
    assert "REGRESSION" not in captured.err


def test_regression_past_tolerance_fails(tmp_path, monkeypatch, capsys, command):
    run, baseline, _, rows = command
    # The baseline claims every row was ten times faster.
    exit_code = run(tmp_path, monkeypatch, _write(tmp_path, baseline(scale=0.1)), "0.25")
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "REGRESSION: " in captured.err
    assert f" {rows} past tolerance; worst: " in captured.err
    assert "no regressions past tolerance" not in captured.out


def test_regression_within_tolerance_passes(tmp_path, monkeypatch, capsys, command):
    run, baseline, _, _ = command
    exit_code = run(tmp_path, monkeypatch, _write(tmp_path, baseline(scale=0.9)), "0.25")
    captured = capsys.readouterr()
    assert exit_code == 0, captured.err
    assert "no regressions past tolerance" in captured.out


def test_no_overlap_is_invalid(tmp_path, monkeypatch, capsys, command):
    run, baseline, name, _ = command
    path = _write(tmp_path, baseline(name="renamed-away"))
    exit_code = run(tmp_path, monkeypatch, path, "0.25")
    captured = capsys.readouterr()
    assert exit_code == 1
    assert (
        f"REGRESSION CHECK INVALID: no (scenario, backend) overlap between "
        f"{name} and {path}; nothing was compared"
    ) in captured.err
    assert "baseline diff vs" not in captured.out
