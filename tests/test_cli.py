"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.trajectory.io import load_csv


@pytest.fixture
def fleet_csv(tmp_path):
    path = tmp_path / "fleet.csv"
    exit_code = main(
        [
            "simulate",
            "--output",
            str(path),
            "--fleet",
            "60",
            "--duration",
            "40",
            "--participants",
            "18",
            "--seed",
            "3",
        ]
    )
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_defaults(self):
        args = build_parser().parse_args(["mine", "--input", "x.csv"])
        args_dict = vars(args)
        assert args_dict["mc"] == 6
        assert args_dict["range_search"] == "GRID"
        assert args_dict["format"] == "csv"


class TestSimulate(object):
    def test_writes_csv(self, fleet_csv):
        database = load_csv(fleet_csv)
        assert len(database) == 60
        assert database.total_samples() == 60 * 40

    def test_simulate_output_message(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        main(["simulate", "--output", str(path), "--fleet", "30", "--duration", "20",
              "--participants", "10"])
        captured = capsys.readouterr()
        assert "wrote" in captured.out
        assert path.exists()


class TestMine:
    def test_mine_finds_the_injected_gathering(self, fleet_csv, capsys):
        exit_code = main(
            ["mine", "--input", str(fleet_csv), "--kc", "10", "--kp", "6", "--mp", "4", "--mc", "5"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "closed gatherings" in captured.out

    def test_mine_writes_json(self, fleet_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        exit_code = main(
            [
                "mine",
                "--input",
                str(fleet_csv),
                "--kc",
                "10",
                "--kp",
                "6",
                "--mp",
                "4",
                "--mc",
                "5",
                "--json",
                str(report),
            ]
        )
        assert exit_code == 0
        payload = json.loads(report.read_text())
        assert payload["parameters"]["mc"] == 5
        assert isinstance(payload["gatherings"], list)

    def test_missing_input_reports_error(self, tmp_path, capsys):
        exit_code = main(["mine", "--input", str(tmp_path / "nope.csv")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err

    def test_invalid_parameters_report_error(self, fleet_csv, capsys):
        exit_code = main(["mine", "--input", str(fleet_csv), "--mc", "0"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err

    @pytest.mark.parametrize("command", ("mine", "stream"))
    def test_numpy_backend_rejects_a_scalar_scheme_before_loading(
        self, command, tmp_path, capsys
    ):
        # The input does not exist: the scheme error must come first, i.e.
        # before the input is read, let alone clustered.
        exit_code = main(
            [command, "--input", str(tmp_path / "nope.csv"), "--range-search", "SR"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "'SR'" in captured.err and "--backend python" in captured.err
        assert "nope.csv" not in captured.err

    def test_python_backend_mines_with_a_scalar_scheme(self, fleet_csv, tmp_path, capsys):
        flags = ["--kc", "10", "--kp", "6", "--mp", "4", "--mc", "5"]
        numpy_json, python_json = tmp_path / "numpy.json", tmp_path / "python.json"
        assert main(["mine", "--input", str(fleet_csv), *flags, "--json", str(numpy_json)]) == 0
        assert main(
            [
                "mine", "--input", str(fleet_csv), *flags, "--backend", "python",
                "--range-search", "SR", "--json", str(python_json),
            ]
        ) == 0
        capsys.readouterr()
        assert json.loads(python_json.read_text()) == json.loads(numpy_json.read_text())


GARBLED_CSV = Path(__file__).parent / "fixtures" / "ingest" / "garbled.csv"


class TestIngest:
    def test_lenient_accounts_and_exits_zero(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = main(
            [
                "ingest", "--input", str(GARBLED_CSV),
                "--ingest-report", str(report_path),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "records" in captured.out
        document = json.loads(report_path.read_text())
        assert document["format"] == "repro-ingest-report"
        assert (
            document["accepted"] + document["dropped"] + document["repaired"]
            == document["total"]
        )
        assert document["dropped"] > 0

    def test_strict_exits_nonzero_on_garbled_input(self, capsys):
        exit_code = main(
            ["ingest", "--input", str(GARBLED_CSV), "--quality", "strict"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "strict policy" in captured.err

    def test_repair_keeps_more_than_lenient(self, capsys):
        assert main(
            ["ingest", "--input", str(GARBLED_CSV), "--quality", "repair"]
        ) == 0
        assert "repaired" in capsys.readouterr().out

    def test_quarantine_then_replay(self, tmp_path, capsys):
        dead = tmp_path / "dead.jsonl"
        assert main(
            ["ingest", "--input", str(GARBLED_CSV), "--quarantine", str(dead)]
        ) == 0
        assert dead.exists()
        # Records that are invalid on their own merits are rejected again on
        # replay; only the contextual non-monotone record is valid standalone.
        assert main(["ingest", "--input", str(dead), "--replay"]) == 0
        captured = capsys.readouterr()
        assert "5 total (1 accepted, 0 repaired, 4 dropped)" in captured.out
        assert "dropped/schema" in captured.out
        assert "dropped/parse" in captured.out

    def test_jsonl_format(self, tmp_path, fleet_csv, capsys):
        from repro.trajectory.io import save_jsonl

        jsonl = tmp_path / "fleet.jsonl"
        save_jsonl(load_csv(fleet_csv), jsonl)
        exit_code = main(
            ["ingest", "--input", str(jsonl), "--format", "jsonl"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "0 repaired, 0 dropped" in captured.out

    def test_mine_honours_quality_flags(self, capsys):
        exit_code = main(
            [
                "mine", "--input", str(GARBLED_CSV),
                "--quality", "repair", "--mc", "2", "--mp", "2", "--kc", "2",
                "--kp", "2", "--min-points", "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "records" in captured.out
        assert "closed gatherings" in captured.out

    def test_mine_strict_aborts_on_garbled_input(self, capsys):
        exit_code = main(
            ["mine", "--input", str(GARBLED_CSV), "--quality", "strict"]
        )
        assert exit_code == 1
        assert "strict policy" in capsys.readouterr().err


_STREAM_PARAMS = ["--kc", "10", "--kp", "6", "--mp", "4", "--mc", "5"]


class TestStream:
    def test_stream_matches_mine(self, fleet_csv, tmp_path, capsys):
        mine_json = tmp_path / "mine.json"
        assert main(
            ["mine", "--input", str(fleet_csv), *_STREAM_PARAMS, "--json", str(mine_json)]
        ) == 0
        stream_json = tmp_path / "stream.json"
        assert main(
            [
                "stream", "--input", str(fleet_csv), *_STREAM_PARAMS,
                "--window", "8", "--json", str(stream_json),
            ]
        ) == 0
        capsys.readouterr()
        mined = json.loads(mine_json.read_text())
        streamed = json.loads(stream_json.read_text())
        assert streamed["gatherings"] == mined["gatherings"]
        assert streamed["closed_crowds"] == mined["closed_crowds"]
        assert streamed["stream"]["windows_closed"] >= 2

    def test_stream_checkpoint_restore_round_trip(self, fleet_csv, tmp_path, capsys):
        checkpoint = tmp_path / "state.json"
        first = tmp_path / "first.json"
        assert main(
            [
                "stream", "--input", str(fleet_csv), *_STREAM_PARAMS,
                "--window", "8", "--checkpoint", str(checkpoint),
                "--checkpoint-every", "2", "--json", str(first),
            ]
        ) == 0
        assert checkpoint.exists()
        second = tmp_path / "second.json"
        assert main(
            [
                "stream", "--restore", str(checkpoint),
                "--input", str(fleet_csv), "--json", str(second),
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "restored from" in captured.out
        assert (
            json.loads(second.read_text())["gatherings"]
            == json.loads(first.read_text())["gatherings"]
        )

    def test_stream_requires_a_feed(self, capsys):
        assert main(["stream"]) == 1
        assert "error" in capsys.readouterr().err

    def test_stream_demo_runs(self, capsys):
        exit_code = main(
            [
                "stream", "--demo", "--fleet", "150", "--duration", "30",
                "--jitter", "1.0", "--late-fraction", "0.02", "--slack", "2",
                *_STREAM_PARAMS, "--window", "6",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "closed gatherings" in captured.out
        assert "throughput" in captured.out


class TestCompare:
    def test_compare_prints_all_families(self, fleet_csv, capsys):
        exit_code = main(
            [
                "compare",
                "--input",
                str(fleet_csv),
                "--kc",
                "10",
                "--kp",
                "6",
                "--mp",
                "4",
                "--mc",
                "5",
                "--baseline-min-objects",
                "6",
                "--baseline-min-duration",
                "6",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        for label in ("closed crowds", "closed gatherings", "closed swarms", "convoys"):
            assert label in captured.out


class TestBench:
    def test_quick_bench_writes_schema_json(self, tmp_path, capsys):
        import json as json_module

        out = tmp_path / "BENCH_test.json"
        exit_code = main(
            [
                "bench",
                "--quick",
                "--scenario",
                "efficiency",
                "--output",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "speedup" in captured.out
        payload = json_module.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["quick"] is True
        (scenario,) = payload["scenarios"]
        assert scenario["name"] == "efficiency"
        backends = {timings["backend"] for timings in scenario["backends"]}
        assert backends == {"python", "numpy"}
        for timings in scenario["backends"]:
            for phase in ("cluster_seconds", "crowd_seconds", "detect_seconds"):
                assert timings[phase] >= 0.0
        # Both backends mined the same answer (parity is asserted inside the
        # harness; the counts in the report must agree too).
        crowds = {timings["crowds"] for timings in scenario["backends"]}
        assert len(crowds) == 1

    def test_default_output_never_clobbers_existing_entries(self, tmp_path, monkeypatch):
        from repro.cli import _next_bench_path

        monkeypatch.chdir(tmp_path)
        assert _next_bench_path() == "BENCH_4.json"
        (tmp_path / "BENCH_4.json").write_text("{}")
        (tmp_path / "BENCH_5.json").write_text("{}")
        assert _next_bench_path() == "BENCH_6.json"

    def test_single_backend_run(self, tmp_path):
        import json as json_module

        out = tmp_path / "bench.json"
        exit_code = main(
            [
                "bench",
                "--quick",
                "--scenario",
                "efficiency",
                "--backend",
                "numpy",
                "--output",
                str(out),
            ]
        )
        assert exit_code == 0
        payload = json_module.loads(out.read_text())
        (scenario,) = payload["scenarios"]
        assert [t["backend"] for t in scenario["backends"]] == ["numpy"]
        assert scenario["speedup_total"] is None

    def test_baseline_diff_passes_and_fails(self, tmp_path, capsys):
        import json as json_module

        baseline = tmp_path / "BENCH_base.json"
        exit_code = main(
            [
                "bench", "--quick", "--scenario", "efficiency",
                "--backend", "numpy", "--output", str(baseline),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()

        # Same workload vs its own baseline, generous tolerance: no
        # regression, diff table printed, exit 0.
        out = tmp_path / "BENCH_now.json"
        exit_code = main(
            [
                "bench", "--quick", "--scenario", "efficiency",
                "--backend", "numpy", "--output", str(out),
                "--baseline", str(baseline), "--regress-tolerance", "20.0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "baseline diff" in captured.out
        assert "no regressions past tolerance" in captured.out

        # Doctor the baseline to claim everything used to be 1000x faster:
        # the same run must now trip the tolerance and exit nonzero.
        doctored = json_module.loads(baseline.read_text())
        for scenario in doctored["scenarios"]:
            for timings in scenario["backends"]:
                for phase in (
                    "cluster_seconds", "crowd_seconds",
                    "detect_seconds", "total_seconds",
                ):
                    timings[phase] = timings[phase] / 1000.0 + 1e-9
        fast_baseline = tmp_path / "BENCH_fast.json"
        fast_baseline.write_text(json_module.dumps(doctored))
        exit_code = main(
            [
                "bench", "--quick", "--scenario", "efficiency",
                "--backend", "numpy", "--output", str(tmp_path / "BENCH_again.json"),
                "--baseline", str(fast_baseline), "--regress-tolerance", "0.5",
                # A quick run's phases can dip under the default noise
                # floor; drop it so the doctored baseline flags reliably.
                "--regress-min-seconds", "0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "REGRESSION" in captured.err

        # A baseline with no (scenario, backend) overlap must not pass
        # silently — an empty diff is a disarmed gate, not a green one.
        renamed = json_module.loads(baseline.read_text())
        for scenario in renamed["scenarios"]:
            scenario["name"] = "renamed-away"
        foreign_baseline = tmp_path / "BENCH_foreign.json"
        foreign_baseline.write_text(json_module.dumps(renamed))
        exit_code = main(
            [
                "bench", "--quick", "--scenario", "efficiency",
                "--backend", "numpy", "--output", str(tmp_path / "BENCH_empty.json"),
                "--baseline", str(foreign_baseline),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "REGRESSION CHECK INVALID" in captured.err

    def test_metro_is_a_tracked_scenario(self):
        from repro.bench import SCENARIOS

        metro = SCENARIOS["metro"]
        assert metro.fleet_size >= 5000
        assert metro.duration >= 150
