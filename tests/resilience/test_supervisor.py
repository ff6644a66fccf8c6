"""Supervised pool execution: crash recovery, timeouts, serial fallback."""

from __future__ import annotations

import pytest

from repro.resilience.faults import FaultPlan, FaultSpec, install_plan
from repro.resilience.supervisor import SupervisorReport, run_supervised


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"job error on {value}")


class TestCleanRuns:
    def test_results_in_payload_order(self):
        assert list(run_supervised(_square, range(10), workers=2)) == [
            v * v for v in range(10)
        ]

    def test_lazy_iterable_payloads(self):
        assert list(run_supervised(_square, (v for v in range(7)), workers=3)) == [
            v * v for v in range(7)
        ]

    def test_empty_payloads(self):
        assert list(run_supervised(_square, [], workers=2)) == []

    def test_untouched_report_on_clean_run(self):
        report = SupervisorReport()
        list(run_supervised(_square, range(4), workers=2, report=report))
        assert report.as_dict() == {
            "restarts": 0,
            "retried": 0,
            "serial_fallback": False,
        }

    def test_job_errors_propagate(self):
        with pytest.raises(ValueError, match="job error"):
            list(run_supervised(_boom, [1], workers=1))


class TestCrashRecovery:
    def test_worker_crash_is_survived_bit_identically(self):
        install_plan(FaultPlan([FaultSpec("worker.crash", times=2)]))
        report = SupervisorReport()
        results = list(run_supervised(_square, range(12), workers=2, report=report))
        assert results == [v * v for v in range(12)]
        assert report.restarts >= 1
        assert report.retried >= 1
        assert not report.serial_fallback

    def test_slow_job_times_out_and_is_retried(self):
        install_plan(FaultPlan([FaultSpec("worker.slow", times=1, param=30.0)]))
        report = SupervisorReport()
        results = list(
            run_supervised(_square, range(6), workers=2, job_timeout=0.5, report=report)
        )
        assert results == [v * v for v in range(6)]
        assert report.restarts >= 1

    def test_serial_fallback_after_restart_budget(self):
        # Crash every submission: the pool can never finish a batch, so the
        # supervisor must degrade to in-process serial execution.
        install_plan(FaultPlan([FaultSpec("worker.crash", times=1000)]))
        report = SupervisorReport()
        results = list(
            run_supervised(_square, range(8), workers=2, max_restarts=1, report=report)
        )
        assert results == [v * v for v in range(8)]
        assert report.serial_fallback
        assert report.restarts == 2


class TestInOrderHandOff:
    """Results stream back in payload order with a bounded pull-ahead."""

    @staticmethod
    def _drain(workers, count, **kwargs):
        """Consume every result, checking the pull-ahead after each one."""
        pulled = 0

        def payloads():
            nonlocal pulled
            for value in range(count):
                pulled += 1
                yield value

        consumed = []
        for result in run_supervised(_square, payloads(), workers=workers, **kwargs):
            assert pulled - len(consumed) <= 2 * workers
            consumed.append(result)
            assert pulled - len(consumed) <= 2 * workers
        return consumed

    def test_payloads_never_pulled_more_than_the_window_ahead(self):
        assert self._drain(workers=2, count=20) == [v * v for v in range(20)]

    def test_order_survives_a_worker_crash_restart(self):
        install_plan(FaultPlan([FaultSpec("worker.crash", times=2)]))
        report = SupervisorReport()
        assert self._drain(workers=2, count=16, report=report) == [
            v * v for v in range(16)
        ]
        assert report.restarts >= 1

    def test_window_holds_when_a_timeout_restart_buffers_results(self):
        # The first job times out after later ones finished: the restart
        # keeps their results, which still count against the window.
        install_plan(FaultPlan([FaultSpec("worker.slow", times=1, param=30.0)]))
        report = SupervisorReport()
        assert self._drain(workers=2, count=12, job_timeout=0.5, report=report) == [
            v * v for v in range(12)
        ]
        assert report.restarts >= 1

    def test_serial_fallback_keeps_order_and_window(self):
        install_plan(FaultPlan([FaultSpec("worker.crash", times=1000)]))
        report = SupervisorReport()
        pulled = 0

        def payloads():
            nonlocal pulled
            for value in range(9):
                pulled += 1
                yield value

        consumed = []
        for result in run_supervised(
            _square, payloads(), workers=2, max_restarts=1, report=report
        ):
            consumed.append(result)
            assert pulled - len(consumed) <= 4
        assert consumed == [v * v for v in range(9)]
        assert report.serial_fallback

    def test_closing_early_stops_pulling(self):
        pulled = 0

        def payloads():
            nonlocal pulled
            for value in range(100):
                pulled += 1
                yield value

        results = run_supervised(_square, payloads(), workers=2)
        assert next(results) == 0
        results.close()
        assert pulled <= 1 + 2 * 2
