"""Supervised process-pool execution for deterministic mining jobs.

``multiprocessing.Pool`` hangs forever when a worker dies abruptly, which
turns a single OOM-killed shard into a wedged mining run.
:func:`run_supervised` replaces the bare pool with a
:class:`~concurrent.futures.ProcessPoolExecutor` under a supervisor loop:

* worker death surfaces as :class:`BrokenProcessPool` and a stuck job as a
  per-job timeout — both are caught, the pool is torn down, and the
  outstanding jobs are resubmitted to a fresh pool;
* after ``max_restarts`` pool restarts the supervisor degrades to running
  the remaining jobs serially in-process, so a pathological environment
  still completes (just slower);
* jobs are pure functions of their payloads, so a retried job returns the
  same value and the overall result list is bit-identical with or without
  crashes.

Fault injection for chaos tests is armed in the *parent*: when a
:class:`~repro.resilience.faults.FaultPlan` arms ``worker.crash`` or
``worker.slow``, the supervisor attaches the injection to the job payload
the first time that job is submitted.  A resubmitted job carries no
injections, so a crashed job cannot crash again and every chaos run
terminates deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from .faults import maybe_fault

__all__ = ["JOB_TIMEOUT_ENV", "SupervisorReport", "run_supervised"]

#: Environment variable supplying a default per-job timeout in seconds.
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT_SECONDS"

#: Pool restarts tolerated before degrading to in-process serial execution.
DEFAULT_MAX_RESTARTS = 3


@dataclass
class SupervisorReport:
    """What the supervisor had to do to finish a batch of jobs."""

    restarts: int = 0
    retried: int = 0
    serial_fallback: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot for logs and stats payloads."""
        return {
            "restarts": self.restarts,
            "retried": self.retried,
            "serial_fallback": self.serial_fallback,
        }


def _invoke(fn: Callable[[Any], Any], payload: Any, injections: Tuple[Tuple[Any, ...], ...]) -> Any:
    """Worker-side shim: apply armed injections, then run the real job."""
    for injection in injections:
        if injection[0] == "crash":
            os._exit(17)
        elif injection[0] == "slow":
            time.sleep(float(injection[1]))
    return fn(payload)


def _arm_injections() -> Tuple[Tuple[Any, ...], ...]:
    """Probe the worker fault sites once for a job about to be submitted."""
    injections: List[Tuple[Any, ...]] = []
    if maybe_fault("worker.crash") is not None:
        injections.append(("crash",))
    slow = maybe_fault("worker.slow")
    if slow is not None:
        injections.append(("slow", slow.param if slow.param > 0 else 0.5))
    return tuple(injections)


def _resolve_timeout(job_timeout: Optional[float]) -> Optional[float]:
    """Effective per-job timeout: explicit argument, else environment, else none."""
    if job_timeout is not None:
        return job_timeout if job_timeout > 0 else None
    text = os.environ.get(JOB_TIMEOUT_ENV)
    if not text:
        return None
    value = float(text)
    return value if value > 0 else None


def _default_context() -> multiprocessing.context.BaseContext:
    """Fork when available (cheap, inherits plan state); platform default otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context()


def _kill_pool(executor: ProcessPoolExecutor) -> None:
    """Forcefully stop a broken/stuck pool without waiting on its jobs."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - process already gone
            pass
    executor.shutdown(wait=False, cancel_futures=True)


def run_supervised(
    fn: Callable[[Any], Any],
    payloads: Iterable[Any],
    *,
    workers: int = 1,
    job_timeout: Optional[float] = None,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    mp_context: Optional[multiprocessing.context.BaseContext] = None,
    report: Optional[SupervisorReport] = None,
) -> Iterator[Any]:
    """Run ``fn`` over ``payloads`` in a supervised process pool.

    Yields the results in payload order, exactly as
    ``pool.imap(fn, payloads)`` would — but worker death and per-job
    timeouts are survived by restarting the pool and resubmitting the
    outstanding jobs (each payload runs to completion exactly once in the
    yielded sequence).  Each result is handed back as soon as it and every
    earlier one are done, and ``payloads`` (which may be lazy) is never
    pulled more than ``2 * workers`` ahead of the results the caller has
    consumed, so a streaming consumer holds at most that window of jobs.
    Closing the generator early tears the pool down.

    Parameters
    ----------
    fn:
        Module-level (picklable), deterministic single-payload function.
    workers:
        Pool size; clamped to at least 1.
    job_timeout:
        Per-job wall-clock limit in seconds.  ``None`` reads
        :data:`JOB_TIMEOUT_ENV`; zero/negative disables the limit.
    max_restarts:
        Pool restarts tolerated before the remaining jobs run serially
        in-process.
    mp_context:
        Multiprocessing context override (defaults to fork when available).
    report:
        Optional :class:`SupervisorReport` mutated in place with what the
        supervisor had to do; a fresh one is used when omitted.

    Errors raised by ``fn`` itself (as opposed to the pool dying) propagate
    to the caller unchanged.
    """
    rep = report if report is not None else SupervisorReport()
    workers = max(1, int(workers))
    window = workers * 2
    timeout = _resolve_timeout(job_timeout)
    iterator = iter(payloads)
    pending_entries: Deque[Tuple[int, Any, Tuple[Tuple[Any, ...], ...]]] = deque()
    exhausted = False
    next_index = 0
    yielded = 0
    results: Dict[int, Any] = {}

    def _pull() -> bool:
        """Move one payload from the iterator into the submission queue."""
        nonlocal exhausted, next_index
        if exhausted or next_index - yielded >= window:
            return False
        try:
            payload = next(iterator)
        except StopIteration:
            exhausted = True
            return False
        pending_entries.append((next_index, payload, _arm_injections()))
        next_index += 1
        return True

    while pending_entries or not exhausted or yielded < next_index:
        if rep.restarts > max_restarts:
            rep.serial_fallback = True
            while pending_entries or _pull() or yielded < next_index:
                if pending_entries:
                    index, payload, _ = pending_entries.popleft()
                    results[index] = fn(payload)
                while yielded in results:
                    yielded += 1
                    yield results.pop(yielded - 1)
            break

        context = mp_context if mp_context is not None else _default_context()
        executor = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        in_flight: Dict[Any, Tuple[int, Any]] = {}
        order: Deque[Any] = deque()

        def _recover(
            failed: List[Tuple[int, Any, Tuple[Tuple[Any, ...], ...]]],
        ) -> None:
            """Harvest finished jobs, requeue the rest, tear the pool down."""
            requeue = list(failed)
            for stale in order:
                stale_index, stale_payload = in_flight.pop(stale)
                if stale.done() and not stale.cancelled():
                    try:
                        results[stale_index] = stale.result()
                        continue
                    except BaseException:
                        pass
                requeue.append((stale_index, stale_payload, ()))
            order.clear()
            # Earliest first, so the next in-order result is resubmitted first.
            requeue.sort(key=lambda entry: entry[0])
            pending_entries.extendleft(reversed(requeue))
            rep.restarts += 1
            rep.retried += len(requeue)
            _kill_pool(executor)

        try:
            broken = False
            while not broken:
                while yielded in results:
                    yielded += 1
                    yield results.pop(yielded - 1)
                while len(in_flight) < window and (pending_entries or _pull()):
                    index, payload, injections = pending_entries.popleft()
                    try:
                        future = executor.submit(_invoke, fn, payload, injections)
                    except BrokenProcessPool:
                        _recover([(index, payload, ())])
                        broken = True
                        break
                    in_flight[future] = (index, payload)
                    order.append(future)
                if broken:
                    break
                if not order:
                    executor.shutdown(wait=True)
                    break
                future = order.popleft()
                index, payload = in_flight.pop(future)
                try:
                    results[index] = future.result(timeout=timeout)
                except (BrokenProcessPool, FuturesTimeoutError, OSError):
                    _recover([(index, payload, ())])
                    break
        except BaseException:
            _kill_pool(executor)
            raise
