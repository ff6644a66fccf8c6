"""Cross-cutting resilience layer: retries, fault injection, supervision.

Long mining jobs and always-on serving meet real-world failures — a worker
process dying mid-shard, a torn spill file, a locked SQLite database, a
client vanishing mid-request.  This package centralises the machinery every
layer uses to survive them:

* :class:`~repro.resilience.retry.RetryPolicy` — deterministic exponential
  backoff with jitter and an overall deadline, usable around any callable;
* :class:`~repro.resilience.faults.FaultPlan` — a seeded, reproducible
  fault-injection registry.  Named injection sites throughout the codebase
  (``worker.crash``, ``worker.slow``, ``spill.corrupt``, ``store.locked``,
  ``serve.drop``, ``checkpoint.torn``) fire exactly when an armed plan says
  so, which is what makes every chaos run replayable;
* :class:`~repro.resilience.counters.ResilienceCounters` — thread-safe
  counters the serving tier surfaces on ``/stats`` (shed requests, request
  timeouts, dropped connections);
* :func:`~repro.resilience.supervisor.run_supervised` — a supervised
  process-pool executor that detects worker death and per-job timeouts,
  retries the failed deterministic jobs and degrades to in-process serial
  execution, so parallel phase-1 results stay bit-identical under crashes.

See ``docs/operations.md`` for the operational story: failure modes, the
retry/backoff/timeout knobs, the fault-plan format and the chaos harness.
"""

from .counters import ResilienceCounters
from .faults import (
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_plan,
    install_plan,
    maybe_fault,
)
from .retry import RetryDeadlineExceeded, RetryPolicy
from .supervisor import SupervisorReport, run_supervised

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "ResilienceCounters",
    "RetryDeadlineExceeded",
    "RetryPolicy",
    "SupervisorReport",
    "active_plan",
    "clear_plan",
    "install_plan",
    "maybe_fault",
    "run_supervised",
]
