"""Serving load harness (``repro loadtest``).

Replays a configurable mixed query workload — bbox, time-range and
object-id queries plus paginated and introspection requests, chosen by
seeded RNG mix weights — against a live pattern server with N concurrent
clients, and summarises what the clients saw: p50/p95/p99 latency,
throughput and error rate.

The report is emitted in the same JSON schema as ``repro bench``
(one ``serving`` scenario whose one row measures the async server), so
serving performance lands in the committed ``BENCH_<n>.json`` trajectory
and regresses loudly through the existing ``--baseline`` diff machinery —
exactly the treatment mining performance already gets.

Determinism: :func:`generate_requests` is a pure function of the workload
config and the store profile, so the same seed and config always replay
the same request sequence (unit-tested), and latency summaries are exact
quantiles over the recorded samples (also unit-tested).
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .serve.app import PatternApp
from .serve.async_http import DEFAULT_REQUEST_TIMEOUT, running_server
from .serve.pool import ReadConnectionPool, SingleStorePool
from .store.pattern_store import PatternStore

__all__ = [
    "LatencySummary",
    "LoadtestReport",
    "StoreProfile",
    "WorkloadConfig",
    "generate_requests",
    "loadtest_payload",
    "merge_payloads",
    "run_loadtest",
]

#: Row name of the measured server in the bench-schema payload; the
#: committed BENCH_<n>.json files key their serving rows by it.
SERVER_ROW = "async"

#: Default request-mix weights (normalised at generation time).
DEFAULT_MIX: Mapping[str, float] = {
    "bbox": 0.30,       # spatial window queries
    "time": 0.25,       # time-range queries
    "object": 0.20,     # per-object membership queries
    "page": 0.15,       # limit'd (paginated) listings
    "stats": 0.10,      # /stats and /healthz introspection
}


@dataclass(frozen=True)
class WorkloadConfig:
    """One replayable workload: request count, concurrency, seed, mix."""

    requests: int = 2000
    clients: int = 16
    seed: int = 11
    mix: Tuple[Tuple[str, float], ...] = tuple(sorted(DEFAULT_MIX.items()))
    limit_choices: Tuple[int, ...] = (5, 20, 50)

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be positive")
        if self.clients < 1:
            raise ValueError("clients must be positive")
        unknown = [kind for kind, _ in self.mix if kind not in DEFAULT_MIX]
        if unknown:
            raise ValueError(
                f"unknown workload mix kind(s) {unknown}; choose from {sorted(DEFAULT_MIX)}"
            )
        if sum(weight for _, weight in self.mix) <= 0:
            raise ValueError("workload mix weights must sum to a positive value")

    @classmethod
    def quick(cls, seed: int = 11) -> "WorkloadConfig":
        """The reduced CI-smoke workload (small but still concurrent)."""
        return cls(requests=240, clients=8, seed=seed)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view recorded in the report."""
        return {
            "requests": self.requests,
            "clients": self.clients,
            "seed": self.seed,
            "mix": dict(self.mix),
            "limit_choices": list(self.limit_choices),
        }


@dataclass(frozen=True)
class StoreProfile:
    """What the workload generator needs to know about the target store.

    The generated queries must actually hit data — a workload of queries
    outside the store's extent would measure the empty-result fast path —
    so the profile captures the store's bbox, time span and a sample of
    member object ids.
    """

    bbox: Tuple[float, float, float, float]
    time_span: Tuple[float, float]
    object_ids: Tuple[int, ...]

    @classmethod
    def from_store(cls, store: PatternStore, sample: int = 64) -> "StoreProfile":
        """Profile one store (empty stores get a degenerate unit profile)."""
        summary = store.summary()
        bbox = summary.get("bbox") or [0.0, 0.0, 1.0, 1.0]
        span = summary.get("time_span") or [0.0, 1.0]
        object_ids: List[int] = []
        for record in store.query_crowds(limit=sample):
            object_ids.extend(record.object_ids)
        ids = tuple(sorted(set(object_ids))) or (0,)
        return cls(bbox=tuple(bbox), time_span=tuple(span), object_ids=ids)


def generate_requests(config: WorkloadConfig, profile: StoreProfile) -> List[str]:
    """The deterministic request sequence of one workload.

    A pure function of ``(config, profile)``: the same seed, mix and store
    profile always produce the identical list of request targets, so two
    loadtest runs replay the same traffic.
    """
    rng = random.Random(config.seed)
    kinds = [kind for kind, weight in config.mix if weight > 0]
    weights = [weight for _, weight in config.mix if weight > 0]
    min_x, min_y, max_x, max_y = profile.bbox
    t_lo, t_hi = profile.time_span

    def _sub_range(lo: float, hi: float) -> Tuple[float, float]:
        """A random non-degenerate sub-interval of ``[lo, hi]``."""
        a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        return a, b

    requests: List[str] = []
    for _ in range(config.requests):
        table = rng.choice(("gatherings", "crowds"))
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        if kind == "bbox":
            x1, x2 = _sub_range(min_x, max_x)
            y1, y2 = _sub_range(min_y, max_y)
            target = f"/{table}?bbox={x1:.3f},{y1:.3f},{x2:.3f},{y2:.3f}"
        elif kind == "time":
            a, b = _sub_range(t_lo, t_hi)
            target = f"/{table}?from={a:.3f}&to={b:.3f}"
        elif kind == "object":
            target = f"/{table}?object_id={rng.choice(profile.object_ids)}"
        elif kind == "page":
            target = f"/{table}?limit={rng.choice(config.limit_choices)}"
        else:  # stats
            target = rng.choice(("/stats", "/healthz"))
        if kind in ("bbox", "time") and rng.random() < 0.25:
            target += "&min_lifetime=2"
        requests.append(target)
    return requests


@dataclass(frozen=True)
class LatencySummary:
    """Exact quantile summary of one latency sample set (seconds)."""

    count: int
    mean_seconds: float
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    max_seconds: float

    @staticmethod
    def quantile(sorted_samples: Sequence[float], q: float) -> float:
        """Linear-interpolated quantile of an ascending sample sequence.

        The standard ``numpy.percentile(..., method="linear")`` definition:
        rank ``q * (n - 1)`` interpolated between its floor and ceiling
        neighbours.  Implemented here (not via numpy) so the serving tier
        stays dependency-free.
        """
        if not sorted_samples:
            raise ValueError("quantile of an empty sample set")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * (len(sorted_samples) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(sorted_samples) - 1)
        fraction = rank - lower
        return sorted_samples[lower] * (1.0 - fraction) + sorted_samples[upper] * fraction

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        """Summarise one latency sample set."""
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            mean_seconds=sum(ordered) / len(ordered),
            p50_seconds=cls.quantile(ordered, 0.50),
            p95_seconds=cls.quantile(ordered, 0.95),
            p99_seconds=cls.quantile(ordered, 0.99),
            max_seconds=ordered[-1],
        )


@dataclass
class LoadtestReport:
    """What one loadtest run measured against the server."""

    config: WorkloadConfig
    latency: LatencySummary
    wall_seconds: float
    errors: int
    statuses: Dict[int, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.latency.count / self.wall_seconds

    @property
    def error_rate(self) -> float:
        """Fraction of requests that did not come back ``200``."""
        return self.errors / self.latency.count if self.latency.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """The server's row of the bench-schema payload."""
        return {
            "backend": SERVER_ROW,
            "p50_seconds": round(self.latency.p50_seconds, 6),
            "p95_seconds": round(self.latency.p95_seconds, 6),
            "p99_seconds": round(self.latency.p99_seconds, 6),
            "mean_seconds": round(self.latency.mean_seconds, 6),
            "max_seconds": round(self.latency.max_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 2),
            "error_rate": round(self.error_rate, 6),
            "requests": self.latency.count,
            "clients": self.config.clients,
            "errors": self.errors,
            "statuses": {str(status): count for status, count in sorted(self.statuses.items())},
        }


def _client_worker(
    host: str,
    port: int,
    targets: Sequence[str],
    samples: List[float],
    statuses: List[int],
) -> None:
    """One concurrent client: replay its request slice on a keep-alive conn."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for target in targets:
            started = time.perf_counter()
            try:
                connection.request("GET", target)
                response = connection.getresponse()
                response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                # Transport failure counts as an error; reconnect and go on.
                status = 0
                connection.close()
                connection = http.client.HTTPConnection(host, port, timeout=30)
            samples.append(time.perf_counter() - started)
            statuses.append(status)
    finally:
        connection.close()


def _replay(host: str, port: int, config: WorkloadConfig, targets: Sequence[str]):
    """Fire the workload at a live server with ``config.clients`` threads."""
    slices = [list(targets[index :: config.clients]) for index in range(config.clients)]
    samples: List[List[float]] = [[] for _ in slices]
    statuses: List[List[int]] = [[] for _ in slices]
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(host, port, chunk, samples[index], statuses[index]),
            name=f"loadtest-client-{index}",
        )
        for index, chunk in enumerate(slices)
        if chunk
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    flat_samples = [value for chunk in samples for value in chunk]
    flat_statuses = [value for chunk in statuses for value in chunk]
    return flat_samples, flat_statuses, wall


def run_loadtest(
    store_path: str,
    config: WorkloadConfig,
    pool_size: int = 4,
    cache_size: int = 256,
    store: Optional[PatternStore] = None,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    max_in_flight: Optional[int] = None,
) -> LoadtestReport:
    """Stand up the async server around a store and measure it.

    ``store_path`` names a file-backed store (served through a
    :class:`~repro.serve.pool.ReadConnectionPool`); passing an open
    ``store`` handle instead serves it through a single-connection pool
    (in-memory stores in tests).

    ``request_timeout`` (``None`` disables it) and ``max_in_flight``
    configure the server's per-request bound and load-shedding cap (see
    :class:`~repro.serve.async_http.AsyncPatternServer`).  Shed and
    timed-out requests come back ``503`` and land in the report's status
    histogram.
    """
    if store is not None:
        pool = SingleStorePool(store)
    else:
        pool = ReadConnectionPool(store_path, size=pool_size)
    try:
        with pool.acquire() as handle:
            profile = StoreProfile.from_store(handle)
        targets = generate_requests(config, profile)
        app = PatternApp(pool, cache_size=cache_size)
        with running_server(
            app, request_timeout=request_timeout, max_in_flight=max_in_flight
        ) as (host, port):
            samples, statuses, wall = _replay(host, port, config, targets)
    finally:
        pool.close()
    counts: Dict[int, int] = {}
    for status in statuses:
        counts[status] = counts.get(status, 0) + 1
    errors = sum(1 for status in statuses if status != 200)
    return LoadtestReport(
        config=config,
        latency=LatencySummary.from_samples(samples),
        wall_seconds=wall,
        errors=errors,
        statuses=counts,
    )


# -- bench-schema integration ----------------------------------------------------

#: Name of the serving scenario in the BENCH_<n>.json trajectory.
SERVING_SCENARIO = "serving"


def loadtest_payload(
    report: LoadtestReport,
    quick: bool,
    store_summary: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a loadtest report as a bench-schema JSON payload.

    The document shape matches :func:`repro.bench.run_bench` — one
    ``serving`` scenario whose ``backends`` list holds the server's row —
    so ``diff_against_baseline`` gates serving latency and error rate
    exactly like mining phase timings.
    """
    from .bench import BENCH_SCHEMA_VERSION, environment_info

    store_summary = store_summary or {}
    scenario = {
        "name": SERVING_SCENARIO,
        "description": "mixed serving workload over the pattern store "
        "(bbox / time-range / object-id / paginated / introspection)",
        "quick": quick,
        "store_crowds": store_summary.get("crowds"),
        "store_gatherings": store_summary.get("gatherings"),
        "workload": report.config.as_dict(),
        "backends": [report.as_dict()],
    }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "rounds": 1,
        "environment": environment_info(),
        "scenarios": [scenario],
    }


def merge_payloads(base: Dict[str, Any], extra: Dict[str, Any]) -> Dict[str, Any]:
    """Fold ``extra``'s scenarios into ``base`` (same-name entries replaced).

    Used to land the serving scenario in the same ``BENCH_<n>.json`` as the
    mining phases: ``repro bench`` writes the file, ``repro loadtest
    --merge-into`` adds (or refreshes) the serving rows.
    """
    merged = dict(base)
    scenarios = [dict(scenario) for scenario in base.get("scenarios", [])]
    replacing = {scenario["name"] for scenario in extra.get("scenarios", [])}
    scenarios = [s for s in scenarios if s["name"] not in replacing]
    scenarios.extend(extra.get("scenarios", []))
    merged["scenarios"] = scenarios
    return merged
