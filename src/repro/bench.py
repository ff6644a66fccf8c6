"""Machine-readable performance benchmarks (``repro bench``).

Runs the three mining phases — snapshot clustering, crowd discovery,
gathering detection — on named benchmark scenarios with every requested
execution backend, and reports per-phase wall-clock timings plus scenario
sizes as one JSON document.  The CLI writes the document to ``BENCH_<n>.json``
at the repository root so the performance trajectory of the codebase is
tracked commit over commit; see ``docs/performance.md`` for how to read it.

Timings are best-of-``rounds`` (minimum over repetitions), the standard way
to suppress scheduler noise in micro-benchmarks.  Parity between backends is
asserted on every run: a benchmark that silently diverged would be measuring
two different answers.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .clustering.snapshot import ClusterDatabase
from .core.config import GatheringParameters
from .core.crowd_discovery import discover_closed_crowds
from .core.gathering import dedupe_gatherings, make_detector
from .core.pipeline import GatheringMiner
from .engine.registry import BACKENDS, ExecutionConfig

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PHASE_KEYS",
    "SERVING_KEYS",
    "SCENARIOS",
    "environment_info",
    "BenchScenario",
    "PhaseTimings",
    "ProfileCollector",
    "run_scenario",
    "run_bench",
    "write_bench_json",
    "load_bench_json",
    "diff_against_baseline",
    "regressions",
    "format_diff_rows",
]

#: Version of the emitted JSON layout (bump on breaking changes).
BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchScenario:
    """One named benchmark workload: a scenario builder plus its parameters."""

    name: str
    description: str
    params: GatheringParameters
    fleet_size: int
    duration: int
    #: Reduced sizes used by ``--quick`` (CI smoke runs).
    quick_fleet_size: int
    quick_duration: int
    #: Backends this scenario runs on (``None`` = every requested backend).
    #: The megacity workload restricts itself to ``("numpy",)``: the scalar
    #: per-snapshot loop would take hours at 100k objects and has no
    #: out-of-core story to measure.
    restrict_backends: Optional[Tuple[str, ...]] = None
    #: Run phase 1 through the spilled (memmap) arena — the out-of-core
    #: path this scenario exists to track; mined answers are unchanged
    #: (property-tested).
    outofcore: bool = False

    def build(self, quick: bool = False):
        """Materialise the trajectory database of this workload."""
        from .datagen.scenarios import (
            city_scenario,
            efficiency_scenario,
            megacity_scenario,
            metro_scenario,
        )

        fleet = self.quick_fleet_size if quick else self.fleet_size
        duration = self.quick_duration if quick else self.duration
        if self.name == "city":
            # Quick runs shrink the district count with the fleet so every
            # district can still host its event mix.
            return city_scenario(
                fleet_size=fleet, duration=duration, districts=4 if quick else 6, seed=97
            ).database
        if self.name == "metro":
            return metro_scenario(
                fleet_size=fleet, duration=duration, districts=5 if quick else 9, seed=101
            ).database
        if self.name == "megacity":
            return megacity_scenario(
                fleet_size=fleet, duration=duration, districts=6 if quick else 16, seed=211
            ).database
        return efficiency_scenario(
            fleet_size=fleet, duration=duration, gatherings=3, seed=43
        ).database


#: The tracked benchmark workloads.  ``city`` is the multi-district scenario
#: the phase-2/3 fast-path speedup is asserted on; ``efficiency`` mirrors the
#: paper's efficiency-study fleet from the PR-1 engine benchmark; ``metro``
#: is the 5k-object / 150-snapshot workload where phase 1 dominates (the
#: batched whole-database clustering target); ``megacity`` is the 100k-object
#: sparse-sample workload that runs phase 1 out-of-core (spilled memmap
#: arena) — the only configuration that holds it under the documented RSS
#: budget (see docs/performance.md).
SCENARIOS: Dict[str, BenchScenario] = {
    scenario.name: scenario
    for scenario in (
        BenchScenario(
            name="city",
            description="multi-district city workload (phase-2/3 fast-path target)",
            params=GatheringParameters(
                eps=220.0, min_points=4, mc=4, delta=500.0, kc=8, kp=6, mp=4
            ),
            fleet_size=1600,
            duration=90,
            quick_fleet_size=320,
            quick_duration=36,
        ),
        BenchScenario(
            name="efficiency",
            description="paper efficiency-study fleet (single dense region)",
            params=GatheringParameters(
                eps=200.0, min_points=4, mc=6, delta=300.0, kc=15, kp=10, mp=5
            ),
            fleet_size=600,
            duration=60,
            quick_fleet_size=200,
            quick_duration=24,
        ),
        BenchScenario(
            name="metro",
            description="metropolis fleet (phase-1 batched-clustering target)",
            params=GatheringParameters(
                eps=220.0, min_points=4, mc=4, delta=500.0, kc=8, kp=6, mp=4
            ),
            fleet_size=5000,
            duration=150,
            quick_fleet_size=700,
            quick_duration=40,
        ),
        BenchScenario(
            name="megacity",
            description="100k-object sparse-sample city (out-of-core phase-1 target)",
            params=GatheringParameters(
                eps=200.0, min_points=5, mc=10, delta=400.0, kc=8, kp=5, mp=10
            ),
            fleet_size=100_000,
            duration=60,
            quick_fleet_size=12_000,
            quick_duration=24,
            restrict_backends=("numpy",),
            outofcore=True,
        ),
    )
}


@dataclass
class PhaseTimings:
    """Best-of-rounds wall-clock seconds of one backend on one scenario."""

    backend: str
    cluster_seconds: float = 0.0
    crowd_seconds: float = 0.0
    detect_seconds: float = 0.0
    #: Sub-phase of ``crowd_seconds``: proximity-graph build time on the
    #: frontier fast path (0.0 for backends that do not build one).
    proximity_seconds: float = 0.0
    crowds: int = 0
    gatherings: int = 0

    @property
    def total_seconds(self) -> float:
        """Sum of the three phase timings."""
        return self.cluster_seconds + self.crowd_seconds + self.detect_seconds

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the JSON report."""
        return {
            "backend": self.backend,
            "cluster_seconds": round(self.cluster_seconds, 6),
            "crowd_seconds": round(self.crowd_seconds, 6),
            "proximity_seconds": round(self.proximity_seconds, 6),
            "detect_seconds": round(self.detect_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "crowds": self.crowds,
            "gatherings": self.gatherings,
        }


@dataclass
class ScenarioReport:
    """Everything measured for one scenario across the requested backends."""

    name: str
    description: str
    quick: bool
    objects: int = 0
    snapshots: int = 0
    clusters: int = 0
    backends: List[PhaseTimings] = field(default_factory=list)

    def speedup(self) -> Optional[float]:
        """python-vs-numpy total-time ratio, when both backends ran."""
        by_backend = {timings.backend: timings for timings in self.backends}
        if "python" not in by_backend or "numpy" not in by_backend:
            return None
        numpy_total = by_backend["numpy"].total_seconds
        if numpy_total <= 0:
            return None
        return by_backend["python"].total_seconds / numpy_total

    def phase23_speedup(self) -> Optional[float]:
        """python-vs-numpy ratio over phases 2 + 3 only (the fast path)."""
        by_backend = {timings.backend: timings for timings in self.backends}
        if "python" not in by_backend or "numpy" not in by_backend:
            return None
        numpy_part = (
            by_backend["numpy"].crowd_seconds + by_backend["numpy"].detect_seconds
        )
        if numpy_part <= 0:
            return None
        python_part = (
            by_backend["python"].crowd_seconds + by_backend["python"].detect_seconds
        )
        return python_part / numpy_part

    def as_dict(self) -> Dict:
        """Plain-dict view used by the JSON report."""
        speedup = self.speedup()
        phase23 = self.phase23_speedup()
        return {
            "name": self.name,
            "description": self.description,
            "quick": self.quick,
            "objects": self.objects,
            "snapshots": self.snapshots,
            "clusters": self.clusters,
            "backends": [timings.as_dict() for timings in self.backends],
            "speedup_total": round(speedup, 3) if speedup is not None else None,
            "speedup_phase23": round(phase23, 3) if phase23 is not None else None,
        }


def _time_phases(
    database,
    cluster_db: ClusterDatabase,
    params: GatheringParameters,
    backend: str,
    rounds: int,
    profiler=None,
    execution: Optional[ExecutionConfig] = None,
):
    """Best-of-``rounds`` timings of the three phases on one backend.

    Returns the timings together with the mined answer's identity (crowd
    key sequences and gathering keys + participator sets) so the caller can
    assert parity across backends without re-running any phase.  When a
    ``cProfile.Profile`` is supplied it is enabled around every round's
    phase work (``--profile``); profiled wall-clock numbers carry the
    instrumentation overhead and are not comparable to unprofiled runs.
    An ``execution`` config override (out-of-core scenarios) is honoured
    when its backend matches the timed one.
    """
    if execution is not None and execution.backend == backend:
        config = execution
    else:
        config = ExecutionConfig(backend=backend)
    miner = GatheringMiner(params, config=config)
    detector = make_detector("TAD*", backend)
    timings = PhaseTimings(backend=backend)
    best_cluster = best_crowd = best_detect = float("inf")
    best_proximity = 0.0
    crowd_result = gatherings = None
    own_cluster_db = None
    for _ in range(max(1, rounds)):
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        own_cluster_db = miner.cluster(database)
        best_cluster = min(best_cluster, time.perf_counter() - started)

        started = time.perf_counter()
        crowd_result = discover_closed_crowds(
            cluster_db, params, strategy="GRID", config=config
        )
        elapsed = time.perf_counter() - started
        if elapsed < best_crowd:
            # The proximity sub-phase is reported from the same round as the
            # best crowd timing so the two numbers are consistent.
            best_crowd = elapsed
            best_proximity = crowd_result.proximity_seconds

        started = time.perf_counter()
        # Dedupe inside the timed region, matching GatheringMiner.detect:
        # branching crowds re-derive shared gatherings, and the reported
        # counts must equal what `repro mine` reports.
        gatherings = dedupe_gatherings(
            [
                gathering
                for crowd in crowd_result.closed_crowds
                for gathering in detector(crowd, params)
            ]
        )
        best_detect = min(best_detect, time.perf_counter() - started)
        if profiler is not None:
            profiler.disable()

        timings.crowds = len(crowd_result.closed_crowds)
        timings.gatherings = len(gatherings)
    timings.cluster_seconds = best_cluster
    timings.crowd_seconds = best_crowd
    timings.proximity_seconds = best_proximity
    timings.detect_seconds = best_detect
    answer = (
        # Phase-1 identity: every backend must produce the same snapshot
        # cluster set — ids, timestamps AND memberships — from the same
        # database.  ((timestamp, cluster_id) is unique, so the sort never
        # compares the frozensets.)
        sorted(
            (cluster.timestamp, cluster.cluster_id, cluster.object_ids())
            for cluster in own_cluster_db
        ),
        [crowd.keys() for crowd in crowd_result.closed_crowds],
        [(g.keys(), tuple(sorted(g.participator_ids))) for g in gatherings],
    )
    return timings, answer


class ProfileCollector:
    """Per-(scenario, backend) cProfile aggregation for ``bench --profile``.

    One profiler instruments every timed round of one backend on one
    scenario; :meth:`print_top` writes the top cumulative entries per
    profile to a stream and :meth:`dump` merges everything into a single
    binary stats file for ``snakeviz``/``pstats`` post-processing.
    """

    def __init__(self) -> None:
        import cProfile

        self._profile_factory = cProfile.Profile
        self.profiles: Dict = {}

    def profiler_for(self, scenario: str, backend: str):
        """The (lazily created) profiler of one scenario/backend cell."""
        key = (scenario, backend)
        if key not in self.profiles:
            self.profiles[key] = self._profile_factory()
        return self.profiles[key]

    def print_top(self, top: int, stream) -> None:
        """Write each profile's top-``top`` cumulative entries to ``stream``."""
        import pstats

        for (scenario, backend), profiler in sorted(self.profiles.items()):
            print(f"\n-- profile: {scenario} / {backend} "
                  f"(top {top} by cumulative time) --", file=stream)
            stats = pstats.Stats(profiler, stream=stream)
            stats.strip_dirs().sort_stats("cumulative").print_stats(top)

    def dump(self, path) -> None:
        """Merge all profiles into one binary pstats file at ``path``."""
        import pstats

        profilers = list(self.profiles.values())
        if not profilers:
            return
        combined = pstats.Stats(profilers[0])
        for profiler in profilers[1:]:
            combined.add(profiler)
        combined.dump_stats(str(path))


def run_scenario(
    scenario: BenchScenario,
    backends: Sequence[str] = BACKENDS,
    quick: bool = False,
    rounds: int = 3,
    profile: Optional[ProfileCollector] = None,
) -> ScenarioReport:
    """Benchmark one scenario on the requested backends (with parity checks).

    A scenario may restrict the backend list (``restrict_backends``) and
    opt into the out-of-core phase-1 path (``outofcore``): its spilled
    arena lives in a temporary directory for the duration of the run and
    the timed cluster phase streams frames from it.
    """
    import tempfile

    database = scenario.build(quick=quick)
    params = scenario.params
    effective_backends = [
        backend
        for backend in backends
        if scenario.restrict_backends is None or backend in scenario.restrict_backends
    ]
    if not effective_backends:
        effective_backends = list(scenario.restrict_backends or backends)
    with tempfile.TemporaryDirectory(prefix=f"bench-{scenario.name}-") as spill_root:
        execution = None
        if scenario.outofcore:
            execution = ExecutionConfig(backend="numpy", spill_dir=spill_root)
        # Phases 2/3 are timed against one shared cluster database so both
        # backends answer the identical mining question.
        cluster_db = GatheringMiner(
            params, config=execution or ExecutionConfig(backend="numpy")
        ).cluster(database)
        if "python" in effective_backends:
            # The batched builder's clusters are lazy frame views;
            # materialise the member dicts up front so the scalar backend's
            # timed crowd phase (which reads them) measures algorithm work,
            # not one-time view expansion.
            for cluster in cluster_db:
                cluster.members
        report = ScenarioReport(
            name=scenario.name,
            description=scenario.description,
            quick=quick,
            objects=len(database),
            snapshots=cluster_db.snapshot_count(),
            clusters=len(cluster_db),
        )
        reference_answer = None
        for backend in effective_backends:
            profiler = (
                profile.profiler_for(scenario.name, backend)
                if profile is not None
                else None
            )
            timings, answer = _time_phases(
                database,
                cluster_db,
                params,
                backend,
                rounds=1 if quick else rounds,
                profiler=profiler,
                execution=execution,
            )
            if reference_answer is None:
                reference_answer = answer
            elif answer != reference_answer:
                # Crowds *and* gatherings (with participator sets) must match —
                # a timing of two different answers is not a benchmark.
                raise AssertionError(
                    f"backend {backend!r} diverged from {effective_backends[0]!r} on "
                    f"scenario {scenario.name!r}"
                )
            report.backends.append(timings)
    return report


def run_bench(
    scenario_names: Optional[Sequence[str]] = None,
    backends: Sequence[str] = BACKENDS,
    quick: bool = False,
    rounds: int = 3,
    profile: Optional[ProfileCollector] = None,
) -> Dict:
    """Run the requested benchmark scenarios and assemble the JSON payload."""
    names = list(scenario_names) if scenario_names else list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown bench scenario(s) {unknown}; choose from {sorted(SCENARIOS)}"
        )
    for backend in backends:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    reports = [
        run_scenario(
            SCENARIOS[name],
            backends=backends,
            quick=quick,
            rounds=rounds,
            profile=profile,
        )
        for name in names
    ]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "rounds": 1 if quick else rounds,
        "environment": environment_info(),
        "scenarios": [report.as_dict() for report in reports],
    }


def environment_info() -> Dict[str, str]:
    """The environment block stamped into every bench-schema payload."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def write_bench_json(payload: Dict, path) -> None:
    """Write one benchmark payload as pretty-printed JSON."""
    from pathlib import Path

    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# -- baseline diffing ------------------------------------------------------------

#: The per-backend timing keys compared by the baseline diff.
PHASE_KEYS = (
    "cluster_seconds",
    "crowd_seconds",
    "proximity_seconds",
    "detect_seconds",
    "total_seconds",
)

#: The serving-tier keys the diff additionally compares on ``serving``
#: scenario rows (written by ``repro loadtest``).  Latencies and error
#: rate share the lower-is-better regression semantics of the phase
#: timings; throughput is reported in the payload but not gated here
#: (higher is better, so the ratio test would read backwards).
SERVING_KEYS = (
    "p50_seconds",
    "p95_seconds",
    "p99_seconds",
    "error_rate",
)


def load_bench_json(path) -> Dict:
    """Load a previously written ``BENCH_<n>.json`` payload."""
    from pathlib import Path

    payload = json.loads(Path(path).read_text())
    if "scenarios" not in payload:
        raise ValueError(f"{path} is not a bench payload (no 'scenarios' key)")
    return payload


def _index_backends(payload: Dict) -> Dict:
    """``(scenario, backend) -> (timings dict, scenario dict)`` of a payload."""
    index = {}
    for scenario in payload.get("scenarios", []):
        for timings in scenario.get("backends", []):
            index[(scenario["name"], timings["backend"])] = (timings, scenario)
    return index


def diff_against_baseline(payload: Dict, baseline: Dict) -> List[Dict]:
    """Per-phase timing deltas of ``payload`` vs a prior bench payload.

    Every ``(scenario, backend, phase)`` present in *both* documents yields
    one row with the baseline and current seconds, the absolute delta and
    the current/baseline ratio; scenarios or backends only one side ran are
    skipped (they have nothing to regress against).  Rows where the two
    runs used different ``quick`` settings are marked ``comparable: False``
    — the workload sizes differ, so the ratio is not meaningful as a
    regression signal (a quick run is expected to be far *below* a full
    baseline; only a catastrophic slowdown would cross it).
    """
    current = _index_backends(payload)
    previous = _index_backends(baseline)
    rows: List[Dict] = []
    for key in sorted(current.keys() & previous.keys()):
        scenario_name, backend = key
        now, now_scenario = current[key]
        then, then_scenario = previous[key]
        comparable = bool(now_scenario.get("quick")) == bool(then_scenario.get("quick"))
        for phase in PHASE_KEYS + SERVING_KEYS:
            if phase not in then or phase not in now:
                # Older payloads predate some sub-phase keys (e.g. a baseline
                # written before proximity_seconds existed): nothing to diff.
                continue
            before = float(then[phase])
            after = float(now[phase])
            rows.append(
                {
                    "scenario": scenario_name,
                    "backend": backend,
                    "phase": phase,
                    "baseline_seconds": before,
                    "current_seconds": after,
                    "delta_seconds": after - before,
                    "ratio": (after / before) if before > 0 else None,
                    "comparable": comparable,
                }
            )
    return rows


def regressions(
    rows: List[Dict], tolerance: float, min_seconds: float = 0.01
) -> List[Dict]:
    """The diff rows slower than ``baseline * (1 + tolerance)``.

    ``tolerance`` is a fraction: ``0.25`` flags phases more than 25% slower
    than the baseline.  The baseline is floored at ``min_seconds`` before
    the comparison: sub-millisecond phases jitter by whole multiples on a
    shared machine (one scheduler stall is a 50x "ratio"), so a tiny — or
    zero — baseline only flags once the current timing crosses the
    *floored* threshold: scheduler noise passes, a genuine blow-up still
    fails.  Incomparable rows (quick-vs-full) still flag when they cross
    the threshold — crossing a full-size baseline from a quick run is
    exactly the catastrophic case the CI smoke check exists for.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    return [
        row
        for row in rows
        if row["current_seconds"]
        > max(row["baseline_seconds"], min_seconds) * (1.0 + tolerance)
    ]


def format_diff_rows(rows: List[Dict]) -> List[str]:
    """Human-readable table lines for a baseline diff."""
    lines = [
        f"{'scenario':<12} {'backend':<8} {'phase':<16} "
        f"{'baseline':>10} {'current':>10} {'delta':>10} {'ratio':>7}"
    ]
    for row in rows:
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "n/a"
        note = "" if row["comparable"] else "  (different sizes)"
        lines.append(
            f"{row['scenario']:<12} {row['backend']:<8} {row['phase']:<16} "
            f"{row['baseline_seconds']:>9.3f}s {row['current_seconds']:>9.3f}s "
            f"{row['delta_seconds']:>+9.3f}s {ratio:>7}{note}"
        )
    return lines
