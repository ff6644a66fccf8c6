"""Command-line interface.

Ten subcommands cover the everyday workflows of the library::

    python -m repro simulate --output fleet.csv --fleet 120 --duration 60
    python -m repro mine --input fleet.csv --mc 6 --delta 300 --kc 12 --kp 8 --mp 5
    python -m repro mine --input tdrive_dir --format tdrive --geo
    python -m repro ingest --input fleet.csv --quality strict
    python -m repro ingest --input dirty.csv --quality repair --max-speed 40 \
        --quarantine dead.jsonl --ingest-report report.json
    python -m repro mine --input fleet.csv --backend python --range-search SR
    python -m repro mine --input city.csv --workers 4 --store patterns.db
    python -m repro stream --input fleet.csv --window 10 --checkpoint-every 5 \
        --checkpoint state.json
    python -m repro stream --demo --jitter 1.5 --late-fraction 0.01 --slack 2
    python -m repro stream --restore state.json --input fleet.csv
    python -m repro stream --input fleet.csv --store patterns.db
    python -m repro query --store patterns.db --bbox 0,0,4000,4000 --from 10 --to 50
    python -m repro query --store patterns.db --serve --port 8080
    python -m repro effectiveness --regime time-of-day
    python -m repro compare --input fleet.csv
    python -m repro backends --kind range_search
    python -m repro bench --quick --output BENCH_smoke.json
    python -m repro bench --baseline BENCH_5.json --regress-tolerance 0.3
    python -m repro loadtest --store patterns.db --clients 32
    python -m repro loadtest --quick --baseline BENCH_7.json

``simulate`` writes a synthetic fleet (CSV, one ``object_id,t,x,y`` row per
fix), ``mine`` runs the full gathering-mining pipeline on a CSV / JSONL /
T-Drive / GeoLife input (optionally on a worker pool and persisted to a
pattern store), ``ingest`` runs an input through the
data-quality firewall *without* mining — validate, repair or quarantine a
file and emit the fully-accounted ingest report (with ``--replay`` it
re-validates a quarantine dead-letter file after hand fixes), ``stream``
replays a point feed through the incremental
streaming service (with windowing, eviction, checkpoint/restore and an
optional pattern-store sink), ``query`` answers region/time-window/object
queries against a pattern store (one-shot or as an HTTP endpoint),
``effectiveness`` reproduces the Figure 5 count tables, ``compare`` mines
all pattern families on the same input, and ``bench`` runs the tracked
benchmark scenarios on every execution backend and writes the per-phase
timings to a machine-readable ``BENCH_<n>.json`` (see docs/performance.md);
with ``--baseline`` it also diffs the run against a committed prior entry
and exits nonzero when a phase regressed past ``--regress-tolerance``;
``loadtest`` replays a seeded mixed query workload against a live pattern
server (async or threaded) with N concurrent clients and records
p50/p95/p99 latency, throughput and error rate in the same JSON schema
(mergeable into the BENCH trajectory, gateable with ``--baseline``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import urlencode

from .analysis.effectiveness import count_patterns_for_scenario
from .bench import SCENARIOS as BENCH_SCENARIOS
from .core.config import GatheringParameters
from .core.gathering import DETECTORS
from .core.pipeline import GatheringMiner
from .core.range_search import NUMPY_SCHEMES, RANGE_SEARCHES, runs_proximity_graph
from .engine.registry import BACKENDS, ExecutionConfig
from .datagen.events import GatheringEvent
from .datagen.scenarios import time_of_day_scenario, weather_scenario
from .datagen.simulator import SimulationConfig, TaxiFleetSimulator
from .geometry.point import Point
from .quality import POLICIES, IngestReport, QualityConfig
from .trajectory.formats import load_geolife_user_report, load_tdrive_directory_report
from .trajectory.geo import project_database
from .trajectory.io import (
    load_csv,
    load_csv_report,
    load_jsonl_report,
    save_csv,
)
from .trajectory.trajectory import TrajectoryDatabase

__all__ = ["build_parser", "main"]


def _add_parameter_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("mining parameters")
    group.add_argument("--eps", type=float, default=200.0, help="DBSCAN radius in metres")
    group.add_argument("--min-points", type=int, default=4, help="DBSCAN core threshold m")
    group.add_argument("--mc", type=int, default=6, help="crowd support threshold")
    group.add_argument("--delta", type=float, default=300.0, help="variation threshold (metres)")
    group.add_argument("--kc", type=int, default=12, help="crowd lifetime threshold")
    group.add_argument("--kp", type=int, default=8, help="participator lifetime threshold")
    group.add_argument("--mp", type=int, default=5, help="gathering support threshold")
    group.add_argument("--time-step", type=float, default=1.0, help="snapshot granularity")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--backend",
        choices=BACKENDS,
        default="numpy",
        help="kernel backend: vectorized columnar (numpy) or scalar reference (python)",
    )
    group.add_argument(
        "--chunk-size",
        type=int,
        default=2048,
        help="rows per distance-matrix block in the vectorized kernels",
    )
    group.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for phase-1 snapshot clustering (1 = in-process)",
    )
    group.add_argument(
        "--object-shards",
        type=int,
        default=1,
        help=(
            "object-axis groups per phase-1 interpolation block (numpy backend); "
            "bounds extraction memory, answers unchanged"
        ),
    )
    group.add_argument(
        "--spill-dir",
        default=None,
        help=(
            "run phase 1 out-of-core: spool the clustered rows under this "
            "directory and memory-map the frames (numpy backend only)"
        ),
    )
    _add_fault_plan_argument(parser)


def _add_fault_plan_argument(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--fault-plan",
        default=None,
        help=(
            "arm a deterministic fault-injection plan for chaos testing: "
            "compact 'site:times[:param],...,seed:N' or a JSON document "
            "(equivalent to setting REPRO_FAULT_PLAN)"
        ),
    )
    group.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help=(
            "per-job wall-clock limit (seconds) for supervised worker-pool "
            "jobs; a timed-out job is retried on a fresh pool "
            "(equivalent to setting REPRO_JOB_TIMEOUT_SECONDS)"
        ),
    )


#: Trajectory input formats the loading commands understand.
_INPUT_FORMATS = ("csv", "jsonl", "tdrive", "geolife")

_RANGE_SEARCH_HELP = (
    "range-search scheme of the scalar reference (--backend python); the "
    "numpy backend always runs the proximity-graph sweep and accepts only GRID"
)


def _add_quality_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("data quality")
    group.add_argument(
        "--quality",
        choices=POLICIES,
        default="lenient",
        help="firewall policy: strict = abort on the first bad record, "
        "lenient = drop and account, repair = deterministic fixes "
        "(dedupe/sort/clamp/split) where possible",
    )
    group.add_argument(
        "--max-speed",
        type=float,
        default=None,
        help="teleport gate: reject fixes implying a speed above this "
        "(m/s for the geographic formats, input units/time for csv/jsonl)",
    )
    group.add_argument(
        "--min-samples",
        type=int,
        default=1,
        help="drop objects that end the load with fewer accepted samples",
    )
    group.add_argument(
        "--quarantine",
        help="dead-letter JSONL file: every rejected raw record lands here "
        "with its reason code (replayable via 'repro ingest --replay')",
    )
    group.add_argument(
        "--ingest-report",
        help="write the fully-accounted ingest report to this JSON file",
    )


def _quality_config_from_args(args: argparse.Namespace) -> QualityConfig:
    return QualityConfig(
        policy=args.quality,
        max_speed=args.max_speed,
        min_samples=args.min_samples,
        quarantine_path=args.quarantine,
    )


def _execution_config_from_args(args: argparse.Namespace) -> ExecutionConfig:
    return ExecutionConfig(
        backend=args.backend,
        chunk_size=args.chunk_size,
        workers=args.workers,
        object_shards=getattr(args, "object_shards", 1),
        spill_dir=getattr(args, "spill_dir", None),
    )


def _parameters_from_args(args: argparse.Namespace) -> GatheringParameters:
    return GatheringParameters(
        eps=args.eps,
        min_points=args.min_points,
        mc=args.mc,
        delta=args.delta,
        kc=args.kc,
        kp=args.kp,
        mp=args.mp,
        time_step=args.time_step,
    )


def _geolife_object_id(path: Path) -> int:
    """GeoLife user directories are numeric (``Data/000``); fall back to 0."""
    try:
        return int(path.name)
    except ValueError:
        return 0


def _load_report(
    path: Path, fmt: str, quality: QualityConfig
) -> "tuple[TrajectoryDatabase, IngestReport]":
    """Load ``path`` in format ``fmt`` through the firewall."""
    if fmt == "csv":
        return load_csv_report(path, quality)
    if fmt == "jsonl":
        return load_jsonl_report(path, quality)
    if fmt == "tdrive":
        return load_tdrive_directory_report(path, quality=quality)
    if fmt == "geolife":
        return load_geolife_user_report(
            path, object_id=_geolife_object_id(path), quality=quality
        )
    raise ValueError(f"unsupported input format {fmt!r}")


def _emit_ingest_report(report: IngestReport, args: argparse.Namespace) -> None:
    """Print the accounting summary and land the optional report artifact."""
    for line in report.summary_lines():
        print(line)
    if args.ingest_report:
        report.to_json(args.ingest_report)
        print(f"wrote {args.ingest_report}")


def _load_database(args: argparse.Namespace) -> TrajectoryDatabase:
    path = Path(args.input)
    database, report = _load_report(path, args.format, _quality_config_from_args(args))
    _emit_ingest_report(report, args)
    if args.geo:
        database, _projection = project_database(database)
    return database


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gathering-pattern mining (reproduction of Zheng et al., ICDE 2013)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="generate a synthetic taxi fleet")
    simulate.add_argument("--output", required=True, help="CSV file to write")
    simulate.add_argument("--fleet", type=int, default=120, help="number of taxis")
    simulate.add_argument("--duration", type=int, default=60, help="number of timestamps")
    simulate.add_argument("--gatherings", type=int, default=1, help="injected gathering events")
    simulate.add_argument("--participants", type=int, default=20, help="participants per event")
    simulate.add_argument("--seed", type=int, default=7)

    mine = subparsers.add_parser("mine", help="mine closed gatherings from trajectories")
    mine.add_argument(
        "--input", required=True, help="CSV/JSONL file, T-Drive or GeoLife directory"
    )
    mine.add_argument("--format", choices=_INPUT_FORMATS, default="csv")
    mine.add_argument(
        "--geo",
        action="store_true",
        help="treat coordinates as longitude/latitude and project to metres",
    )
    mine.add_argument("--json", dest="json_output", help="write the mined patterns to a JSON file")
    mine.add_argument(
        "--range-search",
        choices=tuple(RANGE_SEARCHES),
        default="GRID",
        help=_RANGE_SEARCH_HELP,
    )
    mine.add_argument(
        "--detection",
        choices=tuple(sorted({name for name, _ in DETECTORS})),
        default="TAD*",
        help="gathering-detection strategy",
    )
    mine.add_argument(
        "--store",
        help="persist mined crowds/gatherings into this pattern-store database",
    )
    _add_parameter_arguments(mine)
    _add_execution_arguments(mine)
    _add_quality_arguments(mine)

    ingest = subparsers.add_parser(
        "ingest",
        help="validate/repair a trajectory input through the data-quality "
        "firewall without mining (emits the fully-accounted ingest report)",
    )
    ingest.add_argument(
        "--input", required=True, help="CSV/JSONL file, T-Drive or GeoLife directory"
    )
    ingest.add_argument("--format", choices=_INPUT_FORMATS, default="csv")
    ingest.add_argument(
        "--replay",
        action="store_true",
        help="treat --input as a quarantine dead-letter JSONL and re-validate "
        "its records (the hand-fix-then-replay workflow)",
    )
    ingest.add_argument(
        "--geo",
        action="store_true",
        help="with --replay: validate under the geographic defaults "
        "(haversine speed gate, WGS-84 bounds) the tdrive/geolife loaders use",
    )
    _add_quality_arguments(ingest)

    stream = subparsers.add_parser(
        "stream", help="replay a point feed through the streaming gathering service"
    )
    stream.add_argument("--input", help="CSV feed (object_id,t,x,y), replayed in time order")
    stream.add_argument(
        "--demo",
        action="store_true",
        help="replay a simulated streaming scenario instead of a CSV feed",
    )
    stream.add_argument("--fleet", type=int, default=200, help="demo fleet size")
    stream.add_argument("--duration", type=int, default=80, help="demo duration (snapshots)")
    stream.add_argument("--seed", type=int, default=51, help="demo scenario seed")
    stream.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="demo feed: arrival reorder jitter in time units",
    )
    stream.add_argument(
        "--late-fraction",
        type=float,
        default=0.0,
        help="demo feed: fraction of fixes arriving far behind the frontier",
    )
    group = stream.add_argument_group("streaming service")
    group.add_argument("--window", type=int, default=10, help="snapshots per window")
    group.add_argument(
        "--slack", type=int, default=0, help="reorder tolerance before a window closes"
    )
    group.add_argument(
        "--late-policy",
        choices=("drop", "hold", "error"),
        default="drop",
        help="disposition of points behind the mined frontier",
    )
    group.add_argument(
        "--eviction",
        choices=("frozen", "none"),
        default="frozen",
        help="frozen = flush non-extendable state each window (bounded memory)",
    )
    group.add_argument(
        "--batch-size", type=int, default=2048, help="fixes ingested per driver batch"
    )
    group.add_argument("--checkpoint", help="checkpoint file to write")
    group.add_argument(
        "--checkpoint-keep",
        type=int,
        default=1,
        help="rotated checkpoint generations to keep beside the primary "
        "(restore falls back to them when the primary is corrupt; 0 disables)",
    )
    group.add_argument(
        "--checkpoint-every",
        type=int,
        help="write the checkpoint after every N closed windows",
    )
    group.add_argument("--restore", help="resume from a checkpoint file")
    group.add_argument(
        "--store",
        help="sink evicted and final crowds/gatherings into this pattern-store database",
    )
    stream.add_argument(
        "--range-search",
        choices=tuple(RANGE_SEARCHES),
        default="GRID",
        help=_RANGE_SEARCH_HELP,
    )
    stream.add_argument("--json", dest="json_output", help="write the mined patterns to JSON")
    _add_parameter_arguments(stream)
    _add_execution_arguments(stream)
    _add_quality_arguments(stream)

    effectiveness = subparsers.add_parser(
        "effectiveness", help="reproduce the Figure 5 effectiveness tables"
    )
    effectiveness.add_argument(
        "--regime", choices=("time-of-day", "weather"), default="time-of-day"
    )
    effectiveness.add_argument("--seed", type=int, default=17)
    _add_parameter_arguments(effectiveness)

    compare = subparsers.add_parser(
        "compare", help="mine gatherings and baseline patterns on the same input"
    )
    compare.add_argument(
        "--input", required=True, help="CSV/JSONL file, T-Drive or GeoLife directory"
    )
    compare.add_argument("--format", choices=_INPUT_FORMATS, default="csv")
    compare.add_argument("--geo", action="store_true")
    compare.add_argument("--baseline-min-objects", type=int, default=10)
    compare.add_argument("--baseline-min-duration", type=int, default=8)
    _add_parameter_arguments(compare)
    _add_execution_arguments(compare)
    _add_quality_arguments(compare)

    query = subparsers.add_parser(
        "query", help="query a pattern-store database (one-shot or HTTP serving)"
    )
    query.add_argument("--store", required=True, help="pattern-store database file")
    query.add_argument(
        "--kind",
        choices=("gatherings", "crowds"),
        default="gatherings",
        help="pattern table to query",
    )
    filters = query.add_argument_group("filters (conjunctive, all optional)")
    filters.add_argument(
        "--bbox",
        help="spatial filter 'min_x,min_y,max_x,max_y' (patterns whose box intersects)",
    )
    filters.add_argument(
        "--from",
        dest="time_from",
        type=float,
        help="temporal filter: patterns ending at or after this time",
    )
    filters.add_argument(
        "--to",
        dest="time_to",
        type=float,
        help="temporal filter: patterns starting at or before this time",
    )
    filters.add_argument(
        "--object-id", type=int, help="patterns this object is a member/participator of"
    )
    filters.add_argument(
        "--min-lifetime", type=int, help="durability filter: minimum snapshot span"
    )
    filters.add_argument("--limit", type=int, help="return at most this many patterns")
    query.add_argument(
        "--clusters",
        action="store_true",
        help="include each pattern's full cluster sequence in the output",
    )
    query.add_argument(
        "--json",
        dest="json_output",
        help="write the answer to a JSON file: the same document GET /gatherings "
        "or /crowds returns (filters incl. cursor, count, results, next_cursor)",
    )
    serving = query.add_argument_group("HTTP serving")
    serving.add_argument(
        "--serve",
        action="store_true",
        help="serve the store over HTTP instead of answering one query",
    )
    serving.add_argument("--host", default="127.0.0.1", help="bind address for --serve")
    serving.add_argument("--port", type=int, default=8080, help="bind port for --serve")
    serving.add_argument(
        "--server-impl",
        choices=("async", "threaded"),
        default="async",
        help="HTTP front end: asyncio + read-connection pool (async) or the "
        "threaded stdlib parity oracle (threaded)",
    )
    serving.add_argument(
        "--pool-size",
        type=int,
        default=4,
        help="read connections in the async server's pool",
    )
    serving.add_argument(
        "--cache-size", type=int, default=256, help="LRU query-result cache capacity"
    )
    serving.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request wall-clock bound (seconds) on the async server; "
        "a request past it answers 503 (0 disables)",
    )
    serving.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="load-shedding cap on concurrently executing requests on the "
        "async server; beyond it requests answer 503 with Retry-After",
    )
    _add_fault_plan_argument(query)

    loadtest = subparsers.add_parser(
        "loadtest",
        help="replay a mixed query workload against a live pattern server "
        "and record p50/p95/p99 latency, throughput and error rate",
    )
    loadtest.add_argument(
        "--store",
        help="pattern-store database to serve; omitted = mine a seeded "
        "store from the quick city bench scenario into a temp directory",
    )
    workload = loadtest.add_argument_group("workload")
    workload.add_argument(
        "--requests", type=int, help="total requests to replay (default 2000; 240 with --quick)"
    )
    workload.add_argument(
        "--clients", type=int, help="concurrent client connections (default 16; 8 with --quick)"
    )
    workload.add_argument("--seed", type=int, default=11, help="workload RNG seed")
    workload.add_argument(
        "--quick",
        action="store_true",
        help="reduced request count and concurrency (CI smoke runs)",
    )
    server = loadtest.add_argument_group("server under test")
    server.add_argument(
        "--impl",
        action="append",
        dest="impls",
        choices=("async", "threaded"),
        help="server implementation to measure (repeatable; default: both)",
    )
    server.add_argument(
        "--pool-size", type=int, default=4, help="read connections in the async pool"
    )
    server.add_argument(
        "--cache-size", type=int, default=256, help="LRU query-result cache capacity"
    )
    server.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request wall-clock bound (seconds) on the async server "
        "under test (timed-out requests answer 503)",
    )
    server.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="load-shedding cap on the async server under test "
        "(shed requests answer 503 with Retry-After)",
    )
    _add_fault_plan_argument(loadtest)
    output = loadtest.add_argument_group("reporting")
    output.add_argument(
        "--output", help="write the bench-schema JSON report to this file"
    )
    output.add_argument(
        "--merge-into",
        metavar="BENCH_JSON",
        help="fold the serving scenario into an existing bench JSON "
        "(replacing a prior serving entry) — how serving lands in the "
        "committed BENCH_<n>.json trajectory",
    )
    regression = loadtest.add_argument_group("regression checking")
    regression.add_argument(
        "--baseline",
        help="prior BENCH_<n>.json to diff the serving rows against: exits "
        "nonzero on a latency/error-rate regression past the tolerance",
    )
    regression.add_argument(
        "--regress-tolerance",
        type=float,
        default=0.25,
        help="allowed slowdown fraction vs the baseline before the diff fails",
    )
    regression.add_argument(
        "--regress-min-seconds",
        type=float,
        default=0.01,
        help="floor applied to baseline values before the tolerance check "
        "(latency jitter on shared machines is absolute, not relative)",
    )

    backends = subparsers.add_parser(
        "backends", help="list the range-search and detection backends"
    )
    backends.add_argument(
        "--kind",
        choices=("range_search", "detection"),
        help="restrict the listing to one strategy kind",
    )

    bench = subparsers.add_parser(
        "bench", help="run the tracked benchmark scenarios and write BENCH_<n>.json"
    )
    bench.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        choices=tuple(BENCH_SCENARIOS),
        help="benchmark scenario to run (repeatable; default: all)",
    )
    bench.add_argument(
        "--backend",
        action="append",
        dest="bench_backends",
        choices=BACKENDS,
        help="execution backend to measure (repeatable; default: all)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small scenario sizes and one round (CI smoke: checks for crashes, not timings)",
    )
    bench.add_argument(
        "--rounds", type=int, default=3, help="repetitions per timing (best-of is kept)"
    )
    bench.add_argument(
        "--output",
        help="JSON report path; default: the next free BENCH_<n>.json in the "
        "current directory, so committed trajectory entries are never overwritten",
    )
    profiling = bench.add_argument_group("profiling")
    profiling.add_argument(
        "--profile",
        action="store_true",
        help="run every timed round under cProfile and print the hottest "
        "functions per scenario/backend to stderr (profiled timings carry "
        "instrumentation overhead and are not comparable to normal runs)",
    )
    profiling.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="how many functions (by cumulative time) to print per profile",
    )
    profiling.add_argument(
        "--profile-out",
        metavar="FILE",
        help="also dump the merged profile as a binary pstats file "
        "(inspect with python -m pstats or snakeviz)",
    )
    regression = bench.add_argument_group("regression checking")
    regression.add_argument(
        "--baseline",
        help="prior BENCH_<n>.json to diff against: prints per-phase deltas "
        "and exits nonzero on a regression past the tolerance",
    )
    regression.add_argument(
        "--regress-tolerance",
        type=float,
        default=0.25,
        help="allowed slowdown fraction vs the baseline before the diff "
        "fails (0.25 = fail when a phase is >25%% slower)",
    )
    regression.add_argument(
        "--regress-min-seconds",
        type=float,
        default=0.01,
        help="floor applied to baseline phase timings before the tolerance "
        "check (sub-millisecond timings jitter by whole multiples)",
    )

    return parser


def _command_simulate(args: argparse.Namespace) -> int:
    simulator = TaxiFleetSimulator(seed=args.seed)
    config = SimulationConfig(fleet_size=args.fleet, duration=args.duration)
    events = []
    span = max(args.duration - 10, 2)
    for index in range(args.gatherings):
        center = Point(1500.0 + 2000.0 * index, 2000.0 + 1500.0 * (index % 3))
        events.append(
            GatheringEvent(
                center=center,
                start=5,
                end=5 + int(span * 0.8),
                participants=args.participants,
            )
        )
    scenario = simulator.simulate(config, gathering_events=events)
    save_csv(scenario.database, args.output)
    print(
        f"wrote {scenario.database.total_samples()} samples for "
        f"{len(scenario.database)} taxis to {args.output}"
    )
    return 0


def _open_store(path: str):
    """Open (or create) a pattern store for a CLI sink/query."""
    from .store import PatternStore

    return PatternStore(path)


def _command_mine(args: argparse.Namespace) -> int:
    runs_proximity_graph(args.range_search, args.backend)  # reject before phase 1
    database = _load_database(args)
    params = _parameters_from_args(args)
    if args.spill_dir:
        from .engine.arena import reap_orphaned_spills

        reaped = reap_orphaned_spills(args.spill_dir)
        if reaped:
            print(f"reaped {len(reaped)} orphaned spill dir(s) under {args.spill_dir}")
    store = _open_store(args.store) if args.store else None
    miner = GatheringMiner(
        params,
        range_search=args.range_search,
        detection_method=args.detection,
        config=_execution_config_from_args(args),
    )
    result = miner.mine(database)
    if store is not None:
        result.write_to(store)

    print(f"objects           : {len(database)}")
    print(f"snapshot clusters : {len(result.cluster_db)}")
    print(f"closed crowds     : {result.crowd_count()}")
    print(f"closed gatherings : {result.gathering_count()}")
    for index, gathering in enumerate(result.gatherings):
        print(
            f"  #{index}: t=[{gathering.start_time:g}, {gathering.end_time:g}] "
            f"lifetime={gathering.lifetime} participators={len(gathering.participator_ids)}"
        )

    if args.json_output:
        payload = {
            "parameters": params.as_dict(),
            "closed_crowds": result.crowd_count(),
            "gatherings": [
                {
                    "start_time": g.start_time,
                    "end_time": g.end_time,
                    "lifetime": g.lifetime,
                    "participators": sorted(g.participator_ids),
                }
                for g in result.gatherings
            ],
        }
        Path(args.json_output).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json_output}")
    if store is not None:
        print(
            f"store             : {args.store} "
            f"({store.crowd_count()} crowds, {store.gathering_count()} gatherings)"
        )
        store.close()
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    quality = _quality_config_from_args(args)
    path = Path(args.input)
    if args.replay:
        from .quality import replay_records, run_pipeline

        if args.geo:
            quality = quality.with_geo_defaults()
        result = run_pipeline(replay_records(path), quality, source=f"{path} (replay)")
        report = result.report
        database = TrajectoryDatabase.from_columns(
            result.object_id, result.t, result.x, result.y
        )
    else:
        database, report = _load_report(path, args.format, quality)
    print(f"source            : {report.source} (policy={report.policy})")
    _emit_ingest_report(report, args)
    print(
        f"objects surviving : {len(database)} ({database.total_samples()} samples)"
    )
    if args.quarantine and report.quarantined:
        print(f"quarantine file   : {args.quarantine}")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    from .datagen.scenarios import arrival_stream, streaming_scenario
    from .stream import ReplayDriver, StreamingGatheringService

    if args.input is None and not args.demo:
        raise ValueError("stream needs --input or --demo")
    if not args.restore:
        runs_proximity_graph(args.range_search, args.backend)  # reject before replay

    if args.demo:
        scenario = streaming_scenario(
            fleet_size=args.fleet, duration=args.duration, seed=args.seed
        )
        feed = arrival_stream(
            scenario.database,
            jitter=args.jitter,
            late_fraction=args.late_fraction,
            seed=args.seed,
        )
    else:
        feed = arrival_stream(load_csv(Path(args.input)))

    if args.restore:
        service = StreamingGatheringService.restore(args.restore)
        if service._finished:
            raise ValueError(
                f"checkpoint {args.restore} is of a finished stream; nothing to resume"
            )
        print(
            f"restored from {args.restore}: frontier t="
            f"{service.frontier if service.frontier is not None else 'none'}, "
            f"{service.stats.windows_closed} windows folded"
        )
        print(
            "note: mining parameters and service knobs come from the checkpoint; "
            "any --mc/--window/--backend/... flags on this invocation are ignored"
        )
    else:
        service = StreamingGatheringService(
            _parameters_from_args(args),
            window=args.window,
            range_search=args.range_search,
            config=_execution_config_from_args(args),
            slack=args.slack,
            late_policy=args.late_policy,
            eviction=args.eviction,
            quality=_quality_config_from_args(args),
        )

    store = _open_store(args.store) if args.store else None
    if store is not None:
        # Checkpoints never serialise the store attachment, so this also
        # covers the --restore path; re-flushed patterns dedupe by
        # fingerprint.
        service.attach_store(store)

    driver = ReplayDriver(
        service,
        batch_size=args.batch_size,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        checkpoint_keep=args.checkpoint_keep,
    )
    report = driver.replay(feed)
    result = report.result
    stats = result.stats

    print(f"points ingested   : {stats.points_ingested} ({stats.points_late} late)")
    if stats.points_rejected or stats.points_repaired:
        by_rule = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(stats.rejected_by_rule.items())
        )
        print(
            f"quality           : {stats.points_rejected} rejected"
            + (f" ({by_rule})" if by_rule else "")
            + f", {stats.points_repaired} repaired"
        )
    print(f"windows closed    : {stats.windows_closed} (window={service.window} snapshots)")
    print(f"throughput        : {report.points_per_second:,.0f} points/s")
    print(f"peak retained     : {stats.peak_retained_clusters} clusters "
          f"(eviction={service.eviction})")
    if report.checkpoints_written:
        print(f"checkpoints       : {report.checkpoints_written} -> {args.checkpoint}")
    print(f"closed crowds     : {len(result.closed_crowds)}")
    print(f"closed gatherings : {len(result.gatherings)}")
    for index, gathering in enumerate(result.gatherings):
        print(
            f"  #{index}: t=[{gathering.start_time:g}, {gathering.end_time:g}] "
            f"lifetime={gathering.lifetime} participators={len(gathering.participator_ids)}"
        )

    if args.json_output:
        payload = {
            "parameters": service.params.as_dict(),
            "closed_crowds": len(result.closed_crowds),
            "gatherings": [
                {
                    "start_time": g.start_time,
                    "end_time": g.end_time,
                    "lifetime": g.lifetime,
                    "participators": sorted(g.participator_ids),
                }
                for g in result.gatherings
            ],
            "stream": stats.as_dict(),
        }
        Path(args.json_output).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json_output}")
    if store is not None:
        print(
            f"store             : {args.store} "
            f"({store.crowd_count()} crowds, {store.gathering_count()} gatherings)"
        )
        store.close()
    return 0


def _command_query(args: argparse.Namespace) -> int:
    from .serve import (
        PatternApp,
        ReadConnectionPool,
        SingleStorePool,
        run_async_server,
        serve_forever,
    )
    from .store import PatternStore

    if args.serve:
        ignored = {
            "--bbox": args.bbox,
            "--from": args.time_from,
            "--to": args.time_to,
            "--object-id": args.object_id,
            "--min-lifetime": args.min_lifetime,
            "--limit": args.limit,
            "--clusters": args.clusters or None,
            "--json": args.json_output,
        }
        conflicting = [flag for flag, value in ignored.items() if value is not None]
        if conflicting:
            raise ValueError(
                f"--serve answers every query over HTTP; one-shot flags "
                f"{', '.join(conflicting)} would be silently ignored — drop them "
                "(filters go in the request URL, e.g. /gatherings?min_lifetime=10)"
            )
        pool = ReadConnectionPool(args.store, size=args.pool_size)
        app = PatternApp(pool, cache_size=args.cache_size)
        print(
            f"serving {args.store} on http://{args.host}:{args.port} "
            f"({args.server_impl}, pool={pool.size})"
        )
        print("routes: /gatherings /crowds /stats /healthz  (Ctrl-C to stop)")
        try:
            if args.server_impl == "async":
                run_async_server(
                    app,
                    host=args.host,
                    port=args.port,
                    request_timeout=args.request_timeout or None,
                    max_in_flight=args.max_in_flight,
                )
            else:
                serve_forever(app, host=args.host, port=args.port)
        finally:
            pool.close()
        return 0

    params = {
        "bbox": args.bbox,
        "from": args.time_from,
        "to": args.time_to,
        "object_id": args.object_id,
        "min_lifetime": args.min_lifetime,
        "limit": args.limit,
        "clusters": "1" if args.clusters else None,
    }
    target = f"/{args.kind}?" + urlencode(
        {name: value for name, value in params.items() if value is not None}
    )
    store = PatternStore(args.store, readonly=True)
    try:
        app = PatternApp(SingleStorePool(store), cache_size=args.cache_size)
        response = app.handle_request("GET", target)
    finally:
        store.close()
    answer = json.loads(response.body)
    if response.status != 200:
        raise ValueError(answer["error"])
    print(f"store             : {args.store}")
    print(f"{args.kind:<18}: {answer['count']} matching")
    for index, row in enumerate(answer["results"]):
        print(
            f"  #{index}: t=[{row['start_time']:g}, {row['end_time']:g}] "
            f"lifetime={row['lifetime']} objects={len(row['object_ids'])} "
            f"bbox=[{row['bbox'][0]:.0f}, {row['bbox'][1]:.0f}, "
            f"{row['bbox'][2]:.0f}, {row['bbox'][3]:.0f}]"
        )
    if args.json_output:
        Path(args.json_output).write_text(json.dumps(answer, indent=2))
        print(f"wrote {args.json_output}")
    return 0


def _command_effectiveness(args: argparse.Namespace) -> int:
    params = _parameters_from_args(args)
    if args.regime == "time-of-day":
        regimes = ("peak", "work", "casual")
        builder = time_of_day_scenario
    else:
        regimes = ("clear", "rainy", "snowy")
        builder = weather_scenario
    print(f"{'regime':<10} {'crowds':>7} {'gatherings':>11} {'swarms':>7} {'convoys':>8}")
    for regime in regimes:
        scenario = builder(regime, seed=args.seed)
        counts = count_patterns_for_scenario(scenario, params)
        print(
            f"{regime:<10} {counts.closed_crowds:>7} {counts.closed_gatherings:>11} "
            f"{counts.closed_swarms:>7} {counts.convoys:>8}"
        )
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from .baselines import groups_from_clusters, mine_convoys, mine_swarms

    database = _load_database(args)
    params = _parameters_from_args(args)
    miner = GatheringMiner(params, config=_execution_config_from_args(args))
    cluster_db = miner.cluster(database)
    result = miner.mine_clusters(cluster_db)
    groups = groups_from_clusters(cluster_db)
    swarms = mine_swarms(groups, args.baseline_min_objects, args.baseline_min_duration)
    convoys = mine_convoys(groups, args.baseline_min_objects, args.baseline_min_duration)

    print(f"closed crowds     : {result.crowd_count()}")
    print(f"closed gatherings : {result.gathering_count()}")
    print(f"closed swarms     : {len(swarms)}")
    print(f"convoys           : {len(convoys)}")
    return 0


def _next_bench_path() -> str:
    """The next free ``BENCH_<n>.json`` name (the trajectory starts at 4)."""
    number = 4
    while Path(f"BENCH_{number}.json").exists():
        number += 1
    return f"BENCH_{number}.json"


def _command_bench(args: argparse.Namespace) -> int:
    from .bench import (
        ProfileCollector,
        diff_against_baseline,
        format_diff_rows,
        load_bench_json,
        regressions,
        run_bench,
        write_bench_json,
    )

    output = args.output or _next_bench_path()
    baseline = load_bench_json(args.baseline) if args.baseline else None
    profile = ProfileCollector() if args.profile else None
    payload = run_bench(
        scenario_names=args.scenarios,
        backends=tuple(args.bench_backends) if args.bench_backends else BACKENDS,
        quick=args.quick,
        rounds=args.rounds,
        profile=profile,
    )
    for scenario in payload["scenarios"]:
        print(
            f"{scenario['name']:<12} objects={scenario['objects']} "
            f"snapshots={scenario['snapshots']} clusters={scenario['clusters']}"
        )
        for timings in scenario["backends"]:
            proximity = timings.get("proximity_seconds", 0.0)
            proximity_note = (
                f" (graph {proximity:.3f}s)" if proximity > 0 else ""
            )
            print(
                f"  {timings['backend']:<8} cluster {timings['cluster_seconds']:.3f}s  "
                f"crowd {timings['crowd_seconds']:.3f}s{proximity_note}  "
                f"detect {timings['detect_seconds']:.3f}s  "
                f"total {timings['total_seconds']:.3f}s"
            )
        if scenario["speedup_total"] is not None:
            print(
                f"  speedup: {scenario['speedup_total']:.2f}x end-to-end, "
                f"{scenario['speedup_phase23']:.2f}x phases 2+3"
            )
    write_bench_json(payload, output)
    print(f"wrote {output}")

    if profile is not None:
        profile.print_top(args.profile_top, sys.stderr)
        if args.profile_out:
            profile.dump(args.profile_out)
            print(f"wrote merged profile to {args.profile_out}", file=sys.stderr)

    if baseline is not None:
        rows = diff_against_baseline(payload, baseline)
        if not rows:
            # An empty diff means the gate compared nothing (renamed
            # scenario, non-overlapping --scenario/--backend selection,
            # stale baseline) — passing silently would disarm it.
            print(
                f"REGRESSION CHECK INVALID: no (scenario, backend) overlap "
                f"between this run and {args.baseline}; nothing was compared",
                file=sys.stderr,
            )
            return 1
        print(f"\nbaseline diff vs {args.baseline} "
              f"(tolerance {args.regress_tolerance:.0%}):")
        for line in format_diff_rows(rows):
            print(f"  {line}")
        slower = regressions(
            rows, args.regress_tolerance, min_seconds=args.regress_min_seconds
        )
        if slower:
            worst = max(
                slower,
                key=lambda row: row["ratio"] if row["ratio"] is not None
                else float("inf"),
            )
            ratio = (
                f"{worst['ratio']:.2f}x" if worst["ratio"] is not None else "inf"
            )
            print(
                f"REGRESSION: {len(slower)} phase timing(s) past tolerance; worst: "
                f"{worst['scenario']}/{worst['backend']}/{worst['phase']} "
                f"{ratio} baseline",
                file=sys.stderr,
            )
            return 1
        print("no regressions past tolerance")
    return 0


def _seed_loadtest_store(directory: Path):
    """Mine the quick city bench scenario into a throwaway pattern store."""
    from .store import PatternStore

    scenario = BENCH_SCENARIOS["city"]
    database = scenario.build(quick=True)
    miner = GatheringMiner(scenario.params, config=ExecutionConfig(backend="numpy"))
    result = miner.mine(database)
    path = directory / "loadtest_seed.db"
    with PatternStore(path) as store:
        result.write_to(store)
    return path


def _command_loadtest(args: argparse.Namespace) -> int:
    import tempfile

    from .bench import (
        diff_against_baseline,
        format_diff_rows,
        load_bench_json,
        regressions,
        write_bench_json,
    )
    from .loadtest import (
        WorkloadConfig,
        loadtest_payload,
        merge_payloads,
        run_loadtest,
    )
    from .store import PatternStore

    config = WorkloadConfig.quick(seed=args.seed) if args.quick else WorkloadConfig(seed=args.seed)
    if args.requests is not None:
        config = WorkloadConfig(
            requests=args.requests, clients=config.clients, seed=config.seed
        )
    if args.clients is not None:
        config = WorkloadConfig(
            requests=config.requests, clients=args.clients, seed=config.seed
        )

    with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tempdir:
        if args.store:
            store_path = args.store
        else:
            print("no --store given: mining the quick city scenario into a seed store")
            store_path = str(_seed_loadtest_store(Path(tempdir)))
        with PatternStore(store_path, readonly=True) as probe:
            summary = probe.summary()
        print(
            f"store             : {store_path} "
            f"({summary['crowds']} crowds, {summary['gatherings']} gatherings)"
        )
        print(
            f"workload          : {config.requests} requests, "
            f"{config.clients} clients, seed {config.seed}"
        )

        impls = args.impls or ["async", "threaded"]
        reports = []
        for impl in impls:
            report = run_loadtest(
                store_path,
                config,
                impl=impl,
                pool_size=args.pool_size,
                cache_size=args.cache_size,
                request_timeout=args.request_timeout,
                max_in_flight=args.max_in_flight,
            )
            reports.append(report)
            print(
                f"  {impl:<9} p50 {report.latency.p50_seconds * 1000:7.2f}ms  "
                f"p95 {report.latency.p95_seconds * 1000:7.2f}ms  "
                f"p99 {report.latency.p99_seconds * 1000:7.2f}ms  "
                f"{report.throughput_rps:8.0f} req/s  "
                f"errors {report.errors}/{report.latency.count}"
            )

    payload = loadtest_payload(reports, quick=args.quick, store_summary=summary)
    if args.output:
        write_bench_json(payload, args.output)
        print(f"wrote {args.output}")
    if args.merge_into:
        merged = merge_payloads(load_bench_json(args.merge_into), payload)
        write_bench_json(merged, args.merge_into)
        print(f"merged serving scenario into {args.merge_into}")

    if args.baseline:
        baseline = load_bench_json(args.baseline)
        rows = diff_against_baseline(payload, baseline)
        if not rows:
            print(
                f"REGRESSION CHECK INVALID: no (scenario, backend) overlap "
                f"between this loadtest and {args.baseline}; nothing was compared",
                file=sys.stderr,
            )
            return 1
        print(f"\nbaseline diff vs {args.baseline} "
              f"(tolerance {args.regress_tolerance:.0%}):")
        for line in format_diff_rows(rows):
            print(f"  {line}")
        slower = regressions(
            rows, args.regress_tolerance, min_seconds=args.regress_min_seconds
        )
        if slower:
            worst = max(
                slower,
                key=lambda row: row["ratio"] if row["ratio"] is not None
                else float("inf"),
            )
            ratio = f"{worst['ratio']:.2f}x" if worst["ratio"] is not None else "inf"
            print(
                f"REGRESSION: {len(slower)} serving metric(s) past tolerance; worst: "
                f"{worst['scenario']}/{worst['backend']}/{worst['phase']} "
                f"{ratio} baseline",
                file=sys.stderr,
            )
            return 1
        print("no regressions past tolerance")
    return 0


def _command_backends(args: argparse.Namespace) -> int:
    rows = [
        ("range_search", name, "python", cls.description)
        for name, cls in RANGE_SEARCHES.items()
    ]
    rows += [("range_search", name, "numpy", text) for name, text in NUMPY_SCHEMES.items()]
    rows += [("detection", name, backend, text) for (name, backend), text in DETECTORS.items()]
    print(f"{'kind':<14} {'name':<8} {'backend':<8} description")
    for kind, name, backend, text in sorted(rows):
        if args.kind in (None, kind):
            print(f"{kind:<14} {name:<8} {backend:<8} {text}")
    return 0


_COMMANDS = {
    "simulate": _command_simulate,
    "mine": _command_mine,
    "ingest": _command_ingest,
    "stream": _command_stream,
    "query": _command_query,
    "effectiveness": _command_effectiveness,
    "compare": _command_compare,
    "backends": _command_backends,
    "bench": _command_bench,
    "loadtest": _command_loadtest,
}


def _arm_resilience(args: argparse.Namespace) -> None:
    """Arm the fault plan / job timeout requested on the command line.

    Both land in the environment as well as in-process, so forked or
    spawned worker processes arm themselves identically.
    """
    plan_text = getattr(args, "fault_plan", None)
    if plan_text:
        from .resilience.faults import FAULT_PLAN_ENV, FaultPlan, install_plan

        install_plan(FaultPlan.parse(plan_text))
        os.environ[FAULT_PLAN_ENV] = plan_text
    job_timeout = getattr(args, "job_timeout", None)
    if job_timeout is not None:
        from .resilience.supervisor import JOB_TIMEOUT_ENV

        os.environ[JOB_TIMEOUT_ENV] = str(job_timeout)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _arm_resilience(args)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
