"""Runs one workload's timed part against the program and checks its answers.

Started by ``run.py`` in a fresh process (with the program's ``src`` on
``PYTHONPATH``) so that peak RSS is the program's, not the input
generator's.  Reads the generated inputs from a work directory, prints one
JSON document on stdout and exits.  Every layer is timed from outside, at
the public call into the module that owns it.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import loadgen
import workloads as W
from gen import PAGE_LIMITS
from calibrate import REFERENCE_S
from tracing import Tracer

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner, MiningResult
from repro.engine.registry import ExecutionConfig
from repro.quality import QualityConfig
from repro.serve.app import PatternApp, encode_cursor, parse_filters
from repro.serve.pool import ReadConnectionPool
from repro.store.pattern_store import PatternStore
from repro.stream.service import StreamingGatheringService
from repro.trajectory.io import load_csv_report

HERE = os.path.dirname(os.path.abspath(__file__))

#: The tail percentile each workload reports: the highest one its sample
#: sizes support with at least 10 samples beyond it on every run.
TAIL_PERCENTILE = {"trace-batch": 99.0, "stream-replay": 90.0, "serve-query": 99.0}


# -- statistics ------------------------------------------------------------------
def tail(samples: List[float], q: float) -> float:
    """The ``q``-th percentile of ``samples``, which must leave 10 samples beyond it."""
    if len(samples) * (100.0 - q) / 100.0 < 10.0:
        raise ValueError(f"{len(samples)} samples cannot support p{q:g}")
    return float(np.percentile(samples, q))


def block_tails(samples: List[float], q: float) -> List[float]:
    """``q``-th percentile of each block of consecutive samples that leaves 10 beyond it.

    A workload's tail is the median of these (at least 3): a burst of
    stalls on the shared machine then moves one block, not the figure.
    """
    size = int(round(1000.0 / (100.0 - q)))
    tails = [tail(samples[i : i + size], q) for i in range(0, len(samples) - size + 1, size)]
    if len(tails) < 3:
        raise ValueError(f"{len(samples)} samples give fewer than 3 blocks for p{q:g}")
    return tails


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """Kernel times from ``calibrate.py``, sampled between pieces of work.

    Every time a run reports is multiplied by :meth:`factor`, the
    reference kernel time over the run's kernel time, so a slow stretch of
    the shared host does not read as a slower program.  The kernel runs in
    a process of its own while the program waits.  The host's speed
    changes within seconds, so the samples are spread evenly over the run:
    :meth:`tick` takes one whenever ``CALIBRATION_INTERVAL_S`` has passed
    since the last.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._last = 0.0

    def sample(self) -> None:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        self.samples.append(float(self._child.stdout.readline()))
        self._last = time.perf_counter()

    def tick(self) -> float:
        """Sample if the interval has passed; return the seconds this took."""
        start = time.perf_counter()
        if start - self._last < W.CALIBRATION_INTERVAL_S:
            return 0.0
        self.sample()
        return time.perf_counter() - start

    def factor(self) -> float:
        """Reference kernel time over the mean of the middle half of the run's."""
        ordered = sorted(self.samples)
        quarter = len(ordered) // 4
        middle = ordered[quarter : len(ordered) - quarter]
        return REFERENCE_S / statistics.mean(middle)

    def close(self) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        finally:
            if self._child.poll() is None:
                self._child.kill()
                self._child.wait()


def to_reference_speed(values: Dict[str, float], factor: float) -> Dict[str, float]:
    """Scale every time (``*_s``, ``*_ms``) and rate (``*_per_s``) by ``factor``."""
    out = {}
    for name, value in values.items():
        if name.endswith("_per_s"):
            value = value / factor
        elif name.endswith(("_s", "_ms")):
            value = value * factor
        out[name] = value
    return out


def timed(tracer: Tracer, name: str, layer: str, fn: Callable, *args, **kwargs):
    """Call ``fn`` inside a span; return its result and wall seconds."""
    start = time.perf_counter()
    with tracer.span(name, layer):
        out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class Checks:
    """Named correctness checks; each records pass/fail and a detail."""

    def __init__(self) -> None:
        self.results: Dict[str, List] = {}

    def add(self, name: str, ok: bool, detail="") -> None:
        previous = self.results.get(name)
        if previous is None or previous[0]:
            self.results[name] = [bool(ok), detail]

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.results.values())


def params() -> GatheringParameters:
    return GatheringParameters(**W.PARAMS)


def quality_config(meta: Dict, min_samples: int = 2) -> QualityConfig:
    return QualityConfig(
        policy="lenient",
        max_speed=meta["max_speed"],
        min_samples=min_samples,
        bounds=tuple(meta["bounds"]),
    )


def planted_found(planted: List[Dict], gatherings) -> int:
    """How many planted gatherings the mined answer contains.

    A planted gathering is found when one mined gathering has every planted
    member among its participators and overlaps the planted dwell for at
    least ``kc`` snapshots (a passer-by may split a long dwell in two).
    """
    found = 0
    kc = W.PARAMS["kc"]
    for event in planted:
        members = set(event["members"])
        for gathering in gatherings:
            overlap = min(gathering.end_time, event["t_end"]) - max(
                gathering.start_time, event["t_start"]
            )
            if overlap + 1 >= kc and members <= gathering.participator_ids:
                found += 1
                break
    return found


def interpolated_positions(database, step: float) -> int:
    """Grid positions phase 1 interpolates: each object over its own lifespan."""
    origin = database.time_domain()[0]
    total = 0
    for trajectory in database:
        first = int(np.ceil((trajectory.start_time - origin) / step - 1e-9))
        last = int(np.floor((trajectory.end_time - origin) / step + 1e-9))
        total += last - first + 1
    return total


# -- trace-batch ------------------------------------------------------------------
def startup_samples(workdir: str, starts: int) -> List[float]:
    """Seconds from spawning a fresh process until its job is ready to run.

    The child imports what ``repro mine`` imports and opens a fresh store.
    The first start warms the file cache and is not counted.
    """
    samples = []
    for index in range(starts + 1):
        store = os.path.join(workdir, f"startup-{index}.db")
        command = [sys.executable, os.path.join(HERE, "startup.py"), store]
        begin = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - begin
            child.stdout.close()
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"start-up child failed: {line!r}, exit {child.returncode}")
        if index:
            samples.append(elapsed)
        os.remove(store)
    return samples


def run_batch(meta: Dict, tracer: Tracer, host: HostSpeed, seconds: float,
              checks: Checks) -> Dict:
    workdir = meta["workdir"]
    setup = startup_samples(workdir, W.SETUP_STARTS)

    quality = quality_config(meta)
    miner = GatheringMiner(params(), config=ExecutionConfig(backend="numpy"))
    host.tick()
    jobs: List[Dict] = []
    readback: List[float] = []
    queries = itertools.cycle(meta["readback"])
    deadline = time.perf_counter() + seconds
    while (
        len(jobs) < max(W.MIN_JOBS, W.MIN_UNIT_PAIRS * 2 if tracer.alternate else 0)
        or len(readback) < W.READBACK_QUERIES
        or time.perf_counter() < deadline
    ):
        index = len(jobs)
        store_path = os.path.join(workdir, f"job-{index}.db")
        gc.collect()
        tracer.start_unit(index)
        (database, report), load_s = timed(
            tracer, "load_csv_report", "quality", load_csv_report, meta["csv"], quality
        )
        cluster_db, cluster_s = timed(
            tracer, "GatheringMiner.cluster", "engine", miner.cluster, database
        )
        crowds, crowds_s = timed(
            tracer, "GatheringMiner.discover_crowds", "core.crowds",
            miner.discover_crowds, cluster_db,
        )
        gatherings, detect_s = timed(
            tracer, "GatheringMiner.detect", "core.detect", miner.detect, crowds.closed_crowds
        )
        result = MiningResult(cluster_db, crowds.closed_crowds, gatherings, miner.params)
        start = time.perf_counter()
        with tracer.span("PatternStore.write_result", "store"):
            store = PatternStore(store_path)
            store.write_result(result)
            store.close()
        write_s = time.perf_counter() - start
        job_s = load_s + cluster_s + crowds_s + detect_s + write_s
        jobs.append(
            {
                "job_s": job_s,
                "points_per_s": report.total / job_s,
                "load_s": load_s,
                "cluster_s": cluster_s,
                "crowds_s": crowds_s,
                "proximity_s": crowds.proximity_seconds,
                "detect_s": detect_s,
                "write_s": write_s,
            }
        )

        # Correctness of this job, outside its timed part.
        checks.add("ingest report sums", report.accepted + report.dropped + report.repaired
                   == report.total == meta["rows"], f"{report.as_dict()['total']} rows")
        expected = meta.get("injected", {})
        dropped = {k: v for k, v in report.dropped_by_rule.items() if v}
        checks.add("dropped by rule == injected", dropped == expected,
                   {"got": dropped, "want": expected})
        found = planted_found(meta["planted"], gatherings)
        checks.add("planted gatherings found", found == len(meta["planted"]),
                   f"{found}/{len(meta['planted'])}")
        with PatternStore(store_path, readonly=True) as stored:
            same = (stored.crowd_count(), stored.gathering_count()) == (
                len(crowds.closed_crowds), len(gatherings))
        checks.add("store counts == mined counts", same,
                   f"{len(crowds.closed_crowds)} crowds, {len(gatherings)} gatherings")
        tracer.count("quality.records", report.total)
        tracer.count("engine.clusters", len(cluster_db))
        tracer.count("store.patterns", len(crowds.closed_crowds) + len(gatherings))
        counts = {
            "records": report.total,
            "dropped": report.dropped,
            "positions": interpolated_positions(database, miner.params.time_step),
            "clusters": len(cluster_db),
            "crowds": len(crowds.closed_crowds),
            "gatherings": len(gatherings),
        }
        del database, cluster_db, crowds, gatherings, result
        gc.collect()
        host.tick()
        # A slice of the read-back after every job spreads the latency
        # samples over the whole run instead of one short burst at its end.
        readback += readback_latency(store_path, queries, W.READBACK_PER_JOB, tracer)
        tracer.end_unit(job_s)
        os.remove(store_path)
        host.tick()

    def median(key):
        return statistics.median(job[key] for job in jobs)

    patterns = counts["crowds"] + counts["gatherings"]
    tail_q = TAIL_PERCENTILE["trace-batch"]
    blocks = block_tails(readback, tail_q)
    return {
        "e2e": {
            "setup_s": statistics.median(setup),
            "throughput_per_s": median("points_per_s"),
            "latency_p50_ms": statistics.median(readback),
            "latency_tail_ms": statistics.median(blocks),
            "peak_rss_mb": peak_rss_mb(),
        },
        "layers": {
            "quality.load_s": median("load_s"),
            "quality.records_per_s": counts["records"] / median("load_s"),
            "quality.records": counts["records"],
            "quality.dropped": counts["dropped"],
            "engine.cluster_s": median("cluster_s"),
            "engine.positions": counts["positions"],
            "engine.positions_per_s": counts["positions"] / median("cluster_s"),
            "engine.clusters": counts["clusters"],
            "core.crowds_s": median("crowds_s"),
            "core.proximity_s": median("proximity_s"),
            "core.crowds": counts["crowds"],
            "core.detect_s": median("detect_s"),
            "core.gatherings": counts["gatherings"],
            "store.write_s": median("write_s"),
            "store.patterns": patterns,
            "store.patterns_per_s": patterns / median("write_s"),
        },
        "details": {
            "jobs": len(jobs),
            "job_s": [round(job["job_s"], 4) for job in jobs],
            "setup_samples_s": setup,
            "latency": {"what": "store read-back query", "samples": len(readback),
                        "tail_percentile": tail_q, "block_tails_ms": blocks},
        },
        "attempted": len(jobs) + len(readback),
        "failed": 0,
    }


def readback_latency(store_path: str, queries, count: int, tracer: Tracer) -> List[float]:
    """Milliseconds per read-back query: the next ``count`` of ``queries``."""
    samples = []
    with PatternStore(store_path, readonly=True) as store:
        queriers = {"crowds": store.query_crowds, "gatherings": store.query_gatherings}
        for kind, filters in itertools.islice(queries, count):
            start = time.perf_counter()
            with tracer.span(f"PatternStore.query_{kind}", "store.read"):
                queriers[kind](**filters)
            samples.append((time.perf_counter() - start) * 1000.0)
    return samples


# -- stream-replay ----------------------------------------------------------------
def stream_service(meta: Dict, store) -> StreamingGatheringService:
    return StreamingGatheringService(
        params(),
        window=W.STREAM_WINDOW,
        config=ExecutionConfig(backend="numpy"),
        slack=W.STREAM_SLACK,
        late_policy="drop",
        eviction="frozen",
        store=store,
        quality=quality_config(meta, min_samples=1),
    )


def run_stream(meta: Dict, tracer: Tracer, host: HostSpeed, seconds: float,
               checks: Checks) -> Dict:
    workdir = meta["workdir"]
    feed = np.load(meta["feed"])
    rows = feed.tolist()
    half = meta["half"]
    first, second = rows[:half], rows[half:]
    del feed
    # The feed is a few hundred thousand small lists.  Freezing them keeps
    # the collector from re-scanning them during the timed part; the
    # program's own objects are all created later and collected as usual.
    gc.collect()
    gc.freeze()

    # Untimed: the first half of the feed, then a checkpoint at the midpoint.
    checkpoint = os.path.join(workdir, "midpoint.ckpt")
    with PatternStore(os.path.join(workdir, "first-half.db")) as store:
        service = stream_service(meta, store)
        for point in first:
            service.ingest(point)
        service.checkpoint(checkpoint)
    del service
    gc.collect()
    host.tick()

    restores: List[float] = []
    closes: List[float] = []
    chunk_rates: List[float] = []
    replays: List[Dict] = []
    deadline = time.perf_counter() + seconds
    index = 0
    # A traced run alternates whole replays, which feed the same points.
    least = W.MIN_UNIT_PAIRS * 2 if tracer.alternate else W.MIN_REPLAYS
    while len(replays) < least or len(closes) < W.STREAM_MIN_CLOSES or (
        time.perf_counter() < deadline
    ):
        tracer.start_unit(index)
        # Set-up: an operator restart restores the midpoint checkpoint.  The
        # first replay restores several times so set-up has a median.
        for _ in range(W.STREAM_RESTORES if index == 0 else 1):
            service = None
            gc.collect()
            service, restore_s = timed(tracer, "StreamingGatheringService.restore", "stream",
                                       StreamingGatheringService.restore, checkpoint)
            restores.append(restore_s)
        store_path = os.path.join(workdir, f"replay-{index}.db")
        store = PatternStore(store_path)
        service.attach_store(store)

        ingest_s = close_s = 0.0
        windows_before = service.stats.windows_closed
        ingest = service.ingest
        stats = service.stats
        perf = time.perf_counter
        paused = 0.0
        loop_start = chunk_start = perf()
        for number, point in enumerate(second, 1):
            closed = stats.windows_closed
            start = perf()
            ingest(point)
            end = perf()
            if stats.windows_closed != closed:
                close_s += end - start
                closes.append((end - start) * 1000.0)
                tracer.record("StreamingGatheringService.ingest (closes window)", "stream",
                              start, end)
            else:
                ingest_s += end - start
            if number % W.STREAM_CHUNK == 0:
                chunk_rates.append(W.STREAM_CHUNK / (end - chunk_start))
                paused += host.tick()
                chunk_start = perf()
        loop_s = perf() - loop_start - paused
        result, finish_s = timed(
            tracer, "StreamingGatheringService.finish", "stream", service.finish
        )
        tracer.count("stream.ingest_calls", len(second))
        tracer.end_unit(loop_s + finish_s)

        stats = result.stats
        fed = len(rows)
        accounted = stats.points_ingested + stats.points_late + stats.points_rejected
        checks.add("every fed point accounted once", accounted == fed,
                   f"ingested {stats.points_ingested} + late {stats.points_late} + "
                   f"rejected {stats.points_rejected} vs fed {fed}")
        found = planted_found(meta["planted"], result.gatherings)
        checks.add("planted gatherings found", found == len(meta["planted"]),
                   f"{found}/{len(meta['planted'])}")
        same = (store.crowd_count(), store.gathering_count()) == (
            len(result.closed_crowds), len(result.gatherings))
        checks.add("store counts == mined counts", same,
                   f"{len(result.closed_crowds)} crowds, {len(result.gatherings)} gatherings")
        store.close()
        replays.append(
            {
                "ingest_s": ingest_s,
                "close_s": close_s,
                "finish_s": finish_s,
                "windows": stats.windows_closed - windows_before,
                "late": stats.points_late,
                "rejected": stats.points_rejected,
                "peak_retained_clusters": stats.peak_retained_clusters,
                "crowds": len(result.closed_crowds),
                "gatherings": len(result.gatherings),
            }
        )
        del service, result
        os.remove(store_path)
        index += 1
        host.tick()

    def median(key):
        return statistics.median(replay[key] for replay in replays)

    tail_q = TAIL_PERCENTILE["stream-replay"]
    blocks = block_tails(closes, tail_q)
    last = replays[-1]
    return {
        "e2e": {
            "setup_s": statistics.median(restores),
            "throughput_per_s": statistics.median(chunk_rates),
            "latency_p50_ms": statistics.median(closes),
            "latency_tail_ms": statistics.median(blocks),
            "peak_rss_mb": peak_rss_mb(),
        },
        "layers": {
            "stream.restore_s": statistics.median(restores),
            "stream.ingest_s": median("ingest_s"),
            "stream.close_s": median("close_s"),
            "stream.finish_s": median("finish_s"),
            "stream.windows": last["windows"],
            "stream.points_late": last["late"],
            "stream.points_rejected": last["rejected"],
            "stream.peak_retained_clusters": last["peak_retained_clusters"],
            "core.crowds": last["crowds"],
            "core.gatherings": last["gatherings"],
        },
        "details": {
            "replays": len(replays),
            "points_per_replay": len(second),
            "restore_samples_s": restores,
            "checkpoint_mb": os.path.getsize(checkpoint) / (1024.0 * 1024.0),
            "latency": {"what": "ingest call that closes a window", "samples": len(closes),
                        "tail_percentile": tail_q, "block_tails_ms": blocks},
        },
        "attempted": len(replays) * len(second),
        "failed": 0,
    }


# -- serve-query ------------------------------------------------------------------
def _mine_serving_result(meta: Dict, path: str) -> None:
    """Untimed: mine the trace once and pickle the result for the server."""
    database, _ = load_csv_report(meta["csv"], quality_config(meta))
    miner = GatheringMiner(params(), config=ExecutionConfig(backend="numpy"))
    result = miner.mine(database)
    found = planted_found(meta["planted"], result.gatherings)
    if found != len(meta["planted"]):
        raise RuntimeError(f"serving fixture lost planted gatherings: {found}")
    with open(path, "wb") as handle:
        pickle.dump(
            MiningResult(None, result.closed_crowds, result.gatherings, result.params), handle
        )


class Client:
    """One keep-alive HTTP connection that records failures instead of raising."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def get(self, target: str, headers: Dict[str, str]) -> Tuple[int, bytes, Optional[str]]:
        try:
            self.conn.request("GET", target, headers=headers)
            response = self.conn.getresponse()
            body = response.read()
            return response.status, body, response.getheader("ETag")
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            return 0, b"", None

    def close(self) -> None:
        self.conn.close()


def resolve_mix(mix, store_path: str) -> Tuple[List[Tuple[str, str]], List[str]]:
    """Turn abstract requests into ``(kind, target)``; also the page-walk targets.

    Cursor tokens depend on the stored rows, so each page walk is resolved
    by reading the store directly (untimed); a walk past its last page
    starts over.
    """
    walks: List[List[str]] = []
    with PatternStore(store_path, readonly=True) as store:
        for walk in range(W.SERVE_PAGE_WALKS):
            kind = "gatherings" if walk % 2 == 0 else "crowds"
            limit = PAGE_LIMITS[(walk // 2) % len(PAGE_LIMITS)]
            base = f"/{kind}?limit={limit}"
            querier = store.query_gatherings if kind == "gatherings" else store.query_crowds
            rows = querier()
            pages = [base]
            for end in range(limit, len(rows), limit):
                last = rows[end - 1]
                pages.append(base + "&cursor=" + encode_cursor(
                    (last.start_time, last.end_time, last.fingerprint)))
            walks.append(pages)
    requests = []
    for kind, argument in mix:
        if kind == "page":
            walk, page = argument
            requests.append((kind, walks[walk][page % len(walks[walk])]))
        else:
            requests.append((kind, argument))
    distinct = sorted({target for pages in walks for target in pages})
    return requests, distinct


def run_serve(meta: Dict, tracer: Tracer, host: HostSpeed, seconds: float,
              checks: Checks) -> Dict:
    workdir = meta["workdir"]
    result_path = os.path.join(workdir, "result.pkl")
    if not os.path.exists(result_path):
        _mine_serving_result(meta, result_path)

    server = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "server.py"), result_path, workdir,
         str(W.SERVE_SETUPS), str(W.SERVE_CONNECTIONS)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    # The server may run on every CPU: its worker threads may query in
    # parallel.  The client keeps to one CPU, where it polls instead of
    # sleeping (see loadgen), and during the load an awake.py process keeps
    # each other CPU from halting, so no request waits for a halted virtual
    # CPU to wake up.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    awake: List[subprocess.Popen] = []
    try:
        ready = json.loads(server.stdout.readline())
        port = ready["port"]
        for cpu in cpus[1:]:
            command = [sys.executable, os.path.join(HERE, "awake.py"), str(cpu)]
            awake.append(subprocess.Popen(command))
        out = serve_load(meta, ready, port, tracer, host, seconds, checks)
        server.stdin.write("stop\n")
        server.stdin.flush()
        final = json.loads(server.stdout.readline())
        server.wait(timeout=60)
    finally:
        for process in awake:
            process.kill()
            process.wait()
        if server.poll() is None:
            server.kill()
            server.wait()
    if server.returncode != 0:
        raise RuntimeError(f"server exited with {server.returncode}")
    out["e2e"]["peak_rss_mb"] = final["peak_rss_mb"]
    out["e2e"]["setup_s"] = statistics.median(ready["setup_s"])
    out["layers"]["serve.start_s"] = statistics.median(ready["start_s"])
    out["layers"]["store.write_s"] = statistics.median(ready["write_s"])
    out["layers"]["store.patterns"] = ready["patterns"]
    out["layers"]["store.patterns_per_s"] = ready["patterns"] / statistics.median(ready["write_s"])
    out["details"]["setup_samples_s"] = ready["setup_s"]
    out["details"]["cpus"] = {"client": cpus[:1], "server": cpus, "kept_awake": cpus[1:]}
    return out


def _server_stats(client: Client) -> Dict:
    status, body, _ = client.get("/stats", {})
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(body)


def serve_load(meta, ready, port, tracer: Tracer, host: HostSpeed, seconds: float,
               checks: Checks) -> Dict:
    store_path = ready["store"]
    requests, page_targets = resolve_mix(meta["mix"], store_path)

    # Untimed warm-up: every repeated key once (never the unique filters,
    # which must miss the cache); remember ETags to revalidate with.
    control = Client(port)
    etags: Dict[str, str] = {}
    for target in warm_targets(requests, page_targets):
        status, _, etag = control.get(target, {})
        if status != 200:
            raise RuntimeError(f"warm-up {target} answered {status}")
        etags[target] = etag
    prepared = [
        (kind, target, {"If-None-Match": etags[target]} if kind == "revalidate" else {})
        for kind, target in requests
    ]
    open_count = max(W.SERVE_MIN_OPEN_REQUESTS, int(W.SERVE_RATE * seconds * W.SERVE_OPEN_SHARE))
    open_count -= open_count % W.SERVE_BLOCK

    gc.collect()
    gc.freeze()
    host.tick()
    before = _server_stats(control)
    # Rounds of one open-loop block and one closed-loop stretch, so that
    # latency, throughput and the host's speed are all measured across the
    # whole run, not each in its own part of it.
    rounds = open_count // W.SERVE_BLOCK
    closed_s = max(W.SERVE_MIN_CLOSED_S, seconds * (1.0 - W.SERVE_OPEN_SHARE)) / rounds
    closed_share = (len(prepared) - open_count) // rounds
    open_results: List = []
    closed_results: List = []
    chunk_rates: List[float] = []
    for index in range(rounds):
        # A block is sent in parts, each on its own schedule, so that the
        # host is sampled every few seconds.
        for first in range(index * W.SERVE_BLOCK, (index + 1) * W.SERVE_BLOCK, W.SERVE_PART):
            open_results += loadgen.open_loop(
                port, prepared[first : first + W.SERVE_PART], W.SERVE_RATE, W.SERVE_CONNECTIONS
            )
            host.tick()
        first = open_count + index * closed_share
        stretch = loadgen.closed_loop(
            port, prepared[first : first + closed_share], closed_s, W.SERVE_CONNECTIONS
        )
        chunk_rates += chunk_throughputs(stretch, W.SERVE_THROUGHPUT_CHUNK)
        closed_results += stretch
        host.tick()
    if len(chunk_rates) < 3:
        raise RuntimeError("closed-loop stretches too short for a chunked throughput")
    after = _server_stats(control)
    for due, sent, done, status, body, kind in open_results + closed_results:
        tracer.record(f"GET {kind}", "serve.http", sent, done)
        tracer.count(f"serve.status_{status}", 1)

    failed = 0
    for results in (open_results, closed_results):
        for _, _, _, status, body, kind in results:
            if status not in (200, 304):
                failed += 1
            elif status == 200:
                try:
                    json.loads(body)
                except ValueError:
                    failed += 1
                    checks.add("every 200 body parses", False, body[:80])
    checks.add("every 200 body parses", True)
    checks.add("no failed requests", failed == 0, f"{failed} failed")

    # A fixed sample of answers must match direct store queries.
    sample = [target for kind, target, _ in prepared if kind in ("repeat", "unique", "page")]
    sample = list(dict.fromkeys(sample))[: W.SERVE_SAMPLE]
    with PatternStore(store_path, readonly=True) as store:
        for target in sample:
            status, body, _ = control.get(target, {})
            route, _, query = target.partition("?")
            filters = parse_filters(query)
            querier = store.query_gatherings if route == "/gatherings" else store.query_crowds
            direct = querier(
                bbox=filters.get("bbox"), time_from=filters["time_from"],
                time_to=filters["time_to"], object_id=filters["object_id"],
                min_lifetime=filters["min_lifetime"], limit=filters["limit"],
                after=filters["cursor"],
            )
            served = [row["fingerprint"] for row in json.loads(body)["results"]]
            checks.add("HTTP answers == direct store queries",
                       status == 200 and served == [r.fingerprint for r in direct], target)
    control.close()

    # Per-layer only: the in-process app time, which a traced run reports.
    app_ms = []
    if tracer.alternate:
        app_ms = app_latency(store_path, prepared[: W.SERVE_APP_REQUESTS], tracer)

    latency = [(done - due) * 1000.0 for due, sent, done, status, body, kind in open_results]
    lateness = [(sent - due) * 1000.0 for due, sent, done, status, body, kind in open_results]
    sizes = [len(body) / 1024.0 for due, sent, done, status, body, kind in open_results
             if status == 200]
    tail_q = TAIL_PERCENTILE["serve-query"]
    blocks = block_tails(latency, tail_q)
    late_ms = tail(lateness, 99.0)
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    not_modified = sum(1 for r in open_results if r[3] == 304)
    return {
        "e2e": {
            "throughput_per_s": statistics.median(chunk_rates),
            "latency_p50_ms": statistics.median(latency),
            "latency_tail_ms": statistics.median(blocks),
        },
        "layers": {
            "serve.app_p50_ms": statistics.median(app_ms) if app_ms else 0.0,
            "serve.app_p99_ms": tail(app_ms, 99.0) if app_ms else 0.0,
            "serve.cache_hit_ratio": hits / max(1, hits + misses),
            "serve.cache_lookups": hits + misses,
            "serve.not_modified_ratio": not_modified / len(open_results),
            "serve.pool_waits": after["pool"]["waits"] - before["pool"]["waits"],
            "serve.late_p99_ms": late_ms,
            "serve.response_kb_p50": statistics.median(sizes),
        },
        "details": {
            "rate_per_s": W.SERVE_RATE,
            "open_requests": len(open_results),
            "closed_requests": len(closed_results),
            "connections": W.SERVE_CONNECTIONS,
            "latency": {"what": "HTTP request at the fixed open-loop rate, from when it was due",
                        "samples": len(latency), "tail_percentile": tail_q,
                        "block_tails_ms": blocks},
            "closed_stretch_s": closed_s,
        },
        "attempted": len(open_results) + len(closed_results),
        "failed": failed,
    }


def chunk_throughputs(results, chunk: int) -> List[float]:
    """Rates over consecutive chunks of ``chunk`` completed requests.

    The run reports their median, so that a short stall of the shared
    machine does not move the figure the way one total over the phase would.
    """
    done = sorted(r[2] for r in results)
    return [chunk / (done[end] - done[end - chunk]) for end in range(chunk, len(done), chunk)]


def warm_targets(requests, page_targets) -> List[str]:
    """Targets that repeat in the mix: popular filters and listing pages."""
    repeated = [target for kind, target in requests if kind in ("repeat", "revalidate", "page")]
    return list(dict.fromkeys(repeated + list(page_targets)))


def app_latency(store_path: str, requests, tracer: Tracer) -> List[float]:
    """In-process ``PatternApp.handle_request`` milliseconds over ``requests``.

    ``requests`` is the start of the served mix, so the app sees the same
    kinds of requests as the server.  Two apps, each with its own result
    cache, take the same requests block by block: one is never traced, the
    other always is, and the tracer's alternating units decide which of
    the two takes a block first.  Both caches thus hold the same entries
    at every step, and each traced block pairs with the same block
    untraced.  Spans of the HTTP phases are added from the client's own
    timestamps after the load, so tracing cannot slow those phases.
    """
    pool = ReadConnectionPool(store_path, size=W.SERVE_CONNECTIONS)
    try:
        apps = [PatternApp(pool), PatternApp(pool)]  # untraced, traced
        etags: Dict[str, str] = {}
        for app in apps:
            for target in warm_targets([(kind, target) for kind, target, _ in requests], []):
                etags[target] = app.handle_request("GET", target, {}).headers.get("ETag")
        samples = []
        for unit in range(2 * len(requests) // W.SERVE_APP_BLOCK):
            tracer.start_unit(unit)
            app = apps[1] if tracer.enabled else apps[0]
            block_ms = 0.0
            first = (unit // 2) * W.SERVE_APP_BLOCK
            for kind, target, headers in requests[first : first + W.SERVE_APP_BLOCK]:
                if kind == "revalidate":
                    headers = {"If-None-Match": etags[target]}
                start = time.perf_counter()
                with tracer.span("PatternApp.handle_request", "serve.app"):
                    app.handle_request("GET", target, headers)
                elapsed = (time.perf_counter() - start) * 1000.0
                samples.append(elapsed)
                block_ms += elapsed
            tracer.end_unit(block_ms / 1000.0)
        return samples
    finally:
        pool.close()


RUNNERS = {
    "trace-batch": run_batch,
    "stream-replay": run_stream,
    "serve-query": run_serve,
}


def run_once(meta: Dict, traced: bool) -> Dict:
    """Run the workload once; a traced run traces every other unit of work."""
    run_id = f"{meta['workload']}-{meta['seed']}-{int(traced)}"
    tracer = Tracer(traced, run_id=run_id, alternate=traced)
    checks = Checks()
    host = HostSpeed()
    try:
        out = RUNNERS[meta["workload"]](meta, tracer, host, meta["seconds"], checks)
        while len(host.samples) < W.CALIBRATIONS_MIN:
            host.sample()
    finally:
        host.close()
    factor = host.factor()
    out["details"]["measured_e2e"] = out["e2e"]
    out["details"]["host"] = {"reference_s": REFERENCE_S, "kernel_s": host.samples,
                              "factor": factor}
    out["e2e"] = to_reference_speed(out["e2e"], factor)
    out["layers"] = to_reference_speed(out["layers"], factor)
    out["checks"] = checks.results
    out["correct"] = checks.ok
    if traced:
        out["aggregates"] = tracer.aggregates()
        out["spans"] = len(tracer.spans)
        out["counts"] = tracer.counts
        out["units"] = tracer.units
        out["overhead_ratios"] = tracer.overhead_ratios()
        if len(out["overhead_ratios"]) < 2:
            raise RuntimeError("too few traced/untraced unit pairs for the tracing overhead")
        tracer.write_chrome_trace(meta["trace_path"])
    return out


def main() -> int:
    meta_path, trace = sys.argv[1], sys.argv[2] == "1"
    with open(meta_path) as handle:
        meta = json.load(handle)
    sys.setrecursionlimit(max(10_000, sys.getrecursionlimit()))
    sys.stdout.write(json.dumps(run_once(meta, traced=trace)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
