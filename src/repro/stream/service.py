"""Durable streaming front-end for the incremental miners (Section III-C).

:class:`StreamingGatheringService` turns the in-process incremental
machinery — :class:`~repro.core.incremental.IncrementalCrowdMiner` (crowd
extension, Lemma 4) and
:class:`~repro.core.pipeline.IncrementalGatheringMiner` (gathering reuse,
Theorem 2) — into a long-running service over a raw point feed:

* **Windowing** — arriving fixes are bucketed onto the discretised time grid
  (granularity ``params.time_step``) in windows of ``window`` snapshots.  A
  window closes once the feed has advanced ``slack`` snapshots past its end;
  its snapshots are clustered through the registry-resolved engine backend
  (:class:`~repro.engine.registry.ExecutionConfig`) and folded into the
  incremental miners, exactly as one batch of Section III-C.
* **Late arrivals** — points behind the already-folded frontier cannot be
  mined without violating the incremental contract; per
  :attr:`late_policy` they are dropped, held for audit, or rejected.
* **Bounded memory** — by Lemma 4 only cluster sequences ending at the
  frontier timestamp can ever be extended.  After every window the service
  freezes everything else (:meth:`IncrementalGatheringMiner.freeze_before`)
  into an append-only results store, so live mining state stays proportional
  to the frontier, not to stream length.
* **Checkpoint / restore** — :meth:`checkpoint` serialises the full service
  state to a versioned on-disk format and :meth:`restore` resumes from it,
  producing results identical to an uninterrupted run (see
  :mod:`repro.stream.checkpoint`).

Exact equivalence with a one-shot :class:`~repro.core.pipeline.GatheringMiner`
run holds for feeds that sample every object at every grid timestamp it is
present (e.g. the fleet simulator's output).  For sparse feeds the service
carries each object's last folded fix across window boundaries so left-edge
interpolation matches the batch pipeline; right-edge interpolation against
samples that have not arrived yet is impossible in a streaming setting and
is the one documented divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

import numpy as np

from ..core.config import GatheringParameters
from ..core.crowd import Crowd
from ..core.gathering import Gathering, dedupe_gatherings
from ..core.pipeline import GatheringMiner, IncrementalGatheringMiner
from ..engine.registry import ExecutionConfig
from ..quality import IngestError, QualityConfig, RawRecord
from ..quality.pipeline import GARBLE_SITE
from ..quality.rules import NON_FINITE, OUT_OF_BOUNDS, TELEPORT, travel_distance
from ..resilience.faults import maybe_fault
from ..trajectory.trajectory import TrajectoryDatabase

__all__ = [
    "LATE_POLICIES",
    "EVICTION_POLICIES",
    "StreamPoint",
    "StreamStats",
    "StreamResult",
    "StreamingGatheringService",
]

#: Accepted dispositions for points arriving behind the mined frontier.
LATE_POLICIES = ("drop", "hold", "error")

#: ``"frozen"`` flushes non-extendable state after every window (Lemma 4);
#: ``"none"`` keeps everything in the live miners (debugging / small runs).
EVICTION_POLICIES = ("frozen", "none")

#: Small tolerance when mapping float timestamps onto the snapshot grid.
_GRID_EPS = 1e-9

PointLike = Union["StreamPoint", Tuple[int, float, float, float]]


@dataclass(frozen=True)
class StreamPoint:
    """One raw trajectory fix as it arrives on the feed."""

    object_id: int
    t: float
    x: float
    y: float


class Fix(NamedTuple):
    """The raw coordinates of one buffered fix (its object and time are keys)."""

    x: float
    y: float


@dataclass
class StreamStats:
    """Counters describing one service's lifetime (survive checkpoints)."""

    points_ingested: int = 0
    points_late: int = 0
    points_held: int = 0
    windows_closed: int = 0
    clusters_built: int = 0
    crowds_frozen: int = 0
    gatherings_frozen: int = 0
    peak_pending_points: int = 0
    peak_retained_clusters: int = 0
    backpressure_events: int = 0
    #: Accumulated proximity-graph build seconds across window sweeps
    #: (non-zero on every numpy-backend run; zero on the scalar backend,
    #: which builds no proximity graph).
    proximity_seconds: float = 0.0
    #: Live points rejected by the quality firewall (malformed/implausible).
    points_rejected: int = 0
    #: Live points kept after an in-place repair (bounds clamp).
    points_repaired: int = 0
    #: Per-reason-code breakdown of the rejected points.
    rejected_by_rule: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (stable key order) for JSON reports."""
        return {
            "points_ingested": self.points_ingested,
            "points_late": self.points_late,
            "points_held": self.points_held,
            "windows_closed": self.windows_closed,
            "clusters_built": self.clusters_built,
            "crowds_frozen": self.crowds_frozen,
            "gatherings_frozen": self.gatherings_frozen,
            "peak_pending_points": self.peak_pending_points,
            "peak_retained_clusters": self.peak_retained_clusters,
            "backpressure_events": self.backpressure_events,
            "proximity_seconds": self.proximity_seconds,
            "points_rejected": self.points_rejected,
            "points_repaired": self.points_repaired,
            "rejected_by_rule": dict(sorted(self.rejected_by_rule.items())),
        }


@dataclass
class StreamResult:
    """Global answer of a stream: frozen results plus the live frontier."""

    closed_crowds: List[Crowd] = field(default_factory=list)
    gatherings: List[Gathering] = field(default_factory=list)
    stats: StreamStats = field(default_factory=StreamStats)

    def summary(self) -> Dict[str, int]:
        """Headline counts of the mined answer."""
        return {
            "closed_crowds": len(self.closed_crowds),
            "closed_gatherings": len(self.gatherings),
            "windows": self.stats.windows_closed,
            "points": self.stats.points_ingested,
        }


class StreamingGatheringService:
    """Ingest raw trajectory points; maintain closed crowds and gatherings.

    Parameters
    ----------
    params:
        Mining thresholds (also fixes the snapshot grid via ``time_step``).
    window:
        Snapshots per window — how many grid timestamps are clustered and
        folded into the incremental miners at a time.
    range_search:
        Range-search scheme name for crowd discovery (Algorithm 1); the
        numpy backend accepts only ``"GRID"`` (see
        :func:`~repro.core.range_search.runs_proximity_graph`).
    config:
        Engine backend / chunk size / worker knobs; defaults to the scalar
        reference backend like the one-shot miners.
    slack:
        Reorder tolerance in snapshots: a window only closes once a point
        arrives ``slack`` snapshots past its end, so mild out-of-order feeds
        are absorbed without a late-point policy decision.
    late_policy:
        What to do with points behind the open window (see
        :data:`LATE_POLICIES`).
    eviction:
        ``"frozen"`` (default) bounds memory via Lemma 4 freezing;
        ``"none"`` keeps all state live (see :data:`EVICTION_POLICIES`).
    store:
        Optional :class:`~repro.store.PatternStore` sink.  Every Lemma-4
        eviction flush is appended to it as it happens and :meth:`finish`
        lands the remaining frontier results, so the store always holds the
        stream's durable answer (see :meth:`attach_store`).
    quality:
        Optional :class:`~repro.quality.QualityConfig` arming the live-point
        firewall: non-finite and out-of-bounds coordinates and teleport
        jumps (``max_speed``) are rejected before they reach the grid.
        ``strict`` raises :class:`~repro.quality.IngestError`; ``lenient``
        drops and counts (:attr:`StreamStats.points_rejected`); ``repair``
        additionally clamps out-of-bounds fixes onto the box instead of
        dropping them (the sequence repairs of the batch pipeline — sorting,
        dedup, splitting — are meaningless on a live frontier, where
        ordering is already governed by slack and the late-point policy).
        ``None`` disables the firewall entirely.
    counters:
        Optional :class:`~repro.resilience.counters.ResilienceCounters`;
        every rejected live point also increments its ``ingest_rejected``
        counter so embedding processes surface rejections on ``/stats``.
    """

    def __init__(
        self,
        params: Optional[GatheringParameters] = None,
        window: int = 10,
        range_search: str = "GRID",
        config: Optional[ExecutionConfig] = None,
        slack: int = 0,
        late_policy: str = "drop",
        eviction: str = "frozen",
        store=None,
        quality: Optional[QualityConfig] = None,
        counters=None,
    ) -> None:
        if window < 1:
            raise ValueError("window must span at least one snapshot")
        if slack < 0:
            raise ValueError("slack must be non-negative")
        if late_policy not in LATE_POLICIES:
            raise ValueError(
                f"unknown late_policy {late_policy!r}; choose from {LATE_POLICIES}"
            )
        if eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction {eviction!r}; choose from {EVICTION_POLICIES}"
            )
        self.params = params or GatheringParameters()
        self.window = int(window)
        self.range_search = range_search
        self.config = config or ExecutionConfig(backend="python")
        self.slack = int(slack)
        self.late_policy = late_policy
        self.eviction = eviction
        self.quality = quality
        self.counters = counters
        # Last accepted fix per object (max-t), for the teleport gate.
        self._last_valid: Dict[int, Tuple[float, float, float]] = {}

        # Phase-1 clustering reuses the one-shot miner's backend plumbing;
        # phases 2-3 run through the incremental miner.  Cluster retention in
        # the incremental miner is only needed when nothing is ever evicted.
        self._clusterer = GatheringMiner(
            self.params, range_search=range_search, config=self.config
        )
        self._miner = IncrementalGatheringMiner(
            self.params,
            range_search=range_search,
            config=self.config,
            retain_clusters=(eviction == "none"),
        )

        # Stream position: the grid origin is the first accepted timestamp;
        # window w covers grid indices [w * window, (w + 1) * window).
        self._origin: Optional[float] = None
        self._open_window = 0
        self._max_seen_t: Optional[float] = None
        self._finished = False

        # Raw fixes of not-yet-closed windows, keyed object -> {t: Fix}
        # (idempotent under at-least-once redelivery), plus the last folded
        # fix per object for boundary interpolation.
        self._pending: Dict[int, Dict[float, Fix]] = {}
        self._pending_count = 0
        self._carry: Dict[int, Tuple[float, Fix]] = {}

        # Append-only results flushed out of the live miners by eviction.
        self._frozen_crowds: List[Crowd] = []
        self._frozen_gatherings: List[Gathering] = []
        self._frozen_keys: Set[Tuple] = set()

        self.held_points: List[StreamPoint] = []
        self.stats = StreamStats()

        self._store = None
        if store is not None:
            self.attach_store(store)

    # -- persistence sink --------------------------------------------------------
    @property
    def store(self):
        """The attached :class:`~repro.store.PatternStore` sink, if any."""
        return self._store

    def attach_store(self, store) -> None:
        """Sink mined results into ``store`` from now on.

        The store records this service's mining parameters (rejecting a
        store written with different ones) and receives every subsequent
        eviction flush plus the :meth:`finish` results.  Checkpoints do not
        serialise the store attachment — a store is an external resource —
        so re-attach after :meth:`restore`; fingerprint-deduplicated inserts
        make re-flushing previously stored patterns harmless.
        """
        store.set_params(self.params)
        self._store = store

    # -- grid helpers -----------------------------------------------------------
    def _grid_index(self, t: float) -> int:
        """Snapshot-grid index of a timestamp (origin-relative)."""
        assert self._origin is not None
        return int(math.floor((t - self._origin) / self.params.time_step + _GRID_EPS))

    def _window_start_t(self, window_index: int) -> float:
        """Timestamp of the first grid snapshot of a window."""
        assert self._origin is not None
        return self._origin + window_index * self.window * self.params.time_step

    @property
    def frontier(self) -> Optional[float]:
        """The last timestamp folded into the miners (``None`` before any)."""
        return self._miner.last_timestamp

    @property
    def pending_points(self) -> int:
        """Raw fixes buffered in not-yet-closed windows."""
        return self._pending_count

    # -- quality firewall --------------------------------------------------------
    def _reject(self, point: StreamPoint, reason: str) -> None:
        """Disposition one invalid live point per the quality policy."""
        if self.quality.policy == "strict":
            raw = f"{point.object_id},{point.t},{point.x},{point.y}"
            record = RawRecord(
                index=self.stats.points_ingested + self.stats.points_rejected,
                raw=raw,
                object_id=point.object_id,
                t=point.t,
                x=point.x,
                y=point.y,
            )
            raise IngestError(reason, record)
        self.stats.points_rejected += 1
        self.stats.rejected_by_rule[reason] = (
            self.stats.rejected_by_rule.get(reason, 0) + 1
        )
        if self.counters is not None:
            self.counters.increment("ingest_rejected")

    def _check_point(self, point: StreamPoint) -> Optional[StreamPoint]:
        """Validate one live point; the (possibly clamped) point, or ``None``.

        Applies the stateless rules plus the teleport gate against the
        object's last accepted fix.  Duplicate timestamps are already
        idempotent in the pending buffer and ordering is governed by the
        window/slack machinery, so the sequence rules of the batch pipeline
        do not apply here.
        """
        quality = self.quality
        if not (
            math.isfinite(point.t)
            and math.isfinite(point.x)
            and math.isfinite(point.y)
        ):
            self._reject(point, NON_FINITE)
            return None
        if quality.bounds is not None:
            min_x, min_y, max_x, max_y = quality.bounds
            if not (min_x <= point.x <= max_x and min_y <= point.y <= max_y):
                if quality.policy == "repair":
                    point = StreamPoint(
                        point.object_id,
                        point.t,
                        min(max(point.x, min_x), max_x),
                        min(max(point.y, min_y), max_y),
                    )
                    self.stats.points_repaired += 1
                else:
                    self._reject(point, OUT_OF_BOUNDS)
                    return None
        if quality.max_speed is not None:
            previous = self._last_valid.get(point.object_id)
            if previous is not None and point.t > previous[0]:
                jump = travel_distance(
                    previous[1], previous[2], point.x, point.y, quality.metric
                )
                if jump > quality.max_speed * (point.t - previous[0]):
                    self._reject(point, TELEPORT)
                    return None
        return point

    # -- ingestion --------------------------------------------------------------
    def ingest(self, point: PointLike) -> bool:
        """Feed one fix; returns ``True`` if it was accepted for mining.

        Accepts a :class:`StreamPoint` or a plain ``(object_id, t, x, y)``
        tuple.  A point behind the open window is *late* and handled per
        :attr:`late_policy`; redelivery of an already-buffered fix is
        idempotent.
        """
        if self._finished:
            raise RuntimeError("cannot ingest into a finished stream")
        if not isinstance(point, StreamPoint):
            object_id, t, x, y = point
            point = StreamPoint(int(object_id), float(t), float(x), float(y))
        if maybe_fault(GARBLE_SITE) is not None:
            # Chaos harness: corrupt the live point before validation, the
            # same site the batch pipeline probes per record.
            point = StreamPoint(point.object_id, point.t, float("nan"), float("nan"))
        if self.quality is not None:
            point = self._check_point(point)
            if point is None:
                return False

        if self._origin is None:
            self._origin = point.t
        elif point.t < self._origin and self._open_window == 0:
            # Until the first window closes nothing has been folded, so the
            # grid origin can still slide down to cover a reordered stream
            # head (the batch pipeline anchors its grid at the global
            # minimum timestamp; this keeps the two grids aligned).
            self._origin = point.t

        index = self._grid_index(point.t)
        if index < self._open_window * self.window:
            self.stats.points_late += 1
            if self.late_policy == "error":
                raise ValueError(
                    f"late point (object {point.object_id}, t={point.t:g}) behind "
                    f"window starting at t={self._window_start_t(self._open_window):g}"
                )
            if self.late_policy == "hold":
                self.held_points.append(point)
                self.stats.points_held += 1
            return False

        # Close every window the watermark has moved past (plus slack).
        while index >= (self._open_window + 1) * self.window + self.slack:
            self._close_window()

        bucket = self._pending.setdefault(point.object_id, {})
        if point.t not in bucket:
            self._pending_count += 1
            self.stats.points_ingested += 1
        bucket[point.t] = Fix(point.x, point.y)
        if self.quality is not None:
            previous = self._last_valid.get(point.object_id)
            if previous is None or point.t > previous[0]:
                self._last_valid[point.object_id] = (point.t, point.x, point.y)
        if self._max_seen_t is None or point.t > self._max_seen_t:
            self._max_seen_t = point.t
        if self._pending_count > self.stats.peak_pending_points:
            self.stats.peak_pending_points = self._pending_count
        return True

    def ingest_many(self, points: Iterable[PointLike]) -> int:
        """Feed a batch of fixes in arrival order; returns how many were accepted."""
        accepted = 0
        for point in points:
            if self.ingest(point):
                accepted += 1
        return accepted

    # -- window lifecycle --------------------------------------------------------
    def _window_timestamps(self, window_index: int, clamp: bool) -> List[float]:
        """Grid snapshots of one window (clamped to the last seen fix at flush)."""
        assert self._origin is not None
        start = window_index * self.window
        stop = (window_index + 1) * self.window
        if clamp:
            if self._max_seen_t is None:
                return []
            stop = min(stop, self._grid_index(self._max_seen_t) + 1)
        step = self.params.time_step
        return [self._origin + i * step for i in range(start, stop)]

    def _close_window(self, clamp: bool = False) -> None:
        """Cluster one window's snapshots and fold them into the miners."""
        window_index = self._open_window
        self._open_window += 1
        timestamps = self._window_timestamps(window_index, clamp)
        if not timestamps:
            return
        window_end = timestamps[-1] + self.params.time_step - _GRID_EPS

        database = self._window_database(window_end)
        cluster_db = self._clusterer.cluster(database, timestamps=timestamps)
        self.stats.clusters_built += len(cluster_db)
        # Accumulate the delta (not the miner's running total): the stats
        # counters survive checkpoints while the miner is rebuilt, so the
        # totals would double-count after a restore.
        graph_before = self._miner.proximity_seconds
        self._miner.update(cluster_db)
        self.stats.proximity_seconds += self._miner.proximity_seconds - graph_before
        self.stats.windows_closed += 1

        if self.eviction == "frozen" and self._miner.last_timestamp is not None:
            flushed_crowds: List[Crowd] = []
            flushed_gatherings: List[Gathering] = []
            for crowd, found in self._miner.freeze_before(self._miner.last_timestamp):
                key = crowd.keys()
                if key in self._frozen_keys:
                    continue
                self._frozen_keys.add(key)
                self._frozen_crowds.append(crowd)
                self._frozen_gatherings.extend(found)
                flushed_crowds.append(crowd)
                flushed_gatherings.extend(found)
                self.stats.crowds_frozen += 1
                self.stats.gatherings_frozen += len(found)
            if self._store is not None and flushed_crowds:
                self._store.add_patterns(
                    flushed_crowds, dedupe_gatherings(flushed_gatherings)
                )

        retained = self.retained_cluster_count()
        if retained > self.stats.peak_retained_clusters:
            self.stats.peak_retained_clusters = retained

    def _window_database(self, window_end: float) -> TrajectoryDatabase:
        """The interpolation anchors of the closing window, as one database.

        Every object with pending fixes contributes its carried fix (the
        last one folded) and every pending fix — fixes of future windows
        stay pending but still anchor the right edge — so virtual points
        across window boundaries match what the batch pipeline would
        interpolate.  The anchors are flattened into ``oid/t/x/y`` columns
        in one pass and handed to :meth:`TrajectoryDatabase.from_columns`;
        the fixes before ``window_end`` then leave the buffer and each
        object's last one becomes its new carried fix.
        """
        pending = self._pending
        carry = self._carry
        object_ids: List[int] = []
        times: List[float] = []
        coords: List[Fix] = []
        carried_rows: List[int] = []
        for object_id, samples in pending.items():
            carried = carry.get(object_id)
            if carried is not None:
                # Carried first: from_columns sorts stably, so it stays the
                # first of equal times, as the carried anchor always was.
                carried_rows.append(len(times))
                object_ids.append(object_id)
                times.append(carried[0])
                coords.append(carried[1])
            object_ids.extend(repeat(object_id, len(samples)))
            times.extend(samples)
            coords.extend(samples.values())
        oid = np.array(object_ids, dtype=np.int64)
        t = np.array(times, dtype=float)
        xy = np.fromiter(
            chain.from_iterable(coords), dtype=float, count=2 * len(coords)
        ).reshape(-1, 2)
        database = TrajectoryDatabase.from_columns(oid, t, xy[:, 0], xy[:, 1])

        taken = t < window_end
        taken[carried_rows] = False
        rows = np.flatnonzero(taken)
        if rows.size:
            # Each object's rows are contiguous and its pending times
            # distinct, so its latest taken fix is the one row of its run
            # that holds the run's largest time.
            taken_t = t[rows]
            runs = np.flatnonzero(
                np.concatenate(([True], oid[rows[1:]] != oid[rows[:-1]]))
            )
            latest = np.maximum.reduceat(taken_t, runs)
            lengths = np.diff(np.append(runs, len(rows)))
            for row in rows[taken_t == np.repeat(latest, lengths)].tolist():
                carry[object_ids[row]] = (times[row], coords[row])
            for row in rows.tolist():
                del pending[object_ids[row]][times[row]]
            self._pending_count -= len(rows)
            self._pending = {
                object_id: samples for object_id, samples in pending.items() if samples
            }
        return database

    def finish(self) -> StreamResult:
        """Flush every pending window and return the final global answer.

        After this the service is sealed: further :meth:`ingest` calls raise.
        """
        if not self._finished:
            if self._origin is not None and self._max_seen_t is not None:
                last_window = self._grid_index(self._max_seen_t) // self.window
                while self._open_window <= last_window:
                    self._close_window(clamp=True)
            self._finished = True
        result = self.results()
        if self._store is not None:
            # Land the frontier state too: after finish() the store holds
            # the stream's complete answer (evictions already flushed are
            # deduplicated by fingerprint).
            self._store.add_patterns(result.closed_crowds, result.gatherings)
        return result

    # -- answers ----------------------------------------------------------------
    def results(self) -> StreamResult:
        """The current global answer: frozen results plus live frontier state."""
        crowds = list(self._frozen_crowds)
        gatherings = list(self._frozen_gatherings)
        for crowd in self._miner.closed_crowds:
            if crowd.keys() not in self._frozen_keys:
                crowds.append(crowd)
        gatherings.extend(self._miner.gatherings)
        return StreamResult(
            closed_crowds=crowds,
            gatherings=dedupe_gatherings(gatherings),
            stats=self.stats,
        )

    def retained_cluster_count(self) -> int:
        """Distinct snapshot clusters referenced by live (evictable) state.

        This is the quantity the ``"frozen"`` eviction policy bounds: with it
        enabled, only clusters reachable from the frontier candidate set (and
        crowds still ending at the frontier) stay referenced; everything
        older has been flushed to the frozen results store.
        """
        keys: Set[Tuple[float, int]] = set()
        for crowd in self._miner.open_candidates:
            keys.update(cluster.key() for cluster in crowd.clusters)
        for crowd in self._miner.closed_crowds:
            keys.update(cluster.key() for cluster in crowd.clusters)
        count = len(keys)
        if self._miner.retain_clusters:
            count += len(self._miner.cluster_db)
        return count

    # -- checkpoint / restore ----------------------------------------------------
    def checkpoint(self, path, keep: int = 1) -> None:
        """Serialise the full service state to ``path`` (versioned JSON).

        ``keep`` previous checkpoints rotate to ``<path>.1`` … before the
        new one lands, so a corrupted write can fall back on restore.  See
        :mod:`repro.stream.checkpoint` for the format and integrity story.
        """
        from .checkpoint import save_checkpoint

        save_checkpoint(self, path, keep=keep)

    @classmethod
    def restore(cls, path) -> "StreamingGatheringService":
        """Rebuild a service from a :meth:`checkpoint` file.

        The restored service resumes exactly where the original stopped:
        replaying the remainder of the feed yields results identical to an
        uninterrupted run (redelivered in-window points are idempotent,
        already-folded ones fall under the late-point policy).
        """
        from .checkpoint import load_checkpoint

        return load_checkpoint(path)
