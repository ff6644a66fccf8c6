"""End-to-end mining facade.

:class:`GatheringMiner` wires the three phases of the paper's framework
together — snapshot clustering, closed-crowd discovery and closed-gathering
detection — behind a small API:

>>> miner = GatheringMiner(GatheringParameters(mc=5, delta=300, kc=3, kp=2, mp=3))
>>> result = miner.mine(trajectory_db)
>>> result.gatherings          # list of Gathering
>>> result.closed_crowds       # list of Crowd

For streaming / periodically-updated databases, :class:`IncrementalGatheringMiner`
keeps the candidate state between batches and uses the crowd-extension and
gathering-update optimisations of Section III-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..clustering.snapshot import ClusterDatabase, build_cluster_database
from ..engine.registry import ExecutionConfig
from ..trajectory.trajectory import TrajectoryDatabase
from .config import GatheringParameters
from .crowd import Crowd
from .crowd_discovery import CrowdDiscoveryResult, discover_closed_crowds
from .gathering import Gathering, dedupe_gatherings, make_detector
from .incremental import IncrementalCrowdMiner, update_gatherings

__all__ = ["MiningResult", "GatheringMiner", "IncrementalGatheringMiner"]


@dataclass
class MiningResult:
    """Everything produced by one end-to-end mining run."""

    cluster_db: ClusterDatabase
    closed_crowds: List[Crowd]
    gatherings: List[Gathering]
    params: GatheringParameters

    def crowd_count(self) -> int:
        return len(self.closed_crowds)

    def gathering_count(self) -> int:
        return len(self.gatherings)

    def summary(self) -> Dict[str, int]:
        return {
            "snapshots": self.cluster_db.snapshot_count(),
            "clusters": len(self.cluster_db),
            "closed_crowds": len(self.closed_crowds),
            "closed_gatherings": len(self.gatherings),
        }

    def write_to(self, store) -> Dict[str, int]:
        """Persist this result into a :class:`~repro.store.PatternStore`.

        Records the mining parameters and appends the crowds and gatherings
        (idempotently, by content fingerprint); returns the newly inserted
        counts, e.g. ``{"crowds": 12, "gatherings": 3}``.
        """
        return store.write_result(self)


class GatheringMiner:
    """One-shot miner: trajectories (or clusters) in, closed gatherings out."""

    def __init__(
        self,
        params: Optional[GatheringParameters] = None,
        range_search: str = "GRID",
        detection_method: str = "TAD*",
        dbscan_method: str = "grid",
        config: Optional[ExecutionConfig] = None,
    ) -> None:
        self.params = params or GatheringParameters()
        self.range_search = range_search
        self.detection_method = detection_method
        self.dbscan_method = dbscan_method
        # No explicit config keeps the historical scalar behaviour; passing
        # ExecutionConfig() opts into the vectorized backend.
        self.config = config or ExecutionConfig(backend="python")

    def _dbscan_method(self) -> str:
        # The numpy backend vectorizes the default grid neighbour search; a
        # non-default method (e.g. "naive" for an ablation) is honoured as
        # requested regardless of backend.
        if self.config.backend == "numpy" and self.dbscan_method == "grid":
            return "numpy"
        return self.dbscan_method

    # -- phase 1 -------------------------------------------------------------
    def cluster(
        self,
        database: TrajectoryDatabase,
        timestamps: Optional[Sequence[float]] = None,
    ) -> ClusterDatabase:
        """Snapshot-cluster a trajectory database with the configured parameters.

        ``timestamps`` restricts clustering to explicit time instants (the
        streaming service clusters one window of the global time grid at a
        time); ``None`` covers the database's whole discretised time domain.
        """
        return build_cluster_database(
            database,
            timestamps=timestamps,
            eps=self.params.eps,
            min_points=self.params.min_points,
            time_step=self.params.time_step,
            method=self._dbscan_method(),
            object_shards=self.config.object_shards,
            spill_dir=self.config.spill_dir,
            workers=self.config.workers,
        )

    # -- phase 2 -------------------------------------------------------------
    def discover_crowds(self, cluster_db: ClusterDatabase) -> CrowdDiscoveryResult:
        """Find all closed crowds in a cluster database."""
        return discover_closed_crowds(
            cluster_db, self.params, strategy=self.range_search, config=self.config
        )

    # -- phase 3 -------------------------------------------------------------
    def detect(self, crowds: Sequence[Crowd]) -> List[Gathering]:
        """Detect closed gatherings inside each closed crowd."""
        detector = make_detector(self.detection_method, self.config.backend)
        gatherings: List[Gathering] = []
        for crowd in crowds:
            gatherings.extend(detector(crowd, self.params))
        # Branching crowds sharing a cluster prefix can re-derive the same
        # closed gathering; the global answer is a set.
        return dedupe_gatherings(gatherings)

    # -- end to end -----------------------------------------------------------
    def mine_clusters(self, cluster_db: ClusterDatabase) -> MiningResult:
        """Run phases 2 and 3 on a pre-built cluster database."""
        crowd_result = self.discover_crowds(cluster_db)
        gatherings = self.detect(crowd_result.closed_crowds)
        return MiningResult(
            cluster_db=cluster_db,
            closed_crowds=crowd_result.closed_crowds,
            gatherings=gatherings,
            params=self.params,
        )

    def mine(self, database: TrajectoryDatabase) -> MiningResult:
        """Run the full pipeline on a trajectory database."""
        cluster_db = self.cluster(database)
        return self.mine_clusters(cluster_db)


class IncrementalGatheringMiner:
    """Miner that folds in new data batches without recomputing from scratch.

    Crowd state is maintained by :class:`IncrementalCrowdMiner`; gatherings
    are re-derived per batch, reusing previously found gatherings of crowds
    that were merely extended (Theorem 2) via :func:`update_gatherings`.
    """

    def __init__(
        self,
        params: Optional[GatheringParameters] = None,
        range_search: str = "GRID",
        config: Optional[ExecutionConfig] = None,
        retain_clusters: bool = True,
    ) -> None:
        self.params = params or GatheringParameters()
        self.config = config or ExecutionConfig(backend="python")
        self.retain_clusters = retain_clusters
        self._crowd_miner = IncrementalCrowdMiner(
            params=self.params, strategy=range_search, config=self.config
        )
        # Backend-resolved TAD* detector for crowds that are new (not mere
        # extensions): the numpy backend runs the packed-matrix variant.
        self._detector = make_detector("TAD*", self.config.backend)
        # Gatherings keyed by the crowd they were found in.
        self._gatherings_by_crowd: Dict[Tuple, List[Gathering]] = {}
        # The merged cluster database across every batch folded in so far,
        # so each MiningResult.summary() reports global counts.  Bounded-
        # memory callers (the streaming service) disable retention: the
        # database then only ever holds the most recent batch.
        self._cluster_db = ClusterDatabase()

    # -- state ----------------------------------------------------------------
    @property
    def closed_crowds(self) -> List[Crowd]:
        return self._crowd_miner.all_closed_crowds()

    @property
    def gatherings(self) -> List[Gathering]:
        result: List[Gathering] = []
        current_keys = {crowd.keys() for crowd in self.closed_crowds}
        for crowd_key, found in self._gatherings_by_crowd.items():
            if crowd_key in current_keys:
                result.extend(found)
        # Without this, every update() re-reports a gathering once per
        # branching crowd that contains it (see dedupe_gatherings).
        return dedupe_gatherings(result)

    @property
    def cluster_db(self) -> ClusterDatabase:
        """The merged cluster database of every batch folded in so far.

        With ``retain_clusters=False`` only the most recent batch is held.
        """
        return self._cluster_db

    @property
    def last_timestamp(self) -> Optional[float]:
        """The most recent timestamp folded in, or ``None`` before any batch."""
        return self._crowd_miner.last_timestamp

    @property
    def proximity_seconds(self) -> float:
        """Accumulated proximity-graph build time over all folded batches."""
        return self._crowd_miner.proximity_seconds

    @property
    def open_candidates(self) -> List[Crowd]:
        """The frontier candidate set (Lemma 4): sequences that may yet extend."""
        return list(self._crowd_miner.open_candidates)

    # -- updates ----------------------------------------------------------------
    def update(self, new_clusters: ClusterDatabase) -> MiningResult:
        """Fold a new cluster batch in and return the refreshed global answer."""
        previous_crowds = {crowd.keys(): crowd for crowd in self.closed_crowds}
        self._crowd_miner.update(new_clusters)
        current_crowds = self._crowd_miner.all_closed_crowds()

        refreshed: Dict[Tuple, List[Gathering]] = {}
        for crowd in current_crowds:
            key = crowd.keys()
            if key in self._gatherings_by_crowd:
                # Unchanged crowd: keep its gatherings as-is.
                refreshed[key] = self._gatherings_by_crowd[key]
                continue
            old_match = self._find_extended_prefix(crowd, previous_crowds)
            if old_match is not None:
                old_crowd, old_found = old_match
                refreshed[key] = update_gatherings(
                    old_crowd, crowd, old_found, self.params
                )
            else:
                refreshed[key] = self._detector(crowd, self.params)
        self._gatherings_by_crowd = refreshed

        # Merge only unseen timestamps: the crowd sweep tolerates re-delivered
        # boundary snapshots (it skips t <= last_timestamp), so the merged
        # database must not duplicate them either.
        if not self.retain_clusters:
            self._cluster_db = ClusterDatabase()
        seen = set(self._cluster_db.timestamps())
        for timestamp in new_clusters.timestamps():
            if timestamp not in seen:
                self._cluster_db.add_snapshot(
                    timestamp, new_clusters.clusters_at(timestamp)
                )
        return MiningResult(
            cluster_db=self._cluster_db,
            closed_crowds=current_crowds,
            gatherings=self.gatherings,
            params=self.params,
        )

    # -- eviction ----------------------------------------------------------------
    def freeze_before(self, timestamp: float) -> List[Tuple[Crowd, List[Gathering]]]:
        """Evict crowds that can no longer be extended (Lemma 4).

        A closed crowd not ending at the frontier timestamp is frozen: no
        future arrival can extend it, so its crowd record and its gatherings
        are final.  This removes every crowd with ``end_time < timestamp``
        (together with its gatherings) from the live mining state and returns
        the ``(crowd, gatherings)`` pairs so the caller can flush them to a
        results store.  Calling with the current :attr:`last_timestamp`
        leaves exactly the frontier state behind — this is what bounds the
        streaming service's memory.
        """
        live: List[Crowd] = []
        frozen: List[Crowd] = []
        for crowd in self._crowd_miner.closed_crowds:
            if crowd.end_time < timestamp:
                frozen.append(crowd)
            else:
                live.append(crowd)
        self._crowd_miner.closed_crowds = live
        return [
            (crowd, self._gatherings_by_crowd.pop(crowd.keys(), []))
            for crowd in frozen
        ]

    def _find_extended_prefix(
        self, crowd: Crowd, previous: Dict[Tuple, Crowd]
    ) -> Optional[Tuple[Crowd, List[Gathering]]]:
        """Find a previously mined crowd that ``crowd`` extends, if any."""
        keys = crowd.keys()
        for old_key, old_crowd in previous.items():
            if len(old_key) < len(keys) and keys[: len(old_key)] == old_key:
                found = self._gatherings_by_crowd.get(old_key)
                if found is not None:
                    return old_crowd, found
        return None
