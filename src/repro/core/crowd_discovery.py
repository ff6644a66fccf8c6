"""Closed-crowd discovery (Algorithm 1 of the paper).

The algorithm sweeps the timestamps of the cluster database in order,
maintaining a set ``V`` of crowd candidates (cluster sequences ending at the
previous timestamp).  At each timestamp every candidate tries to extend with
the clusters within Hausdorff distance ``delta`` of its last cluster;
candidates that cannot be extended and are long enough become closed crowds
(Lemma 1).  Clusters not appended to any candidate start new candidates.

Two implementations run the sweep.  The ``"numpy"`` backend builds every
consecutive-snapshot proximity edge up front
(:func:`~repro.engine.proximity.build_proximity_graph`) and propagates the
candidates over it (:func:`~repro.engine.sweep.sweep_crowds_frontier`).
The ``"python"`` backend, or any ready-made
:class:`~repro.core.range_search.RangeSearchStrategy` instance, runs the
scalar loop below with one of the paper's range-search schemes; it is the
parity oracle for the numpy path.

The final candidate set (all sequences ending at the last timestamp) is kept
in the returned :class:`CrowdDiscoveryResult` so the incremental algorithm of
Section III-C can resume the sweep when a new batch of data arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple, Union

from ..clustering.snapshot import ClusterDatabase
from ..engine.registry import ExecutionConfig
from .config import GatheringParameters
from .crowd import Crowd
from .range_search import RangeSearchStrategy, make_range_search, runs_proximity_graph

__all__ = ["CrowdDiscoveryResult", "discover_closed_crowds"]


@dataclass
class CrowdDiscoveryResult:
    """Output of one run (or one incremental resume) of Algorithm 1.

    Attributes
    ----------
    closed_crowds:
        All closed crowds discovered, in order of completion.
    open_candidates:
        The cluster sequences still alive when the sweep reached the last
        timestamp — exactly the sequences that Lemma 4 says may be extended
        by future data.  They include closed crowds that end at the final
        timestamp as well as shorter candidates.
    last_timestamp:
        The last timestamp processed, or ``None`` for an empty database.
    proximity_seconds:
        Wall-clock seconds spent building the cluster proximity graph on
        the numpy backend (``0.0`` on the scalar loop); surfaced as a
        sub-phase of the crowd timing in ``repro bench``.
    """

    closed_crowds: List[Crowd] = field(default_factory=list)
    open_candidates: List[Crowd] = field(default_factory=list)
    last_timestamp: Optional[float] = None
    proximity_seconds: float = 0.0

    def crowd_count(self) -> int:
        """Number of closed crowds discovered."""
        return len(self.closed_crowds)


def discover_closed_crowds(
    cluster_db: ClusterDatabase,
    params: GatheringParameters,
    strategy: Union[str, RangeSearchStrategy, None] = "GRID",
    initial_candidates: Optional[Sequence[Crowd]] = None,
    start_after: Optional[float] = None,
    config: Optional[ExecutionConfig] = None,
) -> CrowdDiscoveryResult:
    """Discover all closed crowds in a cluster database (Algorithm 1).

    Parameters
    ----------
    cluster_db:
        The snapshot-cluster database ``C_DB``.
    params:
        Mining thresholds; only ``mc``, ``delta`` and ``kc`` are used here.
    strategy:
        Range-search scheme: a scalar scheme name (``"BRUTE"``, ``"SR"``,
        ``"IR"``, ``"GRID"``) or a ready-made :class:`RangeSearchStrategy`
        instance.  The numpy backend accepts only ``"GRID"`` (or ``None``)
        by name; see :func:`~repro.core.range_search.runs_proximity_graph`.
    config:
        Optional :class:`~repro.engine.registry.ExecutionConfig` selecting
        the backend (``"python"`` reference or ``"numpy"`` columnar) and
        the kernel chunk size of the numpy proximity graph.
    initial_candidates:
        Crowd candidates carried over from a previous run (incremental mode).
    start_after:
        Only process timestamps strictly greater than this value (incremental
        mode); ``None`` processes the whole database.

    Returns
    -------
    A :class:`CrowdDiscoveryResult` with the closed crowds and the open
    candidate set for later incremental extension.
    """
    timestamps = [
        t for t in cluster_db.timestamps() if start_after is None or t > start_after
    ]
    if runs_proximity_graph(strategy, config.backend if config else "python"):
        # Exact label parity with the scalar loop below is property-tested.
        from ..engine.proximity import build_proximity_graph
        from ..engine.sweep import sweep_crowds_frontier

        graph = build_proximity_graph(
            cluster_db, params, timestamps=timestamps, chunk_size=config.chunk_size
        )
        return sweep_crowds_frontier(
            graph, params, initial_candidates=initial_candidates
        )

    if isinstance(strategy, RangeSearchStrategy):
        searcher = strategy
    else:
        searcher = make_range_search(strategy or "GRID", params.delta)

    closed: List[Crowd] = []
    candidates: List[Crowd] = list(initial_candidates) if initial_candidates else []
    last_processed: Optional[float] = None

    for t in timestamps:
        previous = last_processed
        last_processed = t
        if previous is not None:
            # The sweep only ever searches the current snapshot: per-timestamp
            # indexes built for earlier snapshots can never be queried again,
            # so the strategy's cache stays O(1) instead of growing with the
            # sweep (grid indexes / R-trees of every processed timestamp).
            searcher.drop_before(t)
        # Only clusters meeting the support threshold can take part in a crowd.
        clusters_now = [c for c in cluster_db.clusters_at(t) if len(c) >= params.mc]
        if not clusters_now:
            # An empty snapshot can neither extend nor start a candidate:
            # close the long ones, drop the rest, and skip the range search
            # (no strategy query is constructed at all).
            for candidate in candidates:
                if candidate.lifetime >= params.kc:
                    closed.append(candidate)
            candidates = []
            continue
        appended_keys: Set[Tuple[float, int]] = set()
        next_candidates: List[Crowd] = []
        # Several candidates can share the same last cluster (branching); the
        # range search only depends on that cluster, so memoise per timestamp.
        search_memo: dict = {}

        for candidate in candidates:
            last_cluster = candidate.clusters[-1]
            memo_key = last_cluster.key()
            if search_memo.get(memo_key) is not None:
                matches = search_memo[memo_key]
            else:
                matches = searcher.search(last_cluster, t, clusters_now)
                search_memo[memo_key] = matches
            if matches:
                appended_keys.update(match.key() for match in matches)
                for match in matches:
                    next_candidates.append(candidate.append(match))
            elif candidate.lifetime >= params.kc:
                # Cannot be extended: by Lemma 1 it is a closed crowd.
                closed.append(candidate)

        # Clusters that did not extend any candidate start new candidates.
        for cluster in clusters_now:
            if cluster.key() not in appended_keys:
                next_candidates.append(Crowd((cluster,)))

        candidates = next_candidates

    # Sequences still alive at the end of the sweep: the long ones are closed
    # crowds (nothing follows them yet); all of them stay available for
    # incremental extension.
    for candidate in candidates:
        if candidate.lifetime >= params.kc:
            closed.append(candidate)

    if last_processed is None and initial_candidates:
        # Nothing new was processed; keep the caller's candidates untouched.
        candidates = list(initial_candidates)

    return CrowdDiscoveryResult(
        closed_crowds=closed,
        open_candidates=candidates,
        last_timestamp=last_processed,
    )
